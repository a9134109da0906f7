package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of values. A refused or
// failed request is recorded as +Inf, so it sorts last and misses every
// latency limit. values is sorted in place.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	i := int(math.Ceil(q*float64(len(values)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(values) {
		i = len(values) - 1
	}
	return values[i]
}

// beyond counts the samples ranked after the nearest-rank q-quantile of
// n samples. Counting ranks, not values, keeps refusals (+Inf) beyond a
// percentile they set.
func beyond(n int, q float64) int {
	return max(0, n-int(math.Ceil(q*float64(n))))
}

// tailRanks are the percentiles a tail may be reported at, highest
// first.
var tailRanks = []float64{0.999, 0.99, 0.9, 0.5}

// highestTail returns the highest percentile in tailRanks that has at
// least ten samples beyond it, its value and that sample count. ok is
// false when even the median has fewer than ten samples beyond it.
func highestTail(values []float64) (q, v float64, n int, ok bool) {
	for _, r := range tailRanks {
		if c := beyond(len(values), r); c >= 10 {
			return r, quantile(values, r), c, true
		}
	}
	return 0, math.NaN(), 0, false
}

// windowed splits values (in arrival order) into k equal windows and
// returns the median over windows of each window's q-quantile. The
// median across windows keeps a short stall of the shared machine from
// moving the figure the way it moves a single pooled quantile.
func windowed(values []float64, k int, q float64) float64 {
	if k < 1 || len(values) < k {
		k = 1
	}
	per := make([]float64, 0, k)
	for w := 0; w < k; w++ {
		lo, hi := w*len(values)/k, (w+1)*len(values)/k
		win := append([]float64(nil), values[lo:hi]...)
		per = append(per, quantile(win, q))
	}
	return quantile(per, 0.5)
}

// median is the 0.5 quantile of a copy of values.
func median(values []float64) float64 {
	return quantile(append([]float64(nil), values...), 0.5)
}

// finite clamps ±Inf to the largest finite float64 so a result always
// encodes as JSON; NaN becomes 0.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// digest is a running SHA-256 over one line per event of its modeled
// outcome. Equal digests mean every event of the prefix produced the
// same label, mode, tier, retries, losses, imputations, error type,
// spent time and sensor energy, to the last bit of each float.
type digest struct {
	h hash.Hash
	n int
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(line string) {
	d.h.Write([]byte(line))
	d.h.Write([]byte{'\n'})
	d.n++
}

// sum returns the hex digest of the lines added so far.
func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:16]) }
