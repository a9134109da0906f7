package telemetry

import (
	"math"
	"sync"
	"time"
)

// DefaultSLOWindowSeconds is the rolling window width a Quantile uses
// when the caller does not choose one: the "last minute" every SLO
// question starts from.
const DefaultSLOWindowSeconds = 60

// quantileSlots is the number of ring slots a window is divided into.
// Rotation granularity is window/quantileSlots; a query merges the
// slots overlapping [now-window, now], so the effective horizon is
// between window and window+slotWidth.
const quantileSlots = 6

// ExpoQuantiles are the quantile marks exported on /metrics for every
// Quantile series (Prometheus summary exposition).
var ExpoQuantiles = []float64{0.5, 0.9, 0.95, 0.99}

// Quantile is a windowed quantile metric: a cumulative quantile sketch
// plus a ring of per-slot sketches rotated by the observation clock,
// so callers can ask both "p99 since start" and "p99 over the last
// window". The clock is whatever time base the call site passes to
// Observe — the modeled clock for modeled latencies, host uptime (see
// ObserveWall) for wall durations — one base per series.
//
// All methods are safe for concurrent use; a nil *Quantile is a no-op.
type Quantile struct {
	mu     sync.Mutex
	window float64
	slotW  float64
	cum    *Sketch
	slots  []*Sketch
	starts []float64 // slot start times; NaN marks an empty slot
	cur    int
	now    float64 // latest observation time
	gen    uint64  // bumped per Observe; memoization key
}

func newQuantile(windowSeconds float64) *Quantile {
	if !(windowSeconds > 0) || math.IsInf(windowSeconds, 0) {
		windowSeconds = DefaultSLOWindowSeconds
	}
	q := &Quantile{
		window: windowSeconds,
		slotW:  windowSeconds / quantileSlots,
		cum:    NewSketch(0),
		slots:  make([]*Sketch, quantileSlots),
		starts: make([]float64, quantileSlots),
	}
	for i := range q.slots {
		q.slots[i] = NewSketch(0)
		q.starts[i] = math.NaN()
	}
	return q
}

// Observe records v at time now (seconds on the series' clock). Out of
// order observations land in the current slot; a clock jump past a
// full window clears the stale ring.
func (q *Quantile) Observe(now, v float64) {
	if q == nil || math.IsNaN(v) || math.IsNaN(now) {
		return
	}
	q.mu.Lock()
	q.rotateLocked(now)
	q.slots[q.cur].Add(v)
	q.cum.Add(v)
	q.gen++
	q.mu.Unlock()
}

// processStart anchors ObserveWall's uptime clock.
var processStart = time.Now()

// Uptime returns seconds since process start on the host monotonic
// clock — the shared time base for wall-duration quantile series.
func Uptime() float64 { return time.Since(processStart).Seconds() }

// ObserveWall is Observe at the current host uptime, for wall-time
// call sites that have no modeled clock.
func (q *Quantile) ObserveWall(v float64) { q.Observe(Uptime(), v) }

// rotateLocked advances the ring so the current slot covers now.
func (q *Quantile) rotateLocked(now float64) {
	if now > q.now {
		q.now = now
	}
	cs := q.starts[q.cur]
	if math.IsNaN(cs) {
		// First observation: align the slot grid to the clock.
		q.starts[q.cur] = math.Floor(now/q.slotW) * q.slotW
		return
	}
	if now < cs+q.slotW {
		return
	}
	steps := int(math.Floor((now - cs) / q.slotW))
	if steps >= len(q.slots) {
		// The clock jumped past the whole window: everything is stale.
		for i := range q.slots {
			q.slots[i].Reset()
			q.starts[i] = math.NaN()
		}
		q.cur = 0
		q.starts[0] = math.Floor(now/q.slotW) * q.slotW
		return
	}
	for i := 0; i < steps; i++ {
		cs += q.slotW
		q.cur = (q.cur + 1) % len(q.slots)
		q.slots[q.cur].Reset()
		q.starts[q.cur] = cs
	}
}

// Gen returns a counter that changes whenever the series has absorbed
// a new observation — the cheap staleness key SLO memoization uses.
func (q *Quantile) Gen() uint64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.gen
}

// Count and Sum report the cumulative series (Prometheus summary
// semantics: _count and _sum are since start, quantiles are windowed).
func (q *Quantile) Count() uint64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cum.Count()
}

func (q *Quantile) Sum() float64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cum.Sum()
}

// WindowSeconds returns the configured rolling window width.
func (q *Quantile) WindowSeconds() float64 {
	if q == nil {
		return 0
	}
	return q.window
}

// windowSketchLocked merges the live slots into dst.
func (q *Quantile) windowSketchLocked(dst *Sketch) {
	horizon := q.now - q.window
	for i, sl := range q.slots {
		if math.IsNaN(q.starts[i]) || q.starts[i]+q.slotW <= horizon {
			continue
		}
		dst.Merge(sl)
	}
}

// MergeWindowTo merges the sketches covering the rolling window into
// dst, a scratch sketch the poller keeps — the fleet aggregation
// primitive: merge every engine's window, then query.
func (q *Quantile) MergeWindowTo(dst *Sketch) {
	if q == nil || dst == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.windowSketchLocked(dst)
}

// CumulativeSketch returns a copy of the since-start sketch.
func (q *Quantile) CumulativeSketch() *Sketch {
	if q == nil {
		return NewSketch(0)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cum.Clone()
}

// Query returns the estimated qq-quantile over the rolling window.
// With no windowed observations it falls back to the cumulative
// sketch, so a freshly idle series still answers.
func (q *Quantile) Query(qq float64) float64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	dst := NewSketch(0)
	q.windowSketchLocked(dst)
	if dst.Count() == 0 {
		return q.cum.Quantile(qq)
	}
	return dst.Quantile(qq)
}
