// Package biosig generates the synthetic biosignal datasets used to
// evaluate XPro.
//
// The paper evaluates on six binary-classification test cases drawn from
// the UCR Time Series archive, a neural-spike corpus and the UCI
// repository (Table 1). Those corpora are licensed/external, so this
// package substitutes parametric generators with class-dependent
// morphology for the three signal families:
//
//   - ECG: a periodic P-QRS-T complex built from Gaussian bumps; the
//     abnormal class perturbs R amplitude, ST level and rhythm.
//   - EEG: a mixture of band-limited oscillations (delta/theta/alpha/
//     beta) plus 1/f-ish noise; classes differ in band power balance.
//   - EMG: amplitude-modulated burst noise; classes differ in burst
//     envelope timing and spectral tilt.
//
// The six generated test cases reproduce Table 1 exactly in segment
// length and segment count, are deterministic given a seed, and carry
// enough class structure for the random-subspace ensemble to reach the
// high-80s-to-high-90s accuracy band the paper's classifiers operate in.
// The architecture results depend on segment length, bit width and
// separability — not on clinical ground truth — so this substitution
// preserves the evaluated behaviour (see DESIGN.md §2).
package biosig

import (
	"fmt"
	"math"
	"math/rand"
)

// Segment is one labeled signal segment. Samples are normalized to
// [0, 1] (§4.4: "All the statistical features are normalized to range
// [0, 1]"; normalizing the input segments is how the front end achieves
// that with fixed-point cells).
type Segment struct {
	Samples []float64
	Label   int // 0 or 1 for the binary tasks
}

// Dataset is a labeled collection of equal-length segments.
type Dataset struct {
	Name   string // e.g. "ECGTwoLead"
	Symbol string // e.g. "C1"
	SegLen int
	Segs   []Segment
}

// Family is the biosignal family of a test case.
type Family int

const (
	ECG Family = iota
	EEG
	EMG
)

func (f Family) String() string {
	switch f {
	case ECG:
		return "ECG"
	case EEG:
		return "EEG"
	case EMG:
		return "EMG"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// CaseSpec describes one of the six evaluation test cases (Table 1).
type CaseSpec struct {
	Symbol string
	Name   string
	Family Family
	SegLen int
	Count  int
	// Difficulty ∈ (0,1]: lower is harder (smaller class separation).
	Difficulty float64
	// Seed gives each case its own deterministic stream.
	Seed int64
}

// TestCases returns the six test cases of Table 1: symbol, source name,
// segment length and segment count all match the paper.
func TestCases() []CaseSpec {
	return []CaseSpec{
		{Symbol: "C1", Name: "ECGTwoLead", Family: ECG, SegLen: 82, Count: 1162, Difficulty: 0.9, Seed: 101},
		{Symbol: "C2", Name: "ECGFiveDays", Family: ECG, SegLen: 136, Count: 884, Difficulty: 0.8, Seed: 102},
		{Symbol: "E1", Name: "EEGDifficult01", Family: EEG, SegLen: 128, Count: 1000, Difficulty: 0.33, Seed: 103},
		{Symbol: "E2", Name: "EEGDifficult02", Family: EEG, SegLen: 128, Count: 1000, Difficulty: 0.4, Seed: 104},
		{Symbol: "M1", Name: "EMGHandLat", Family: EMG, SegLen: 132, Count: 1200, Difficulty: 0.6, Seed: 105},
		{Symbol: "M2", Name: "EMGHandTip", Family: EMG, SegLen: 132, Count: 1200, Difficulty: 0.52, Seed: 106},
	}
}

// CaseBySymbol returns the test case with the given symbol (C1, C2, E1,
// E2, M1, M2).
func CaseBySymbol(sym string) (CaseSpec, error) {
	for _, c := range TestCases() {
		if c.Symbol == sym {
			return c, nil
		}
	}
	return CaseSpec{}, fmt.Errorf("biosig: unknown test case %q", sym)
}

// Generate builds the dataset for spec. It is deterministic: the same
// spec always yields the same dataset.
func Generate(spec CaseSpec) *Dataset {
	rng := rand.New(rand.NewSource(spec.Seed))
	d := &Dataset{Name: spec.Name, Symbol: spec.Symbol, SegLen: spec.SegLen}
	d.Segs = make([]Segment, spec.Count)
	for i := range d.Segs {
		label := i % 2 // balanced classes
		var raw []float64
		switch spec.Family {
		case ECG:
			raw = genECG(rng, spec.SegLen, label, spec.Difficulty)
		case EEG:
			raw = genEEG(rng, spec.SegLen, label, spec.Difficulty)
		default:
			raw = genEMG(rng, spec.SegLen, label, spec.Difficulty)
		}
		normalize01(raw)
		d.Segs[i] = Segment{Samples: raw, Label: label}
	}
	return d
}

// normalize01 rescales x in place to span [0, 1]. Constant segments map
// to all 0.5.
func normalize01(x []float64) {
	lo, hi := x[0], x[0]
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		for i := range x {
			x[i] = 0.5
		}
		return
	}
	inv := 1 / (hi - lo)
	for i := range x {
		x[i] = (x[i] - lo) * inv
	}
}

// gaussBump adds a Gaussian bump of amplitude a, center c and width w
// (all in sample units) to x.
func gaussBump(x []float64, a, c, w float64) {
	for i := range x {
		d := (float64(i) - c) / w
		x[i] += a * math.Exp(-0.5*d*d)
	}
}

// genECG synthesizes one heartbeat-centered ECG segment. Class 1
// ("abnormal") lowers the R amplitude, raises the ST baseline and widens
// the QRS — the morphology differences an abnormality detector keys on.
func genECG(rng *rand.Rand, n, label int, diff float64) []float64 {
	x := make([]float64, n)
	c := float64(n) / 2 // beat centered in the window
	jitter := func(s float64) float64 { return 1 + s*(rng.Float64()*2-1) }

	rAmp := 1.0
	qrsW := float64(n) * 0.015
	stLift := 0.0
	tAmp := 0.25
	if label == 1 {
		rAmp = 1.0 - 0.35*diff
		qrsW *= 1 + 0.8*diff
		stLift = 0.12 * diff
		tAmp = 0.25 + 0.18*diff
	}
	// P wave.
	gaussBump(x, 0.12*jitter(0.2), c-float64(n)*0.22*jitter(0.05), float64(n)*0.035)
	// Q dip, R spike, S dip.
	gaussBump(x, -0.15*jitter(0.2), c-float64(n)*0.035, qrsW)
	gaussBump(x, rAmp*jitter(0.08), c, qrsW)
	gaussBump(x, -0.2*jitter(0.2), c+float64(n)*0.035, qrsW)
	// ST segment lift (abnormal) and T wave.
	gaussBump(x, stLift, c+float64(n)*0.12, float64(n)*0.08)
	gaussBump(x, tAmp*jitter(0.15), c+float64(n)*0.22*jitter(0.05), float64(n)*0.06)
	// Baseline wander + measurement noise.
	ph := rng.Float64() * 2 * math.Pi
	for i := range x {
		x[i] += 0.05*math.Sin(2*math.Pi*float64(i)/float64(n)+ph) + 0.02*rng.NormFloat64()
	}
	return x
}

// genEEG synthesizes an EEG segment as a band mixture. Class 1 shifts
// power from alpha (8–12 Hz band equivalent) toward beta/spike activity,
// the signature of the "difficult" seizure-vs-background discrimination.
func genEEG(rng *rand.Rand, n, label int, diff float64) []float64 {
	x := make([]float64, n)
	// Band center frequencies in cycles per segment.
	type band struct{ cyc, amp float64 }
	bands := []band{
		{cyc: 1.5, amp: 0.5},  // delta
		{cyc: 3.5, amp: 0.35}, // theta
		{cyc: 7, amp: 0.6},    // alpha
		{cyc: 14, amp: 0.25},  // beta
	}
	if label == 1 {
		bands[2].amp *= 1 - 0.7*diff // alpha suppression
		bands[3].amp *= 1 + 1.6*diff // beta surge
	}
	for _, b := range bands {
		ph := rng.Float64() * 2 * math.Pi
		amp := b.amp * (0.8 + 0.4*rng.Float64())
		cyc := b.cyc * (0.9 + 0.2*rng.Float64())
		for i := range x {
			x[i] += amp * math.Sin(2*math.Pi*cyc*float64(i)/float64(n)+ph)
		}
	}
	// Occasional spike-wave bursts in class 1.
	if label == 1 {
		nb := 1 + rng.Intn(2)
		for b := 0; b < nb; b++ {
			gaussBump(x, (0.8+0.5*rng.Float64())*diff, rng.Float64()*float64(n), float64(n)*0.01)
		}
	}
	for i := range x {
		x[i] += 0.1 * rng.NormFloat64()
	}
	return x
}

// genEMG synthesizes an EMG segment: noise shaped by a movement-burst
// envelope. Class 1 uses a later, longer burst with heavier high-
// frequency content (distinguishing, e.g., tip vs hook grasps).
func genEMG(rng *rand.Rand, n, label int, diff float64) []float64 {
	x := make([]float64, n)
	center := 0.35
	width := 0.12
	gain := 1.0
	if label == 1 {
		center = 0.35 + 0.25*diff
		width = 0.12 + 0.1*diff
		gain = 1 + 0.5*diff
	}
	c := float64(n) * (center + 0.05*(rng.Float64()*2-1))
	w := float64(n) * width
	prev := 0.0
	for i := range x {
		env := 0.15 + gain*math.Exp(-0.5*((float64(i)-c)/w)*((float64(i)-c)/w))
		// First-order high-pass shaped noise; class 1 is "whiter".
		white := rng.NormFloat64()
		alpha := 0.7 - 0.4*diff*float64(label)
		v := alpha*prev + (1-alpha)*white
		prev = v
		x[i] = env * v
	}
	return x
}

// Split partitions d into train and test subsets with the given train
// fraction, shuffling deterministically with rng while preserving class
// balance.
func (d *Dataset) Split(trainFrac float64, rng *rand.Rand) (train, test *Dataset) {
	idx := rng.Perm(len(d.Segs))
	nTrain := int(math.Round(trainFrac * float64(len(d.Segs))))
	train = &Dataset{Name: d.Name, Symbol: d.Symbol, SegLen: d.SegLen}
	test = &Dataset{Name: d.Name, Symbol: d.Symbol, SegLen: d.SegLen}
	for i, j := range idx {
		if i < nTrain {
			train.Segs = append(train.Segs, d.Segs[j])
		} else {
			test.Segs = append(test.Segs, d.Segs[j])
		}
	}
	return train, test
}

// Folds partitions d into k folds for cross-validation, deterministically
// shuffled with rng. Fold sizes differ by at most one segment.
func (d *Dataset) Folds(k int, rng *rand.Rand) []*Dataset {
	if k < 2 {
		k = 2
	}
	idx := rng.Perm(len(d.Segs))
	folds := make([]*Dataset, k)
	for f := range folds {
		folds[f] = &Dataset{Name: d.Name, Symbol: d.Symbol, SegLen: d.SegLen}
	}
	for i, j := range idx {
		f := i % k
		folds[f].Segs = append(folds[f].Segs, d.Segs[j])
	}
	return folds
}

// PadTo returns the segment's samples padded (by repeating the final
// sample) or truncated to length n. XPro's DWT chain requires a
// power-of-two-friendly length: the evaluation uses 5 DWT levels with
// band lengths 64/32/16/8/4, i.e. a 128-sample DWT input, while raw
// segment lengths vary (82–136, Table 1). The hardware front end
// zero-order-hold pads the tail; time-domain features still see the raw
// segment.
func (s Segment) PadTo(n int) []float64 {
	out := make([]float64, n)
	s.PadInto(out)
	return out
}

// PadInto is PadTo writing into out, len(out) samples; an empty
// segment pads with zeros.
func (s Segment) PadInto(out []float64) {
	copied := copy(out, s.Samples)
	last := 0.0
	if copied > 0 {
		last = out[copied-1]
	}
	for i := copied; i < len(out); i++ {
		out[i] = last
	}
}
