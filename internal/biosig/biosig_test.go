package biosig

import (
	"math"
	"math/rand"
	"testing"

	"xpro/internal/stats"
)

func TestTable1Attributes(t *testing.T) {
	// Table 1 of the paper: symbol → (segment length, segment count).
	want := map[string]struct{ segLen, count int }{
		"C1": {82, 1162},
		"C2": {136, 884},
		"E1": {128, 1000},
		"E2": {128, 1000},
		"M1": {132, 1200},
		"M2": {132, 1200},
	}
	cases := TestCases()
	if len(cases) != 6 {
		t.Fatalf("TestCases count = %d, want 6", len(cases))
	}
	for _, c := range cases {
		w, ok := want[c.Symbol]
		if !ok {
			t.Errorf("unexpected case %q", c.Symbol)
			continue
		}
		if c.SegLen != w.segLen || c.Count != w.count {
			t.Errorf("%s: (len,count) = (%d,%d), want (%d,%d)", c.Symbol, c.SegLen, c.Count, w.segLen, w.count)
		}
		d := Generate(c)
		if len(d.Segs) != w.count {
			t.Errorf("%s: generated %d segments, want %d", c.Symbol, len(d.Segs), w.count)
		}
		for i, s := range d.Segs {
			if len(s.Samples) != w.segLen {
				t.Fatalf("%s seg %d: length %d, want %d", c.Symbol, i, len(s.Samples), w.segLen)
			}
		}
	}
}

func TestCaseBySymbol(t *testing.T) {
	c, err := CaseBySymbol("E1")
	if err != nil || c.Name != "EEGDifficult01" {
		t.Errorf("CaseBySymbol(E1) = %+v, %v", c, err)
	}
	if _, err := CaseBySymbol("Z9"); err == nil {
		t.Error("unknown symbol should error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := TestCases()[0]
	a, b := Generate(spec), Generate(spec)
	for i := range a.Segs {
		for j := range a.Segs[i].Samples {
			if a.Segs[i].Samples[j] != b.Segs[i].Samples[j] {
				t.Fatalf("segment %d sample %d differs between runs", i, j)
			}
		}
	}
}

func TestNormalizedRange(t *testing.T) {
	for _, spec := range TestCases() {
		d := Generate(spec)
		for i, s := range d.Segs {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range s.Samples {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if lo < 0 || hi > 1 {
				t.Fatalf("%s seg %d: range [%v,%v] outside [0,1]", spec.Symbol, i, lo, hi)
			}
			if hi-lo < 0.5 {
				t.Fatalf("%s seg %d: span %v, normalization should reach both ends", spec.Symbol, i, hi-lo)
			}
		}
	}
}

func TestClassBalance(t *testing.T) {
	for _, spec := range TestCases() {
		d := Generate(spec)
		cc := d.ClassCounts()
		if diff := cc[0] - cc[1]; diff < -1 || diff > 1 {
			t.Errorf("%s: class counts %v not balanced", spec.Symbol, cc)
		}
	}
}

// The generators must produce linearly detectable class structure in the
// statistical feature space — otherwise the downstream ensemble has
// nothing to learn. Check a coarse single-feature separation: the means
// of at least one feature differ by a noticeable margin between classes.
func TestClassSeparationInFeatureSpace(t *testing.T) {
	for _, spec := range TestCases() {
		d := Generate(spec)
		var sum [2][]float64
		var n [2]int
		for _, s := range d.Segs {
			fv := stats.ComputeAll(s.Samples)
			if sum[s.Label] == nil {
				sum[s.Label] = make([]float64, len(fv))
			}
			for i, v := range fv {
				sum[s.Label][i] += v
			}
			n[s.Label]++
		}
		best := 0.0
		for i := range sum[0] {
			m0 := sum[0][i] / float64(n[0])
			m1 := sum[1][i] / float64(n[1])
			rel := math.Abs(m0-m1) / (math.Abs(m0) + math.Abs(m1) + 1e-9)
			if rel > best {
				best = rel
			}
		}
		if best < 0.02 {
			t.Errorf("%s: best relative feature-mean separation %.4f, classes look identical", spec.Symbol, best)
		}
	}
}

func TestSplit(t *testing.T) {
	d := Generate(TestCases()[2])
	rng := rand.New(rand.NewSource(1))
	train, test := d.Split(0.75, rng)
	if len(train.Segs)+len(test.Segs) != len(d.Segs) {
		t.Fatal("split loses segments")
	}
	wantTrain := int(math.Round(0.75 * float64(len(d.Segs))))
	if len(train.Segs) != wantTrain {
		t.Errorf("train size = %d, want %d", len(train.Segs), wantTrain)
	}
}

func TestFolds(t *testing.T) {
	d := Generate(TestCases()[2])
	rng := rand.New(rand.NewSource(1))
	folds := d.Folds(10, rng)
	if len(folds) != 10 {
		t.Fatalf("folds = %d, want 10", len(folds))
	}
	total := 0
	for _, f := range folds {
		total += len(f.Segs)
		if d := len(folds[0].Segs) - len(f.Segs); d < -1 || d > 1 {
			t.Error("fold sizes differ by more than 1")
		}
	}
	if total != len(d.Segs) {
		t.Error("folds lose segments")
	}
	// k<2 clamps to 2.
	if got := d.Folds(1, rng); len(got) != 2 {
		t.Errorf("Folds(1) = %d folds, want clamp to 2", len(got))
	}
}

func TestMerge(t *testing.T) {
	d := Generate(TestCases()[0])
	rng := rand.New(rand.NewSource(2))
	a, b := d.Split(0.5, rng)
	m := Merge(a, b)
	if len(m.Segs) != len(d.Segs) {
		t.Error("merge loses segments")
	}
	if Merge().Segs != nil {
		t.Error("empty merge should have no segments")
	}
}

func TestPadTo(t *testing.T) {
	s := Segment{Samples: []float64{0.1, 0.2, 0.3}}
	p := s.PadTo(6)
	want := []float64{0.1, 0.2, 0.3, 0.3, 0.3, 0.3}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("PadTo = %v, want %v", p, want)
		}
	}
	tr := s.PadTo(2)
	if len(tr) != 2 || tr[0] != 0.1 || tr[1] != 0.2 {
		t.Errorf("truncation = %v", tr)
	}
	empty := Segment{}
	if got := empty.PadTo(3); len(got) != 3 || got[0] != 0 {
		t.Errorf("empty PadTo = %v", got)
	}
	// PadInto overwrites every slot of a reused buffer.
	buf := []float64{9, 9, 9, 9, 9, 9}
	if s.PadInto(buf); buf[5] != 0.3 {
		t.Errorf("PadInto = %v, want %v", buf, want)
	}
	if empty.PadInto(buf); buf[0] != 0 || buf[5] != 0 {
		t.Errorf("empty PadInto = %v, want zeros", buf)
	}
}

func TestFamilyString(t *testing.T) {
	if ECG.String() != "ECG" || EEG.String() != "EEG" || EMG.String() != "EMG" {
		t.Error("family names wrong")
	}
	if Family(7).String() != "Family(7)" {
		t.Error("unknown family formatting wrong")
	}
}

func BenchmarkGenerateE1(b *testing.B) {
	spec, _ := CaseBySymbol("E1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Generate(spec)
	}
}
