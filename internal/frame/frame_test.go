package frame

import (
	"math"
	"testing"
)

func TestReassemblerInOrder(t *testing.T) {
	var r Reassembler
	for seq := uint8(0); seq < 10; seq++ {
		if d := r.Observe(seq); d != InOrder {
			t.Fatalf("seq %d: disposition %v, want in-order", seq, d)
		}
	}
	if n := len(r.Missing()); n != 0 {
		t.Fatalf("clean stream reported %d missing frames", n)
	}
}

func TestReassemblerGapDuplicateReorder(t *testing.T) {
	var r Reassembler
	// Arrivals: 0, 2 (gap: 1 missing), 1 (late), 1 (dup), 3, 3 (dup), 6 (gap: 4,5).
	seq := []struct {
		s    uint8
		want Disposition
	}{
		{0, InOrder}, {2, Gap}, {1, Late}, {1, Duplicate},
		{3, InOrder}, {3, Duplicate}, {6, Gap},
	}
	for i, tc := range seq {
		if d := r.Observe(tc.s); d != tc.want {
			t.Fatalf("arrival %d (seq %d): disposition %v, want %v", i, tc.s, d, tc.want)
		}
	}
	miss := r.Missing()
	if len(miss) != 2 || miss[0] != 4 || miss[1] != 5 {
		t.Fatalf("missing = %v, want [4 5]", miss)
	}
	inOrder, dups, late := r.Stats()
	if inOrder != 4 || dups != 2 || late != 1 {
		t.Fatalf("stats = (%d, %d, %d), want (4, 2, 1)", inOrder, dups, late)
	}
}

func TestReassemblerWraparound(t *testing.T) {
	var r Reassembler
	for s := 250; s < 260; s++ {
		if d := r.Observe(uint8(s)); d != InOrder {
			t.Fatalf("seq %d: disposition %v, want in-order across the wrap", uint8(s), d)
		}
	}
}

func TestImputePolicies(t *testing.T) {
	miss := []bool{false, true, true, false, true}
	cases := []struct {
		policy ImputePolicy
		want   []float64
	}{
		{HoldLast, []float64{1, 1, 1, 4, 4}},
		{Linear, []float64{1, 2, 3, 4, 4}},
		{Zero, []float64{1, 0, 0, 4, 0}},
	}
	for _, tc := range cases {
		vals := []float64{1, 99, 99, 4, 99}
		if n := Impute(vals, miss, tc.policy); n != 3 {
			t.Fatalf("%v: imputed %d, want 3", tc.policy, n)
		}
		for i := range vals {
			if math.Abs(vals[i]-tc.want[i]) > 1e-12 {
				t.Fatalf("%v: values = %v, want %v", tc.policy, vals, tc.want)
			}
		}
	}
}

func TestImputeEdgeGaps(t *testing.T) {
	// Leading gap holds the first delivered value backward; a fully
	// missing payload imputes to zeros.
	vals := []float64{99, 99, 3}
	Impute(vals, []bool{true, true, false}, HoldLast)
	if vals[0] != 3 || vals[1] != 3 {
		t.Fatalf("leading gap hold-last = %v, want [3 3 3]", vals)
	}
	vals = []float64{99, 99}
	if n := Impute(vals, []bool{true, true}, Linear); n != 2 || vals[0] != 0 || vals[1] != 0 {
		t.Fatalf("all-missing linear = %v (n=%d), want zeros", vals, n)
	}
	if n := Impute(nil, nil, HoldLast); n != 0 {
		t.Fatalf("empty impute returned %d", n)
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]ImputePolicy{"": HoldLast, "hold-last": HoldLast, "linear": Linear, "zero": Zero} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown name")
	}
}

func TestRxReportDirty(t *testing.T) {
	var nilReport *RxReport
	if nilReport.Dirty() {
		t.Fatal("nil report is dirty")
	}
	if (&RxReport{CorruptDetected: 5, Frames: 8}).Dirty() {
		t.Fatal("detected-and-retried corruption must not mark the payload dirty")
	}
	if !(&RxReport{Missing: []int{3}}).Dirty() {
		t.Fatal("missing values must mark the payload dirty")
	}
	if !(&RxReport{CorruptValues: map[int]uint64{0: 1}}).Dirty() {
		t.Fatal("undetected corruption must mark the payload dirty")
	}
}
