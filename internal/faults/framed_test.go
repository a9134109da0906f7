package faults

import (
	"errors"
	"testing"

	"xpro/internal/frame"
	"xpro/internal/wireless"
)

// TestPlanAtOverlappingWindows pins the documented merge semantics:
// overlapping same-kind windows MERGE — the effective state takes the
// max Loss and max Rate over every covering window, and boolean kinds
// OR together. Validate accepts overlap; it is not an error.
func TestPlanAtOverlappingWindows(t *testing.T) {
	p := &Plan{Windows: []Window{
		{Kind: LossBurst, Start: 0, End: 10, Loss: 0.3},
		{Kind: LossBurst, Start: 5, End: 15, Loss: 0.7},
		{Kind: BitFlip, Start: 0, End: 10, Rate: 1e-3},
		{Kind: BitFlip, Start: 5, End: 15, Rate: 2e-3},
		{Kind: LinkOutage, Start: 8, End: 9},
		{Kind: LinkOutage, Start: 8.5, End: 9.5},
	}}
	if err := p.Validate(); err != nil {
		t.Fatalf("overlapping same-kind windows must validate cleanly: %v", err)
	}
	cases := []struct {
		at       float64
		loss     float64
		ber      float64
		linkDown bool
	}{
		{2, 0.3, 1e-3, false},  // first windows only
		{7, 0.7, 2e-3, false},  // overlap: max of each
		{8.7, 0.7, 2e-3, true}, // outage overlap ORs
		{12, 0.7, 2e-3, false}, // second windows only
		{20, 0, 0, false},      // outside everything
	}
	for _, tc := range cases {
		st := p.At(tc.at)
		if st.Loss != tc.loss || st.BitErrorRate != tc.ber || st.LinkDown != tc.linkDown {
			t.Errorf("At(%v) = {loss %v ber %v down %v}, want {%v %v %v}",
				tc.at, st.Loss, st.BitErrorRate, st.LinkDown, tc.loss, tc.ber, tc.linkDown)
		}
	}
	if !p.At(7).Corrupting() {
		t.Error("a bit-flip window must report Corrupting")
	}
	if p.At(20).Corrupting() {
		t.Error("a clean instant must not report Corrupting")
	}
}

func TestWindowRateValidation(t *testing.T) {
	for _, w := range []Window{
		{Kind: BitFlip, Start: 0, End: 1, Rate: -0.1},
		{Kind: Duplicate, Start: 0, End: 1, Rate: 1.5},
	} {
		p := &Plan{Windows: []Window{w}}
		if err := p.Validate(); err == nil {
			t.Errorf("rate %v for %v should fail validation", w.Rate, w.Kind)
		}
	}
}

// TestSendValuesLegacyParity: with no corruption windows and fr == nil,
// SendValues must consume the link RNG identically to Send, so seeded
// replays of pre-existing plans stay bit-identical.
func TestSendValuesLegacyParity(t *testing.T) {
	plan := &Plan{Windows: []Window{{Kind: LossBurst, Start: 0, End: 100, Loss: 0.5}}}
	run := func(useValues bool) ([]wireless.Transfer, []error) {
		clock := &Clock{}
		l, err := NewLink(wireless.Model2(), plan, clock, 0, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		var trs []wireless.Transfer
		var errs []error
		for i := 0; i < 60; i++ {
			var tr wireless.Transfer
			var e error
			if useValues {
				tr, _, e = l.SendValues(512, 32, nil)
			} else {
				tr, e = l.Send(512)
			}
			trs = append(trs, tr)
			errs = append(errs, e)
			clock.Advance(1)
		}
		return trs, errs
	}
	trA, errA := run(false)
	trB, errB := run(true)
	for i := range trA {
		if trA[i] != trB[i] || (errA[i] == nil) != (errB[i] == nil) {
			t.Fatalf("send %d: SendValues(fr=nil) diverged from Send on a corruption-free plan", i)
		}
	}
}

// TestFramedSentinelNoUndetectedCorruption is the acceptance sentinel:
// under a bit-flip window, no corrupt frame may reach the consumer
// undetected when framing is armed — every hit is CRC-rejected and
// retried — while the bare wire format delivers the damage.
func TestFramedSentinelNoUndetectedCorruption(t *testing.T) {
	plan := &Plan{Windows: []Window{{Kind: BitFlip, Start: 0, End: 1e6, Rate: 1e-3}}}
	clock := &Clock{}
	l, err := NewLink(wireless.Model2(), plan, clock, 0, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for i := 0; i < 400; i++ {
		_, rx, err := l.SendValues(1024, 64, &Framing{})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if rx.CorruptDelivered != 0 || len(rx.CorruptValues) != 0 {
			t.Fatalf("send %d: framed transport delivered undetected corruption: %+v", i, rx)
		}
		detected += rx.CorruptDetected
		clock.Advance(1)
	}
	if detected == 0 {
		t.Fatal("a 1e-3 bit-flip window over 400 sends should reject at least one frame")
	}

	// The same channel without framing delivers the corruption instead.
	clock2 := &Clock{}
	l2, err := NewLink(wireless.Model2(), plan, clock2, 0, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	deliveredDirty := 0
	for i := 0; i < 400; i++ {
		_, rx, err := l2.SendValues(1024, 64, nil)
		if err != nil {
			t.Fatalf("unframed send %d: %v", i, err)
		}
		deliveredDirty += rx.CorruptDelivered
		if rx.CorruptDetected != 0 {
			t.Fatalf("bare wire has no CRC; it cannot detect (got %d)", rx.CorruptDetected)
		}
		clock2.Advance(1)
	}
	if deliveredDirty == 0 {
		t.Fatal("the bare wire should have delivered corrupt values under the same window")
	}
}

// TestFramedCorruptionCostsEnergy: a CRC-rejected frame consumes wire
// bits, energy and retry budget exactly like a radio loss.
func TestFramedCorruptionCostsEnergy(t *testing.T) {
	plan := &Plan{Windows: []Window{{Kind: BitFlip, Start: 0, End: 1e6, Rate: 2e-3}}}
	clock := &Clock{}
	l, err := NewLink(wireless.Model2(), plan, clock, 0, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	frameBits := int64(256 + wireless.HeaderBits + frame.IntegrityBits)
	sawRejection := false
	for i := 0; i < 100; i++ {
		tr, rx, err := l.SendValues(256, 16, &Framing{})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		attempts := int64(1+rx.CorruptDetected) + int64(rx.Duplicates)
		if tr.WireBits != attempts*frameBits {
			t.Fatalf("send %d: wire bits %d, want %d attempts x %d frame bits (rx %+v)", i, tr.WireBits, attempts, frameBits, rx)
		}
		if rx.CorruptDetected > 0 {
			sawRejection = true
		}
		clock.Advance(1)
	}
	if !sawRejection {
		t.Fatal("2e-3 over 296-bit frames rejects ~45% of first attempts; 100 sends saw none")
	}
}

// TestFramedLossImputesOrDrops: residual frame loss surfaces as Missing
// value indices up to MaxLossFraction, beyond which the transfer fails
// with the transport's usual *wireless.ErrDropped.
func TestFramedLossImputesOrDrops(t *testing.T) {
	plan := &Plan{Windows: []Window{{Kind: LossBurst, Start: 0, End: 100, Loss: 1}}}
	clock := &Clock{}
	l, err := NewLink(wireless.Model2(), plan, clock, 0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Certain loss: every frame dies, which exceeds any loss fraction.
	_, rx, err := l.SendValues(1024, 64, &Framing{})
	var dropped *wireless.ErrDropped
	if !errors.As(err, &dropped) {
		t.Fatalf("total loss err = %v, want *wireless.ErrDropped", err)
	}
	if rx.LostFrames != int(wireless.Packets(1024)) {
		t.Fatalf("lost %d frames, want all %d", rx.LostFrames, wireless.Packets(1024))
	}

	// Partial loss within tolerance: Missing lists the value indices.
	plan2 := &Plan{Windows: []Window{{Kind: LossBurst, Start: 0, End: 100, Loss: 0.45}}}
	clock2 := &Clock{}
	l2, err := NewLink(wireless.Model2(), plan2, clock2, 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	sawMissing := false
	for i := 0; i < 50; i++ {
		_, rx, err := l2.SendValues(1024, 64, &Framing{MaxLossFraction: 0.9})
		if err != nil {
			continue
		}
		if rx.LostFrames > 0 {
			if len(rx.Missing) == 0 {
				t.Fatalf("send %d: %d lost frames but no missing value indices", i, rx.LostFrames)
			}
			for _, v := range rx.Missing {
				if v < 0 || v >= 64 {
					t.Fatalf("missing index %d outside the 64-value payload", v)
				}
			}
			sawMissing = true
		}
		clock2.Advance(1)
	}
	if !sawMissing {
		t.Fatal("45% loss over 50 sends should lose at least one frame within tolerance")
	}
}

// TestUnframedSmears: duplication and reordering on the bare wire smear
// value blocks in place, reported via Moved.
func TestUnframedSmears(t *testing.T) {
	plan := &Plan{Windows: []Window{
		{Kind: Duplicate, Start: 0, End: 100, Rate: 1},
		{Kind: Reorder, Start: 0, End: 100, Rate: 1},
	}}
	clock := &Clock{}
	l, err := NewLink(wireless.Model2(), plan, clock, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, rx, err := l.SendValues(1024, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rx.Duplicates == 0 || rx.Reordered == 0 {
		t.Fatalf("certain dup+reorder produced none: %+v", rx)
	}
	if len(rx.Moved) == 0 {
		t.Fatal("smears must be pinned in Moved")
	}
	for dst, src := range rx.Moved {
		if dst < 0 || dst >= 64 || src < 0 || src >= 64 {
			t.Fatalf("Moved[%d]=%d outside the 64-value payload", dst, src)
		}
	}
	if !rx.Dirty() {
		t.Fatal("smeared payload must be dirty")
	}
}

// A loss-free framed send allocates only the report it returns, also
// when each of its 255 frames arrives twice.
func TestFramedSendAllocatesOnlyItsReport(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	dups := &Plan{Windows: []Window{{Kind: Duplicate, Start: 0, End: 1e6, Rate: 1}}}
	fr := &Framing{}
	const packets = 255
	for _, plan := range []*Plan{nil, dups} {
		l, err := NewLink(wireless.Model2(), plan, &Clock{}, 0, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		send := func() *frame.RxReport {
			_, rx, err := l.SendValues(packets*wireless.MaxPayloadBits, packets*16, fr)
			if err != nil {
				t.Fatal(err)
			}
			return rx
		}
		if rx := send(); rx.LostFrames != 0 || (plan != nil) != (rx.Duplicates == packets) {
			t.Fatalf("plan %v: report %+v, want no loss and %d duplicates under the duplicate window", plan, rx, packets)
		}
		if got := testing.AllocsPerRun(50, func() { send() }); got != 1 {
			t.Errorf("plan %v: a loss-free framed send allocates %.0f times, want 1 (its report)", plan, got)
		}
	}
}

// TestSendValuesDeterministic: identical seeds and clocks replay the
// identical corrupted stream, reports included.
func TestSendValuesDeterministic(t *testing.T) {
	plan, err := Scenario("garbled", 42, 100)
	if err != nil {
		t.Fatal(err)
	}
	run := func(fr *Framing) []frame.RxReport {
		clock := &Clock{}
		l, err := NewLink(wireless.Model2(), plan, clock, 0.05, 2, 21)
		if err != nil {
			t.Fatal(err)
		}
		var out []frame.RxReport
		for i := 0; i < 80; i++ {
			_, rx, _ := l.SendValues(768, 48, fr)
			if rx != nil {
				out = append(out, *rx)
			}
			clock.Advance(1)
		}
		return out
	}
	for _, fr := range []*Framing{nil, {Impute: frame.Linear}} {
		a, b := run(fr), run(fr)
		if len(a) != len(b) {
			t.Fatalf("framing %v: run lengths diverged (%d vs %d)", fr, len(a), len(b))
		}
		for i := range a {
			if a[i].Frames != b[i].Frames || a[i].CorruptDetected != b[i].CorruptDetected ||
				a[i].CorruptDelivered != b[i].CorruptDelivered || a[i].LostFrames != b[i].LostFrames ||
				a[i].Duplicates != b[i].Duplicates || a[i].Reordered != b[i].Reordered {
				t.Fatalf("framing %v, send %d: reports diverged between identical seeded runs\n%+v\n%+v", fr, i, a[i], b[i])
			}
		}
	}
}
