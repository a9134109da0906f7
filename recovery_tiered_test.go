package xpro

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"xpro/internal/adaptive"
	"xpro/internal/faults"
)

// tieredStateFixture is a hand-built extended record exercising every
// field of the extension block.
func tieredStateFixture() record {
	return record{
		ledgers: ledgers{seq: 7, energyJ: 0.5},
		end:     adaptive.EndState{ClockSeconds: 1.25, Draws: 40},
		tier: &adaptive.TierState{
			ClockSeconds: 1.25, Steady: 1,
			Collapses: 1, Recoveries: 0, Rollbacks: 0,
			Hops: []adaptive.TierHopState{
				{Draws: 12, Health: adaptive.HopHealth{Successes: 9}},
				{Breaker: faults.BreakerSnapshot{State: faults.BreakerOpen, Failures: 3, OpenedAt: 1.0},
					Draws: 30, Outages: 4,
					Health: adaptive.HopHealth{Failures: 2, Dead: true,
						NextProbeAt: 1.5, ProbeInterval: 0.25, Probation: 0}},
			},
		},
	}
}

// An extended record survives checkpoint encode→decode with every
// tiered field intact, and the envelope grows by exactly
// TieredStateBytes(hops).
func TestTieredStateCheckpointRoundtrip(t *testing.T) {
	st := tieredStateFixture()
	buf, err := seal(checkpointMagic, &st)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(buf), CheckpointBytes+TieredStateBytes(2); got != want {
		t.Fatalf("extended checkpoint is %d bytes, want %d", got, want)
	}
	back, err := decodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.tier == nil {
		t.Fatal("tiered extension lost in roundtrip")
	}
	if fmt.Sprintf("%+v", *back.tier) != fmt.Sprintf("%+v", *st.tier) {
		t.Fatalf("tiered state mismatch:\n got %+v\nwant %+v", *back.tier, *st.tier)
	}
	back.tier = nil
	st.tier = nil
	if back != st {
		t.Fatalf("core state mismatch:\n got %+v\nwant %+v", back, st)
	}
}

// A v1 core-only record still encodes to the exact legacy sizes and
// roundtrips — the pre-tier on-disk format is unchanged.
func TestTieredStateV1Compat(t *testing.T) {
	st := record{ledgers: ledgers{seq: 3},
		end: adaptive.EndState{ClockSeconds: 0.5, Breaker: faults.BreakerSnapshot{State: faults.BreakerHalfOpen}, Draws: 9}}
	ck, err := seal(checkpointMagic, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck) != CheckpointBytes {
		t.Fatalf("v1 checkpoint is %d bytes, want %d", len(ck), CheckpointBytes)
	}
	jr, err := seal(journalMagic, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(jr) != JournalRecordBytes {
		t.Fatalf("v1 journal record is %d bytes, want %d", len(jr), JournalRecordBytes)
	}
	back, err := decodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if back.tier != nil {
		t.Fatal("v1 record decoded with a tiered extension")
	}
}

// Structural damage anywhere in the extension is corruption, typed and
// matched by ErrRecoveryCorrupt — never a silent partial decode.
func TestTieredStateExtValidation(t *testing.T) {
	fx := tieredStateFixture()
	valid, err := seal(checkpointMagic, &fx)
	if err != nil {
		t.Fatal(err)
	}
	extOff := 9 + 4 + subjectStateBytes // magic + length + v1 core
	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), valid...)
		b = f(b)
		// Re-stamp length + CRC so only the intended damage trips.
		payload := b[9+4 : len(b)-4]
		putU32 := func(off int, v uint32) {
			b[off], b[off+1], b[off+2], b[off+3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		}
		putU32(9, uint32(len(payload)))
		putU32(len(b)-4, crc32.ChecksumIEEE(payload))
		if _, err := decodeCheckpoint(b); !errors.Is(err, ErrRecoveryCorrupt) {
			t.Errorf("%s: got %v, want ErrRecoveryCorrupt", name, err)
		}
	}
	mutate("bad ext magic", func(b []byte) []byte { b[extOff] ^= 0xff; return b })
	mutate("dead flag 2", func(b []byte) []byte {
		// First hop's dead byte: ext magic + header + code+failures+openedAt+draws+2 ladder counters.
		off := extOff + 4 + tieredExtHeaderBytes + 1 + 4 + 8 + 8 + 4 + 4
		b[off] = 2
		return b
	})
	mutate("hop table short", func(b []byte) []byte {
		return append(b[:len(b)-4-tieredHopBytes], b[len(b)-4:]...)
	})
	mutate("zero hops", func(b []byte) []byte {
		off := extOff + 4 + tieredExtHeaderBytes - 4
		b[off], b[off+1], b[off+2], b[off+3] = 0, 0, 0, 0
		return b
	})
}

// A tiered engine's checkpoint carries the extension, and a fresh
// engine armed the same way recovers from it and then reproduces the
// golden (uninterrupted) run event for event.
func TestTieredCheckpointRecoverResume(t *testing.T) {
	cfg := func() *TierResilience {
		return &TierResilience{
			Seed:     23,
			HopPlans: []*FaultPlan{nil, {Windows: []FaultWindow{{Kind: "loss-burst", StartSeconds: 0, EndSeconds: 3, Loss: 0.35}}}},
		}
	}
	type run struct {
		eng *Engine
		p   *TierPlan
	}
	start := func() run {
		eng := tieredTestEngine(t)
		return run{eng, armedTieredPlan(t, eng, cfg())}
	}
	const split, total = 25, 60

	// Golden: one uninterrupted run.
	golden := start()
	test := golden.eng.TestSet()
	outcome := func(r run, i int) string {
		res, err := r.p.ClassifyResult(test[i%len(test)].Samples)
		return fmt.Sprintf("%d %v %+v", i, err, res)
	}
	var want []string
	for i := 0; i < total; i++ {
		want = append(want, outcome(golden, i))
	}

	// Interrupted: serve to the split, checkpoint, die, recover, resume.
	a := start()
	for i := 0; i < split; i++ {
		if got := outcome(a, i); got != want[i] {
			t.Fatalf("pre-crash event %d diverged:\n got %s\nwant %s", i, got, want[i])
		}
	}
	store := NewDurableStore()
	if err := a.eng.Checkpoint(store); err != nil {
		t.Fatal(err)
	}
	aState := tierState(a.p)

	b := start() // the "rebooted node": same Config, same Arm
	if _, err := b.eng.RecoverFrom(store); err != nil {
		t.Fatal(err)
	}
	bState := tierState(b.p)
	if fmt.Sprintf("%+v", bState) != fmt.Sprintf("%+v", aState) {
		t.Fatalf("recovered tiered state mismatch:\n got %+v\nwant %+v", bState, aState)
	}
	for i := split; i < total; i++ {
		if got := outcome(b, i); got != want[i] {
			t.Fatalf("post-recover event %d diverged:\n got %s\nwant %s", i, got, want[i])
		}
	}

	// Final durable states agree with the golden run exactly.
	gs, bs := tierState(golden.p), tierState(b.p)
	if fmt.Sprintf("%+v", bs) != fmt.Sprintf("%+v", gs) {
		t.Fatalf("final tiered state diverged:\n got %+v\nwant %+v", bs, gs)
	}
}

// A record carrying tiered state is rejected — typed, not dropped —
// when the recovering engine has no armed tier plan to receive it.
func TestTieredRecoverNeedsArmedPlan(t *testing.T) {
	src := tieredTestEngine(t)
	p := armedTieredPlan(t, src, &TierResilience{Seed: 3})
	test := src.TestSet()
	for i := 0; i < 30; i++ {
		if _, err := src.ClassifyResult(test[i].Samples); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ClassifyResult(test[i].Samples); err != nil {
			t.Fatal(err)
		}
	}
	store := NewDurableStore()
	if err := src.Checkpoint(store); err != nil {
		t.Fatal(err)
	}
	bare := tieredTestEngine(t)
	for i := 0; i < 5; i++ {
		if _, err := bare.ClassifyResult(test[i].Samples); err != nil {
			t.Fatal(err)
		}
	}
	before, err := bare.SubjectState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.RecoverFrom(store); !errors.Is(err, ErrRecoveryCorrupt) {
		t.Fatalf("got %v, want ErrRecoveryCorrupt (no armed plan)", err)
	}
	// The rejected record leaves the engine untouched.
	after, err := bare.SubjectState()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", after) != fmt.Sprintf("%+v", before) {
		t.Fatalf("rejected record moved the engine:\n got %+v\nwant %+v", after, before)
	}
}

// FuzzTieredRecover hammers the extended decoder: arbitrary bytes must
// either fail typed (ErrRecoveryCorrupt) or decode to a state whose
// re-encoding is bit-identical — the canonical-encoding property the
// crash-replay battery leans on.
func FuzzTieredRecover(f *testing.F) {
	v1, _ := seal(checkpointMagic, &record{})
	fx := tieredStateFixture()
	ext, _ := seal(checkpointMagic, &fx)
	torn := append([]byte(nil), ext[:len(ext)-7]...)
	flipped := append([]byte(nil), ext...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(v1)
	f.Add(ext)
	f.Add(torn)
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrRecoveryCorrupt) {
				t.Fatalf("decode error is not typed: %v", err)
			}
			return
		}
		out, err := seal(checkpointMagic, &st)
		if err != nil {
			t.Fatalf("decoded state fails to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("roundtrip not bit-identical:\n in  %x\n out %x", data, out)
		}
	})
}
