package xpro

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"xpro/internal/adaptive"
	"xpro/internal/faults"
)

// Pinned durable bytes, recorded from seeded runs so that the on-disk
// format cannot drift. ckptHex is a 2-end checkpoint of the flaky crash
// battery (flakyCfg) with DefaultAdaptive after 50 events, and jrnlHex
// the battery's first three journal records without it. tieredCkptHex
// is the checkpoint of a tieredTestEngine armed as in
// TestTieredCheckpointRecoverResume after 25 events through the engine
// and the plan: a 2-hop chain whose hop 1 is dead.
const (
	ckptHex = "7870726f636b707401000000750000000000000032400004000000000000000000000000000000000000000000000000" +
		"003c3f8e24730bf357403fa58713d0aea89a0000000000000073000000000000000300000000000000003f015ffac18a" +
		"0c7000000000000000000000000000000000000000000000000000000000000000009bfc8298"
	tieredCkptHex = "7870726f636b7074010000011500000000000000193ff004000000000000000000000000000000000000000000000000" +
		"0000000000000000000000000000000000000000000000000035000000000000000100000000000000003ef1836f5b8e" +
		"8e520000000000000000000000000000000000000000000000000000000000000000585054533ff00400000000000000" +
		"000100000000000000010000000000000000000000000000000000000002000000000000000000000000000000000000" +
		"0000000000000000000000000000000000000000000000000000000000000000000000000000000002000000033fb480" +
		"0000000000000000000000001800000003000000000140019a0000000000400000000000000000000000000000000000" +
		"0003128a9e20"
	jrnlHex = "58504a310000007500000000000000013fa4800000000000000000000000000000000000000000000000000001000000" +
		"000000000000000000000000000000000000000000000000000000000000000000000000003ea66acbfa501255000000" +
		"0000000000000000000000000000000000000000000000000000000000ec572f9658504a310000007500000000000000" +
		"023fb4800000000000000000000000000000000000000000000000000002000000000000000000000000000000000000" +
		"000000000000000000000000000000000000000000003eb66acbfa501255000000000000000000000000000000000000" +
		"0000000000000000000000000000b9ed90c158504a310000007500000000000000033fbec00000000000000000000000" +
		"000000000000000000000000000003000000000000000000000000000000000000000000000000000000000000000000" +
		"000000000000003ec0d018fbbc0dc0000000000000000000000000000000000000000000000000000000000000000015" +
		"204e50"
)

// The codec keeps the bytes: each recorded record decodes to the state
// it was written from and re-encodes to the same bytes, at the
// published sizes.
func TestDurableRecordBytesUnchanged(t *testing.T) {
	decode := func(s string) []byte {
		t.Helper()
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	check := func(name string, magic, buf []byte, got, want record) {
		t.Helper()
		if fmt.Sprintf("%+v", got.ledgers) != fmt.Sprintf("%+v", want.ledgers) || got.end != want.end {
			t.Errorf("%s: decoded %+v %+v, want %+v %+v", name, got.ledgers, got.end, want.ledgers, want.end)
		}
		if (got.tier == nil) != (want.tier == nil) ||
			got.tier != nil && fmt.Sprintf("%+v", *got.tier) != fmt.Sprintf("%+v", *want.tier) {
			t.Errorf("%s: decoded tier %+v, want %+v", name, got.tier, want.tier)
		}
		out, err := seal(magic, &got)
		if err != nil {
			t.Fatalf("%s: re-encoding: %v", name, err)
		}
		if !bytes.Equal(out, buf) {
			t.Errorf("%s: re-encoded\n %x\nwant\n %x", name, out, buf)
		}
	}

	ckpt := decode(ckptHex)
	if len(ckpt) != CheckpointBytes || CheckpointBytes != 134 {
		t.Fatalf("checkpoint is %d bytes, CheckpointBytes %d, want 134", len(ckpt), CheckpointBytes)
	}
	rec, err := decodeCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	check("2-end checkpoint", checkpointMagic, ckpt, rec, record{
		ledgers: ledgers{seq: 50, energyJ: 3.3140029875000014e-05},
		end: adaptive.EndState{ClockSeconds: 2.001953125, Draws: 60, Estimator: adaptive.EstimatorState{
			Loss: 0.01471795921535668, Outage: 0.04204618379965659, Samples: 115, PendAttempts: 3}},
	})

	tckpt := decode(tieredCkptHex)
	if len(tckpt) != CheckpointBytes+TieredStateBytes(2) || TieredStateBytes(2) != 160 {
		t.Fatalf("tiered checkpoint is %d bytes, TieredStateBytes(2) %d, want 134+160", len(tckpt), TieredStateBytes(2))
	}
	rec, err = decodeCheckpoint(tckpt)
	if err != nil {
		t.Fatal(err)
	}
	check("tiered checkpoint", checkpointMagic, tckpt, rec, record{
		ledgers: ledgers{seq: 25, energyJ: 1.6702096875000003e-05},
		end: adaptive.EndState{ClockSeconds: 1.0009765625,
			Estimator: adaptive.EstimatorState{Samples: 53, PendAttempts: 1}},
		tier: &adaptive.TierState{
			ClockSeconds: 1.0009765625, Steady: 1, Collapses: 1,
			Hops: []adaptive.TierHopState{
				{},
				{Breaker: faults.BreakerSnapshot{State: faults.BreakerOpen, Failures: 3, OpenedAt: 0.080078125},
					Draws: 24, Outages: 3,
					Health: adaptive.HopHealth{Failures: 3, Dead: true, NextProbeAt: 2.2001953125, ProbeInterval: 2}},
			},
		},
	})

	jrnl := decode(jrnlHex)
	if len(jrnl) != 3*JournalRecordBytes || JournalRecordBytes != 129 {
		t.Fatalf("journal is %d bytes, JournalRecordBytes %d, want 3×129", len(jrnl), JournalRecordBytes)
	}
	want := []record{
		{ledgers: ledgers{seq: 1, energyJ: 6.680838750000002e-07}, end: adaptive.EndState{ClockSeconds: 0.0400390625, Draws: 1}},
		{ledgers: ledgers{seq: 2, energyJ: 1.3361677500000003e-06}, end: adaptive.EndState{ClockSeconds: 0.080078125, Draws: 2}},
		{ledgers: ledgers{seq: 3, energyJ: 2.0042516250000006e-06}, end: adaptive.EndState{ClockSeconds: 0.1201171875, Draws: 3}},
	}
	for i, w := range want {
		buf := jrnl[i*JournalRecordBytes : (i+1)*JournalRecordBytes]
		n, got, reason := openRecord(journalMagic, buf)
		if reason != "" || n != JournalRecordBytes {
			t.Fatalf("journal record %d: %q after %d bytes", i, reason, n)
		}
		check(fmt.Sprintf("journal record %d", i), journalMagic, buf, got, w)
	}
	if last, rep, err := decodeDurable(nil, jrnl); err != nil || rep.Seq != 3 || last.end != want[2].end {
		t.Errorf("journal replay: %+v %+v %v", last, rep, err)
	}
}

// One rule decides what a valid record is. Each spoiled record below is
// refused by the encoder, by Engine.Recover of a CRC-valid envelope
// carrying it, and by the in-memory restore, and no refused record
// moves the engine or its tier plan, clock included.
func TestDurableRecordOneRule(t *testing.T) {
	// A light loss burst on hop 0 moves its RNG cursor without killing
	// it, so the chain stays at full height and a record cut to one hop
	// is invalid on its own, not only on this chain.
	eng := tieredTestEngine(t)
	p := armedTieredPlan(t, eng, &TierResilience{Seed: 23, HopPlans: []*FaultPlan{{Windows: []FaultWindow{
		{Kind: "loss-burst", StartSeconds: 0, EndSeconds: 1e6, Loss: 0.1}}}}})
	test := eng.TestSet()
	for i := 0; i < 30; i++ {
		_, _ = eng.ClassifyResult(test[i%len(test)].Samples)
		_, _ = p.ClassifyResult(test[i%len(test)].Samples)
	}
	r := eng.res
	current := func() record {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.recordLocked(eng)
	}
	state := func() string {
		rec := current()
		return fmt.Sprintf("%+v %+v %+v", rec.ledgers, rec.end, *rec.tier)
	}
	good := current()
	if good.tier == nil || good.tier.Steady != 2 {
		t.Fatalf("the run left tier state %+v, want the full 2-hop chain: the hop-count record would be valid on its own", good.tier)
	}
	if good.end.Estimator.Samples == 0 || good.tier.Hops[0].Draws == 0 {
		t.Fatal("the run left the estimator or hop 0's RNG cursor at birth; the check would test little")
	}

	for _, c := range []struct {
		name  string
		spoil func(rec *record)
	}{
		// The six of TestTieredRestoreChecksWholeSnapshot.
		{"unknown breaker", func(rec *record) { rec.tier.Hops[1].Breaker.State = 7 }},
		{"negative failures", func(rec *record) { rec.tier.Hops[1].Breaker.Failures = -1 }},
		{"NaN opened-at", func(rec *record) { rec.tier.Hops[1].Breaker.OpenedAt = math.NaN() }},
		{"RNG cursor", func(rec *record) { rec.tier.Hops[1].Draws = faults.MaxRNGDraws + 1 }},
		{"steady cap", func(rec *record) { rec.tier.Steady = 3 }},
		{"hop count", func(rec *record) { rec.tier.Hops = rec.tier.Hops[:1] }},
		// The tier snapshot's clock, probe schedule, probation and ladder counters.
		{"NaN tier clock", func(rec *record) { rec.tier.ClockSeconds = math.NaN() }},
		{"NaN next probe", func(rec *record) { rec.tier.Hops[1].Health.NextProbeAt = math.NaN() }},
		{"negative probation", func(rec *record) { rec.tier.Hops[1].Health.Probation = -1 }},
		{"negative collapses", func(rec *record) { rec.tier.Collapses = -1 }},
		{"+Inf probe interval", func(rec *record) {
			rec.tier.Hops[1].Health.Dead = true
			rec.tier.Hops[1].Health.ProbeInterval = math.Inf(1)
		}},
		// 2-end records.
		{"NaN clock", func(rec *record) { rec.end.ClockSeconds = math.NaN() }},
		{"estimator loss", func(rec *record) { rec.end.Estimator.Loss = 1.5 }},
		{"2-end RNG cursor", func(rec *record) { rec.end.Draws = faults.MaxRNGDraws + 1 }},
		{"negative energy", func(rec *record) { rec.energyJ = -1e-6 }},
	} {
		rec := good
		ts := *good.tier
		ts.Hops = append([]adaptive.TierHopState(nil), good.tier.Hops...)
		rec.tier = &ts
		c.spoil(&rec)
		before := state()

		if _, err := seal(checkpointMagic, &rec); err == nil {
			t.Errorf("%s: the encoder wrote the record", c.name)
		}
		var w wire // the envelope alone: CRC-valid, values unchecked
		w.envelope(checkpointMagic, &rec)
		if _, err := eng.Recover(bytes.NewReader(w.buf), nil); !errors.Is(err, ErrRecoveryCorrupt) {
			t.Errorf("%s: Recover returned %v, want ErrRecoveryCorrupt", c.name, err)
		}
		r.mu.Lock()
		err := r.restoreLocked(eng, rec, true)
		r.mu.Unlock()
		if err == nil {
			t.Errorf("%s: the in-memory restore applied the record", c.name)
		}
		if after := state(); after != before {
			t.Errorf("%s: a refused record moved the engine or the plan:\n got %s\nwant %s", c.name, after, before)
		}
	}
}

// A warm rejoin keeps both runtimes' clocks, the 2-end one and the
// armed tier plan's: the node lived through the outage. A process-level
// Recover still rewinds both to the record's instants.
func TestNodeDownWarmRejoinKeepsTierClock(t *testing.T) {
	period := eventPeriod(t)
	eng, err := New(Config{Case: "C1", Resilience: DefaultResilience(), FaultPlan: &FaultPlan{
		Seed:    3,
		Windows: []FaultWindow{{Kind: "node-crash", StartSeconds: 5 * period, EndSeconds: 9 * period}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	p := armedTieredPlan(t, eng, &TierResilience{Seed: 5})
	store := NewDurableStore()
	if err := eng.EnableRecovery(store); err != nil {
		t.Fatal(err)
	}
	clocks := func() (float64, float64) {
		eng.res.mu.Lock()
		defer eng.res.mu.Unlock()
		rec := eng.res.recordLocked(eng)
		return rec.end.ClockSeconds, rec.tier.ClockSeconds
	}
	test := eng.TestSet()
	var ckpt, jrnl []byte
	for i := 0; i < 12; i++ {
		if _, err := eng.ClassifyResult(test[i].Samples); err != nil && !errors.Is(err, ErrNodeDown) {
			t.Fatalf("event %d: %v", i, err)
		}
		if _, err := p.ClassifyResult(test[i].Samples); err != nil {
			t.Fatalf("tiered event %d: %v", i, err)
		}
		if i == 3 {
			ckpt, jrnl = store.Checkpoint(), store.Journal()
		}
	}
	if st, _ := eng.SubjectState(); st.Crashes != 1 || st.Recoveries != 1 || st.Seq != 8 {
		t.Fatalf("state %+v, want one warm rejoin after 8 applied events", st)
	}
	end, tier := clocks()
	if end != tier || end != 12*period {
		t.Errorf("after the rejoin the 2-end clock reads %v and the tier clock %v, want both %v", end, tier, 12*period)
	}

	if _, err := eng.Recover(bytes.NewReader(ckpt), bytes.NewReader(jrnl)); err != nil {
		t.Fatal(err)
	}
	rec, _, err := decodeDurable(ckpt, jrnl)
	if err != nil {
		t.Fatal(err)
	}
	end, tier = clocks()
	if end != rec.end.ClockSeconds || tier != rec.tier.ClockSeconds || end != 4*period || tier != 3*period {
		t.Errorf("after Recover the clocks read %v and %v, want the record's %v and %v",
			end, tier, rec.end.ClockSeconds, rec.tier.ClockSeconds)
	}
}

// A store that does not restore leaves the node amnesiac, and says so:
// the rejoin record names the refused store and the journal error
// counter counts it.
func TestNodeDownCorruptStoreRejoin(t *testing.T) {
	period := eventPeriod(t)
	eng, err := New(nodeDownCfg(t, period))
	if err != nil {
		t.Fatal(err)
	}
	store := NewDurableStore()
	if err := eng.EnableRecovery(store); err != nil {
		t.Fatal(err)
	}
	test := eng.TestSet()
	for i := 0; i < 5; i++ {
		if _, err := eng.ClassifyResult(test[i].Samples); err != nil {
			t.Fatal(err)
		}
	}
	store.SetCheckpoint([]byte("not a checkpoint"))
	for i := 5; i < 10; i++ { // crash over events 5..7, rejoin at 8
		eng.ClassifyResult(test[i].Samples)
	}
	st, err := eng.SubjectState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 2 || st.Crashes != 1 || st.Recoveries != 1 {
		t.Errorf("state %+v, want an amnesiac rejoin (seq 2) after one crash", st)
	}
	obs := eng.Observer()
	if got := obs.MetricValue("xpro_journal_errors_total"); got != 1 {
		t.Errorf("xpro_journal_errors_total = %v, want 1", got)
	}
	var details []string
	for _, ev := range obs.Events() {
		if ev.Kind == "node-recover" {
			details = append(details, ev.Detail)
		}
	}
	if len(details) != 1 || details[0] != "amnesiac-corrupt-store" {
		t.Errorf("node-recover records %q, want one amnesiac-corrupt-store", details)
	}
}
