package xpro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// flakyCfg builds the crash-battery Config: a lossy channel (so the
// RNG, retries and breaker all carry state worth recovering) over the
// seeded "flaky" scenario. A fresh FaultPlan is built per call so runs
// never share plan structure.
func flakyCfg(t *testing.T) Config {
	t.Helper()
	plan, err := FaultScenario("flaky", 21, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultResilience()
	rc.BaseLoss = 0.05
	return Config{Case: "C1", Resilience: rc, FaultPlan: plan}
}

type recordedEvent struct {
	Res Result
	Err string
}

func runEvents(t *testing.T, eng *Engine, from, to int) []recordedEvent {
	t.Helper()
	test := eng.TestSet()
	out := make([]recordedEvent, 0, to-from)
	for i := from; i < to; i++ {
		res, err := eng.ClassifyResult(test[i].Samples)
		ev := recordedEvent{Res: res}
		if err != nil {
			ev.Err = err.Error()
		}
		out = append(out, ev)
	}
	return out
}

// The headline acceptance scenario: a run that crashes and recovers
// three times from its durable store must be bit-identical — every
// label, mode, retry count, energy figure and error message — to an
// uninterrupted run of the same seed, and the final durable subject
// state must match exactly. No event is lost, none is served twice.
func TestRecoverBitIdenticalAcrossCrashCycles(t *testing.T) {
	const n = 60
	golden, err := New(flakyCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	want := runEvents(t, golden, 0, n)

	store := NewDurableStore()
	eng, err := New(flakyCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableRecovery(store); err != nil {
		t.Fatal(err)
	}
	var got []recordedEvent
	cuts := []int{0, 15, 30, 45, n}
	for c := 0; c+1 < len(cuts); c++ {
		if c > 0 {
			// Crash: the process dies with the engine's volatile state.
			// A new process rebuilds the engine from the same Config and
			// recovers the subject from the durable store.
			eng, err = New(flakyCfg(t))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.RecoverFrom(store)
			if err != nil {
				t.Fatalf("cycle %d: RecoverFrom: %v", c, err)
			}
			if rep.Seq != uint64(cuts[c]) {
				t.Fatalf("cycle %d: recovered through event %d, want %d", c, rep.Seq, cuts[c])
			}
		}
		got = append(got, runEvents(t, eng, cuts[c], cuts[c+1])...)
	}

	if len(got) != n {
		t.Fatalf("crash-cycled run produced %d events, want %d (lost or duplicated work)", len(got), n)
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("event %d diverged after crash/recover:\n  golden:    %+v\n  recovered: %+v", i, want[i], got[i])
		}
	}

	gs, err := golden.SubjectState()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := eng.SubjectState()
	if err != nil {
		t.Fatal(err)
	}
	if gs != rs {
		t.Errorf("final subject state diverged:\n  golden:    %+v\n  recovered: %+v", gs, rs)
	}
	if gs.Seq != n {
		t.Errorf("golden seq = %d, want %d", gs.Seq, n)
	}
}

// A checkpoint alone (no journal) must also restore exactly: the
// compaction path loses nothing.
func TestRecoverFromCheckpointOnly(t *testing.T) {
	golden, err := New(flakyCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	want := runEvents(t, golden, 0, 30)

	eng, err := New(flakyCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	got := runEvents(t, eng, 0, 20)
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != CheckpointBytes {
		t.Errorf("checkpoint is %d bytes, want %d", buf.Len(), CheckpointBytes)
	}

	eng2, err := New(flakyCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng2.Recover(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointSeq != 20 || rep.Seq != 20 || rep.JournalRecords != 0 || rep.TornTail {
		t.Errorf("report = %+v, want checkpoint-only through seq 20", rep)
	}
	got = append(got, runEvents(t, eng2, 20, 30)...)
	if !reflect.DeepEqual(want, got) {
		t.Error("checkpoint-only recovery diverged from the golden run")
	}
}

// A journal whose last record was torn mid-write (the power went out
// during the append) is not corruption: recovery keeps everything up
// to the tear and reports TornTail.
func TestRecoverTornTailTolerated(t *testing.T) {
	store := NewDurableStore()
	eng, err := New(flakyCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableRecovery(store); err != nil {
		t.Fatal(err)
	}
	runEvents(t, eng, 0, 10)

	jrnl := store.Journal()
	if len(jrnl) != 10*JournalRecordBytes {
		t.Fatalf("journal is %d bytes, want %d", len(jrnl), 10*JournalRecordBytes)
	}
	torn := jrnl[:len(jrnl)-JournalRecordBytes/2] // half the final record

	eng2, err := New(flakyCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng2.Recover(bytes.NewReader(store.Checkpoint()), bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail must recover, got %v", err)
	}
	if !rep.TornTail || rep.Seq != 9 || rep.JournalRecords != 9 {
		t.Errorf("report = %+v, want torn tail with 9 intact records", rep)
	}
	st, err := eng2.SubjectState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 9 {
		t.Errorf("recovered seq = %d, want 9 (event 10 was lost to the tear)", st.Seq)
	}
}

// Structural damage — a flipped bit with intact records after it, a
// bad checkpoint, a sequence gap, a duplicated record — must surface
// as a typed error matching ErrRecoveryCorrupt and leave the engine
// untouched. Silent adoption of a damaged ledger is the one
// unforgivable outcome.
func TestRecoverCorruptionTyped(t *testing.T) {
	store := NewDurableStore()
	eng, err := New(flakyCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableRecovery(store); err != nil {
		t.Fatal(err)
	}
	runEvents(t, eng, 0, 10)
	ckpt, jrnl := store.Checkpoint(), store.Journal()

	fresh := func() *Engine {
		e, err := New(flakyCfg(t))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	wantCorrupt := func(name, section string, ckpt, jrnl []byte) {
		t.Helper()
		e := fresh()
		before, _ := e.SubjectState()
		_, err := e.Recover(bytes.NewReader(ckpt), bytes.NewReader(jrnl))
		if !errors.Is(err, ErrRecoveryCorrupt) {
			t.Fatalf("%s: err = %v, want ErrRecoveryCorrupt match", name, err)
		}
		var re *RecoveryError
		if !errors.As(err, &re) {
			t.Fatalf("%s: err = %T, want *RecoveryError", name, err)
		}
		if re.Section != section {
			t.Errorf("%s: Section = %q, want %q", name, re.Section, section)
		}
		after, _ := e.SubjectState()
		if before != after {
			t.Errorf("%s: failed recovery mutated the engine", name)
		}
	}

	// Mid-journal bit flip: record 3's payload, with 7 intact records
	// after it — damage, not a torn tail.
	flipped := append([]byte(nil), jrnl...)
	flipped[2*JournalRecordBytes+10] ^= 0x40
	wantCorrupt("mid-journal flip", "journal", ckpt, flipped)

	// Checkpoint bit flip.
	badCkpt := append([]byte(nil), ckpt...)
	badCkpt[len(badCkpt)/2] ^= 0x01
	wantCorrupt("checkpoint flip", "checkpoint", badCkpt, jrnl)

	// Sequence gap: drop record 4 (seq 4) wholesale — every remaining
	// record is CRC-intact, but the chain skips from 3 to 5.
	gap := append([]byte(nil), jrnl[:3*JournalRecordBytes]...)
	gap = append(gap, jrnl[4*JournalRecordBytes:]...)
	wantCorrupt("sequence gap", "journal", ckpt, gap)

	// Duplicate record: record 5 appended twice (a replayed write).
	dup := append([]byte(nil), jrnl[:5*JournalRecordBytes]...)
	dup = append(dup, jrnl[4*JournalRecordBytes:5*JournalRecordBytes]...)
	wantCorrupt("duplicate record", "journal", ckpt, dup)

	// Nothing durable at all.
	wantCorrupt("empty store", "checkpoint", nil, nil)
}

// Recovery calls on an engine without the fault-tolerance layer are
// rejected with a clear error — there is no durable subject state.
func TestRecoverNeedsResilience(t *testing.T) {
	eng, err := New(Config{Case: "C1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SubjectState(); err == nil {
		t.Error("SubjectState on a plain engine must error")
	}
	if err := eng.Checkpoint(&bytes.Buffer{}); err == nil {
		t.Error("Checkpoint on a plain engine must error")
	}
	if err := eng.EnableRecovery(NewDurableStore()); err == nil {
		t.Error("EnableRecovery on a plain engine must error")
	}
	if _, err := eng.Recover(nil, nil); err == nil {
		t.Error("Recover on a plain engine must error")
	}

	res, err := New(flakyCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.RecoverFrom(nil); err == nil {
		t.Error("RecoverFrom(nil) must error")
	}
	if err := res.EnableRecovery(nil); err == nil {
		t.Error("EnableRecovery(nil) must error")
	}
}

// nodeDownCfg schedules an explicit hard crash over events 5..7 and an
// ordered reboot over events 12..13 of the modeled timeline (event i
// arrives at i × period).
func nodeDownCfg(t *testing.T, period float64) Config {
	t.Helper()
	return Config{Case: "C1", Resilience: DefaultResilience(), FaultPlan: &FaultPlan{
		Seed: 3,
		Windows: []FaultWindow{
			{Kind: "node-crash", StartSeconds: 5 * period, EndSeconds: 8 * period},
			{Kind: "reboot", StartSeconds: 12 * period, EndSeconds: 14 * period},
		},
	}}
}

func eventPeriod(t *testing.T) float64 {
	t.Helper()
	probe, err := New(Config{Case: "C1", Resilience: DefaultResilience()})
	if err != nil {
		t.Fatal(err)
	}
	if probe.res == nil || !(probe.sys().EventsPerSecond() > 0) {
		t.Fatal("probe engine has no event period")
	}
	return 1 / probe.sys().EventsPerSecond()
}

// In-timeline crash/reboot windows: events inside the window fail fast
// with a typed ErrNodeDown carrying the window bounds, and the node
// rejoins warm from its durable store — sequence numbers and ledgers
// continue where the last applied event left them.
func TestNodeDownFailFastAndWarmRejoin(t *testing.T) {
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
	obs := eng.Observer()

	var downErrs []*NodeDownError
	served := 0
	for i := 0; i < 16; i++ {
		_, err := eng.ClassifyResult(test[i].Samples)
		var nde *NodeDownError
		switch {
		case errors.As(err, &nde):
			if !errors.Is(err, ErrNodeDown) {
				t.Fatalf("event %d: *NodeDownError does not match ErrNodeDown", i)
			}
			downErrs = append(downErrs, nde)
		case err != nil:
			t.Fatalf("event %d: %v", i, err)
		default:
			served++
		}
	}
	if len(downErrs) != 5 { // events 5,6,7 (crash) and 12,13 (reboot)
		t.Fatalf("node-down events = %d, want 5", len(downErrs))
	}
	first, reboot := downErrs[0], downErrs[3]
	if first.Graceful || first.AtSeconds != 5*period || first.UntilSeconds != 8*period {
		t.Errorf("crash error = %+v, want hard crash over [%v,%v)", first, 5*period, 8*period)
	}
	if !reboot.Graceful || reboot.AtSeconds != 12*period || reboot.UntilSeconds != 14*period {
		t.Errorf("reboot error = %+v, want graceful reboot over [%v,%v)", reboot, 12*period, 14*period)
	}

	st, err := eng.SubjectState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != uint64(served) || served != 11 {
		t.Errorf("seq = %d after %d served events, want 11 (warm rejoin continues the ledger)", st.Seq, served)
	}
	if st.Crashes != 2 || st.Recoveries != 2 {
		t.Errorf("crashes/recoveries = %d/%d, want 2/2", st.Crashes, st.Recoveries)
	}
	if got := obs.MetricValue("xpro_node_down_total"); got != 5 {
		t.Errorf("xpro_node_down_total = %v, want 5", got)
	}
	if got := obs.MetricValue("xpro_node_crashes_total"); got != 2 {
		t.Errorf("xpro_node_crashes_total = %v, want 2", got)
	}
	if got := obs.MetricValue("xpro_node_recoveries_total"); got != 2 {
		t.Errorf("xpro_node_recoveries_total = %v, want 2", got)
	}
}

// Without a durable store the node rejoins amnesiac: the subject
// ledger restarts from zero, but the crash bookkeeping — the fleet's
// view of the node — survives.
func TestNodeDownAmnesiacRejoin(t *testing.T) {
	period := eventPeriod(t)
	eng, err := New(nodeDownCfg(t, period))
	if err != nil {
		t.Fatal(err)
	}
	test := eng.TestSet()
	for i := 0; i < 10; i++ { // through the crash window and the rejoin
		eng.ClassifyResult(test[i].Samples)
	}
	st, err := eng.SubjectState()
	if err != nil {
		t.Fatal(err)
	}
	// Events 0..4 served (seq 5), 5..7 down, 8..9 served after an
	// amnesiac rejoin reset the ledger: seq restarts at 1, 2.
	if st.Seq != 2 {
		t.Errorf("seq = %d, want 2 (amnesiac rejoin resets the ledger)", st.Seq)
	}
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Errorf("crashes/recoveries = %d/%d, want 1/1", st.Crashes, st.Recoveries)
	}
}

// Liveness must be visible operationally: Health flips to "down"
// inside the window, the SLO report carries the crash counters and
// checkpoint age, and the network rolls every node up.
func TestHealthAndSLOThroughCrashWindow(t *testing.T) {
	period := eventPeriod(t)
	eng, err := New(nodeDownCfg(t, period))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableRecovery(NewDurableStore()); err != nil {
		t.Fatal(err)
	}
	steady, err := New(Config{Case: "C1", Resilience: DefaultResilience()})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(map[string]*Engine{"wrist": eng, "chest": steady})
	if err != nil {
		t.Fatal(err)
	}
	test := eng.TestSet()

	if h := eng.Health(); !h.Live || h.Status == "down" {
		t.Errorf("healthy engine reports %+v", h)
	}
	for i := 0; i < 6; i++ { // events 0..4 served, 5 hits the crash window
		eng.ClassifyResult(test[i].Samples)
	}
	h := eng.Health()
	if h.Live || h.Status != "down" || h.Crashes != 1 || h.Recoveries != 0 {
		t.Errorf("mid-crash health = %+v, want down with 1 crash", h)
	}
	rep := eng.SLOReport()
	if rep.Live || rep.Crashes != 1 {
		t.Errorf("mid-crash SLO report: Live=%v Crashes=%d", rep.Live, rep.Crashes)
	}
	if rep.LastCheckpointAgeSeconds < 0 {
		t.Errorf("checkpoint age = %v, want >= 0 with a store attached", rep.LastCheckpointAgeSeconds)
	}
	if s := steady.SLOReport(); s.LastCheckpointAgeSeconds != -1 {
		t.Errorf("storeless engine checkpoint age = %v, want -1", s.LastCheckpointAgeSeconds)
	}

	nh := net.Health()
	if nh.Live || nh.Status != "degraded" || nh.Crashes != 1 {
		t.Errorf("network health with one node down = %+v, want degraded", nh)
	}
	nrep, err := net.SLOReport()
	if err != nil {
		t.Fatal(err)
	}
	if nrep.LiveNodes != 1 || nrep.Crashes != 1 {
		t.Errorf("network SLO: LiveNodes=%d Crashes=%d, want 1/1", nrep.LiveNodes, nrep.Crashes)
	}
	netRep, err := net.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(netRep.DownNodes, []string{"wrist"}) {
		t.Errorf("DownNodes = %v, want [wrist]", netRep.DownNodes)
	}

	for i := 6; i < 10; i++ { // ride out the window and rejoin
		eng.ClassifyResult(test[i].Samples)
	}
	h = eng.Health()
	if !h.Live || h.Status == "down" || h.Recoveries != 1 {
		t.Errorf("post-rejoin health = %+v, want live with 1 recovery", h)
	}
	netRep, err = net.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(netRep.DownNodes) != 0 {
		t.Errorf("DownNodes after rejoin = %v, want empty", netRep.DownNodes)
	}
}

// rebootStormEngines builds one engine per subject under the
// reboot-storm chaos scenario, horizon sized to the event count.
func rebootStormEngines(t *testing.T, events int) map[string]*Engine {
	t.Helper()
	period := eventPeriod(t)
	subjects := []string{"ankle", "chest", "wrist"}
	engines := make(map[string]*Engine, len(subjects))
	for i, name := range subjects {
		plan, err := FaultScenario("reboot-storm", int64(100+i), float64(events)*period)
		if err != nil {
			t.Fatal(err)
		}
		rc := DefaultResilience()
		rc.BaseLoss = 0.05
		eng, err := New(Config{Case: "C1", Resilience: rc, FaultPlan: plan})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.EnableRecovery(NewDurableStore()); err != nil {
			t.Fatal(err)
		}
		engines[name] = eng
	}
	return engines
}

// The reboot-storm fleet soak: three subjects crash and rejoin on
// their own seeded schedules while the fleet serves them. Every
// submitted event must resolve exactly once — served, quarantined,
// node-down or errored — with nothing lost, nothing duplicated, and
// the outcome counters must reconcile exactly with the submissions.
func TestFleetRebootStormNoLostOrDuplicated(t *testing.T) {
	const events = 120
	engines := rebootStormEngines(t, events)
	net, err := NewNetwork(engines)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := net.Serve(ServeOptions{Workers: 3, QueueDepth: events + 1})
	if err != nil {
		t.Fatal(err)
	}
	test := engines["wrist"].TestSet()
	ctx := context.Background()

	type chans struct {
		subject string
		ch      <-chan FleetResult
	}
	var pending []chans
	submitted := map[string]int{}
	for i := 0; i < events; i++ {
		for _, subject := range fleet.Subjects() {
			ch, err := fleet.Submit(ctx, subject, test[i].Samples)
			if err != nil {
				t.Fatalf("submit %s/%d: %v", subject, i, err)
			}
			submitted[subject]++
			pending = append(pending, chans{subject, ch})
		}
	}

	resolved := map[string]int{}
	var served, suspect, down, other int
	for _, p := range pending {
		r := <-p.ch // every accepted submission resolves exactly once
		if r.Subject != p.subject {
			t.Fatalf("result for %q delivered on %q's channel", r.Subject, p.subject)
		}
		resolved[p.subject]++
		switch {
		case r.Err == nil:
			served++
		case errors.Is(r.Err, ErrSuspectData):
			suspect++
		case errors.Is(r.Err, ErrNodeDown):
			down++
		default:
			other++
		}
	}
	fleet.Close()
	fleet.Close() // idempotent under the pool's Once pair

	if !reflect.DeepEqual(submitted, resolved) {
		t.Errorf("lost or duplicated events: submitted %v, resolved %v", submitted, resolved)
	}
	if served+suspect+down+other != len(engines)*events {
		t.Errorf("outcome accounting: %d+%d+%d+%d != %d", served, suspect, down, other, len(engines)*events)
	}
	if down == 0 {
		t.Error("reboot storm produced no node-down rejections — the scenario did not engage")
	}

	var crashes, recoveries, seq uint64
	for name, eng := range engines {
		st, err := eng.SubjectState()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		crashes += st.Crashes
		recoveries += st.Recoveries
		seq += st.Seq
	}
	if crashes == 0 || recoveries == 0 {
		t.Errorf("storm crashes/recoveries = %d/%d, want both > 0", crashes, recoveries)
	}
	// Warm rejoins: every applied event holds a ledger slot; the summed
	// sequence numbers must equal the events that actually applied.
	if want := uint64(served + suspect + other); seq != want {
		t.Errorf("summed seq = %d, want %d (every applied event exactly once)", seq, want)
	}

	obs := net.Observer()
	if got := obs.MetricValue("xpro_fleet_node_down_total"); got != float64(down) {
		t.Errorf("xpro_fleet_node_down_total = %v, want %d", got, down)
	}
	sub := obs.MetricValue("xpro_fleet_submitted_total")
	acc := obs.MetricValue("xpro_fleet_served_total") +
		obs.MetricValue("xpro_fleet_suspect_total") +
		obs.MetricValue("xpro_fleet_errors_total")
	if sub != float64(len(engines)*events) || acc != sub {
		t.Errorf("fleet counters do not reconcile: submitted %v, accounted %v", sub, acc)
	}
}

// The fleet soak must also be deterministic: serving the same seeded
// engines through the fleet yields the same per-subject event
// sequence as serving them directly — sharded concurrency cannot
// reorder or alter a subject's timeline.
func TestFleetRebootStormMatchesSerial(t *testing.T) {
	const events = 60
	record := func(viaFleet bool) map[string][]recordedEvent {
		engines := rebootStormEngines(t, events)
		out := map[string][]recordedEvent{}
		if !viaFleet {
			for name, eng := range engines {
				out[name] = runEvents(t, eng, 0, events)
			}
			return out
		}
		net, err := NewNetwork(engines)
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := net.Serve(ServeOptions{Workers: 2, QueueDepth: events + 1})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		test := engines["wrist"].TestSet()
		for i := 0; i < events; i++ {
			for _, rq := range fleet.ClassifyBatch(context.Background(), []FleetRequest{
				{Subject: "ankle", Samples: test[i].Samples},
				{Subject: "chest", Samples: test[i].Samples},
				{Subject: "wrist", Samples: test[i].Samples},
			}) {
				ev := recordedEvent{Res: rq.Result}
				if rq.Err != nil {
					ev.Err = rq.Err.Error()
				}
				out[rq.Subject] = append(out[rq.Subject], ev)
			}
		}
		return out
	}
	serial, fleet := record(false), record(true)
	if !reflect.DeepEqual(serial, fleet) {
		t.Error("fleet serving diverged from the serial timeline")
	}
}

// A panicking classification is contained: the caller gets a typed
// *WorkerPanicError, the panic counter advances, and the fleet keeps
// serving other events.
func TestFleetPanicIsolation(t *testing.T) {
	eng, err := New(Config{Case: "C1", Resilience: DefaultResilience()})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(map[string]*Engine{"wrist": eng})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := net.Serve(ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	// Drive the bulkhead directly with a nil engine — the hard kind of
	// blow-up a future code path could feed a worker.
	out := fleet.run(context.Background(), nil, "ghost", nil)
	if !errors.Is(out.Err, ErrWorkerPanic) {
		t.Fatalf("panicking run returned %v, want ErrWorkerPanic match", out.Err)
	}
	var wpe *WorkerPanicError
	if !errors.As(out.Err, &wpe) || wpe.Subject != "ghost" || wpe.Value == nil {
		t.Fatalf("panic error = %+v", out.Err)
	}
	if got := net.Observer().MetricValue("xpro_panics_total"); got != 1 {
		t.Errorf("xpro_panics_total = %v, want 1", got)
	}

	// The fleet still serves.
	res, err := fleet.Classify(context.Background(), "wrist", eng.TestSet()[0].Samples)
	if err != nil {
		t.Fatalf("fleet stopped serving after a contained panic: %v", err)
	}
	if res.Label != 0 && res.Label != 1 {
		t.Errorf("label %d outside {0,1}", res.Label)
	}
}

// ExampleEngine_Recover is the restart recipe: persist through a
// DurableStore, rebuild the engine from the same Config after the
// crash, and recover — the timeline resumes exactly where it stopped.
func ExampleEngine_Recover() {
	plan, _ := FaultScenario("flaky", 7, 2.0)
	cfg := Config{Case: "C1", Resilience: DefaultResilience(), FaultPlan: plan}
	eng, _ := New(cfg)
	store := NewDurableStore()
	eng.EnableRecovery(store) // checkpoint now, journal every event
	test := eng.TestSet()
	for i := 0; i < 10; i++ {
		eng.ClassifyResult(test[i].Samples)
	}

	// The process dies here. On restart, rebuild and recover.
	plan2, _ := FaultScenario("flaky", 7, 2.0)
	eng2, _ := New(Config{Case: "C1", Resilience: DefaultResilience(), FaultPlan: plan2})
	rep, _ := eng2.RecoverFrom(store)
	st, _ := eng2.SubjectState()
	fmt.Printf("recovered through event %d (journal records: %d, seq: %d)\n",
		rep.Seq, rep.JournalRecords, st.Seq)
	// Output:
	// recovered through event 10 (journal records: 10, seq: 10)
}

// FuzzRecoverJournal hammers the durable-state decoder with mutated
// checkpoint/journal bytes: every input must yield either a valid
// state, a torn-tail report, or a typed error matching
// ErrRecoveryCorrupt — never a panic, never a state that fails
// re-validation.
func FuzzRecoverJournal(f *testing.F) {
	store := NewDurableStore()
	plan, err := faultScenarioForFuzz()
	if err != nil {
		f.Fatal(err)
	}
	rc := DefaultResilience()
	rc.BaseLoss = 0.05
	eng, err := New(Config{Case: "C1", Resilience: rc, FaultPlan: plan})
	if err != nil {
		f.Fatal(err)
	}
	if err := eng.EnableRecovery(store); err != nil {
		f.Fatal(err)
	}
	test := eng.TestSet()
	for i := 0; i < 8; i++ {
		eng.ClassifyResult(test[i].Samples)
	}
	ckpt, jrnl := store.Checkpoint(), store.Journal()
	f.Add(ckpt, jrnl)
	f.Add(ckpt, []byte(nil))
	f.Add([]byte(nil), jrnl)
	f.Add(ckpt, jrnl[:len(jrnl)-13]) // torn tail
	f.Add(ckpt[:7], jrnl[3:])
	flipped := append([]byte(nil), jrnl...)
	flipped[JournalRecordBytes/2] ^= 0x80
	f.Add(ckpt, flipped)

	f.Fuzz(func(t *testing.T, ckpt, jrnl []byte) {
		st, rep, err := decodeDurable(ckpt, jrnl)
		if err != nil {
			if !errors.Is(err, ErrRecoveryCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Whatever decoded must survive re-encoding: the validation the
		// decoder applied is the same one the encoder enforces.
		if _, eerr := seal(journalMagic, &st); eerr != nil {
			t.Fatalf("decoded state fails re-validation: %v (%+v, report %+v)", eerr, st, rep)
		}
	})
}

// faultScenarioForFuzz avoids the *testing.T-taking helper: fuzz seed
// setup only has *testing.F.
func faultScenarioForFuzz() (*FaultPlan, error) {
	return FaultScenario("flaky", 21, 2.0)
}

// A restarted engine must also be able to keep journaling through the
// same store across many cycles without the store growing unboundedly:
// RecoverFrom compacts (fresh checkpoint, truncated journal).
func TestRecoverFromCompactsStore(t *testing.T) {
	store := NewDurableStore()
	eng, err := New(flakyCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableRecovery(store); err != nil {
		t.Fatal(err)
	}
	runEvents(t, eng, 0, 20)
	if len(store.Journal()) != 20*JournalRecordBytes {
		t.Fatalf("journal = %d bytes before compaction", len(store.Journal()))
	}

	eng2, err := New(flakyCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.RecoverFrom(store); err != nil {
		t.Fatal(err)
	}
	if got := store.SizeBytes(); got != CheckpointBytes {
		t.Errorf("store after compaction = %d bytes, want one checkpoint (%d)", got, CheckpointBytes)
	}
	runEvents(t, eng2, 20, 25)
	if len(store.Journal()) != 5*JournalRecordBytes {
		t.Errorf("journal after restart = %d bytes, want 5 records", len(store.Journal()))
	}
}
