package xpro

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"xpro/internal/faults"
	"xpro/internal/partition"
)

// segs returns the first n test segments of e as raw sample slices.
func segsOf(e *Engine, n int) [][]float64 {
	test := e.TestSet()
	if n > len(test) {
		n = len(test)
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = test[i].Samples
	}
	return out
}

// TestClassifyBatchParallelMatchesSequential is the core equivalence
// property: for every experiment case, fanning a batch across workers
// yields labels bit-identical to the sequential per-segment path and
// to ClassifyBatch's streaming path. Run it under -race -cpu 1,4,8.
func TestClassifyBatchParallelMatchesSequential(t *testing.T) {
	for _, ci := range Cases() {
		sym := ci.Symbol
		t.Run(sym, func(t *testing.T) {
			e, err := New(Config{Case: sym})
			if err != nil {
				t.Fatal(err)
			}
			segments := segsOf(e, 40)
			want := make([]int, len(segments))
			for i, s := range segments {
				if want[i], err = e.Classify(s); err != nil {
					t.Fatalf("sequential segment %d: %v", i, err)
				}
			}
			batch, err := e.ClassifyBatch(segments)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch, want) {
				t.Fatalf("ClassifyBatch diverged from sequential:\n got %v\nwant %v", batch, want)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				got, err := e.ClassifyBatchParallel(context.Background(), segments, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d diverged from sequential:\n got %v\nwant %v", workers, got, want)
				}
			}
		})
	}
}

// TestClassifyBatchParallelResilientReplay: on a resilient engine the
// parallel batch degenerates to the serial modeled timeline, so two
// engines built from the same seeded fault plan produce identical
// result sequences regardless of the requested parallelism.
func TestClassifyBatchParallelResilientReplay(t *testing.T) {
	plan, err := FaultScenario("bursty", 13, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Engine {
		e, err := New(Config{Case: "C1", FaultPlan: plan})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(), mk()
	segments := segsOf(a, 60)
	la, err := a.ClassifyBatchParallel(context.Background(), segments, 8)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := b.ClassifyBatchParallel(context.Background(), segments, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(la, lb) {
		t.Fatalf("seeded resilient replay diverged across parallelism:\n 8 workers: %v\n 1 worker:  %v", la, lb)
	}
}

// TestStreamOrderedUnderParallelism: StreamParallel delivers results
// in input order for any worker count, with labels identical to the
// sequential stream.
func TestStreamOrderedUnderParallelism(t *testing.T) {
	e, err := New(Config{Case: "C1"})
	if err != nil {
		t.Fatal(err)
	}
	segments := segsOf(e, 120)
	want := make([]int, len(segments))
	for i, s := range segments {
		if want[i], err = e.Classify(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		in := make(chan []float64)
		go func() {
			defer close(in)
			for _, s := range segments {
				in <- s
			}
		}()
		next := 0
		for r := range e.StreamParallel(context.Background(), in, workers) {
			if r.Err != nil {
				t.Fatalf("workers=%d index %d: %v", workers, r.Index, r.Err)
			}
			if r.Index != next {
				t.Fatalf("workers=%d: got index %d, want %d (out of order)", workers, r.Index, next)
			}
			if r.Result.Label != want[r.Index] {
				t.Fatalf("workers=%d index %d: label %d, want %d", workers, r.Index, r.Result.Label, want[r.Index])
			}
			next++
		}
		if next != len(segments) {
			t.Fatalf("workers=%d: stream delivered %d results, want %d", workers, next, len(segments))
		}
	}
}

// TestHotSwapDuringParallelBatch is the swap-under-load property: an
// adaptive-style re-cut in the middle of a parallel batch never yields
// a result from a half-swapped cut. Every event reads the active
// system through one atomic load, so each label must equal what one of
// the two complete cuts computes — the race detector additionally
// verifies the swap itself is clean.
func TestHotSwapDuringParallelBatch(t *testing.T) {
	e, err := New(Config{Case: "C1"})
	if err != nil {
		t.Fatal(err)
	}
	alt, err := e.static.WithPlacement(partition.InSensor(e.graph))
	if err != nil {
		t.Fatal(err)
	}
	segments := segsOf(e, 60)

	wantStatic := make([]int, len(segments))
	for i, s := range segments {
		if wantStatic[i], err = e.Classify(s); err != nil {
			t.Fatal(err)
		}
	}
	e.active.Store(alt)
	e.epoch.Add(1)
	wantAlt := make([]int, len(segments))
	for i, s := range segments {
		if wantAlt[i], err = e.Classify(s); err != nil {
			t.Fatal(err)
		}
	}
	e.active.Store(e.static)
	e.epoch.Add(1)

	// Flip the active cut continuously while parallel batches run.
	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		cur := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			if cur {
				e.active.Store(e.static)
			} else {
				e.active.Store(alt)
			}
			e.epoch.Add(1)
			cur = !cur
		}
	}()
	for round := 0; round < 4; round++ {
		got, err := e.ClassifyBatchParallel(context.Background(), segments, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i, label := range got {
			if label != wantStatic[i] && label != wantAlt[i] {
				t.Fatalf("round %d segment %d: label %d comes from neither complete cut (static %d, in-sensor %d)",
					round, i, label, wantStatic[i], wantAlt[i])
			}
		}
	}
	close(stop)
	<-flipped
	e.active.Store(e.static)
}

// fleetPair builds a two-subject network and its fleet.
func fleetPair(t *testing.T, opt ServeOptions) (*Network, *Fleet, map[string]*Engine) {
	t.Helper()
	engines := map[string]*Engine{}
	for name, sym := range map[string]string{"chest": "C1", "wrist": "M1"} {
		e, err := New(Config{Case: sym})
		if err != nil {
			t.Fatal(err)
		}
		engines[name] = e
	}
	n, err := NewNetwork(engines)
	if err != nil {
		t.Fatal(err)
	}
	f, err := n.Serve(opt)
	if err != nil {
		t.Fatal(err)
	}
	return n, f, engines
}

// TestFleetServeMatchesDirect: results served through the fleet equal
// direct engine calls, per subject, in submission order.
func TestFleetServeMatchesDirect(t *testing.T) {
	_, f, engines := fleetPair(t, ServeOptions{Workers: 4, QueueDepth: 128})
	defer f.Close()

	var reqs []FleetRequest
	want := map[string][]int{}
	for name, e := range engines {
		for _, s := range segsOf(e, 20) {
			label, err := e.Classify(s)
			if err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], label)
			reqs = append(reqs, FleetRequest{Subject: name, Samples: s})
		}
	}
	results := f.ClassifyBatch(context.Background(), reqs)
	got := map[string][]int{}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d (%s): %v", i, r.Subject, r.Err)
		}
		got[r.Subject] = append(got[r.Subject], r.Result.Label)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet labels diverged from direct calls:\n got %v\nwant %v", got, want)
	}
	if _, err := f.Submit(context.Background(), "nobody", nil); err == nil {
		t.Fatal("submit for unknown subject succeeded")
	}
}

// TestFleetOverloadReturnsTyped: a full bounded queue rejects with
// ErrOverloaded immediately — no hang — and nothing is enqueued for
// the rejected submission.
func TestFleetOverloadReturnsTyped(t *testing.T) {
	_, f, engines := fleetPair(t, ServeOptions{Workers: 1, QueueDepth: 1})
	defer f.Close()
	seg := segsOf(engines["chest"], 1)[0]

	// Occupy the single worker with a job we control, then fill the
	// depth-1 queue: the next submission must bounce.
	release := make(chan struct{})
	started := make(chan struct{})
	if err := f.pool.Submit(0, func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	ch, err := f.Submit(context.Background(), "chest", seg)
	if err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	if _, err := f.Submit(context.Background(), "chest", seg); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-capacity submit: got %v, want ErrOverloaded", err)
	}
	if got := f.obs.MetricValue("xpro_fleet_rejected_total"); got != 1 {
		t.Fatalf("xpro_fleet_rejected_total = %v, want 1", got)
	}
	close(release)
	if r := <-ch; r.Err != nil {
		t.Fatalf("queued event failed after release: %v", r.Err)
	}
}

// TestFleetCloseDrains: Close blocks until every accepted event is
// served; submissions after Close return ErrFleetClosed.
func TestFleetCloseDrains(t *testing.T) {
	_, f, engines := fleetPair(t, ServeOptions{Workers: 2, QueueDepth: 256})
	segs := map[string][]float64{
		"chest": segsOf(engines["chest"], 1)[0],
		"wrist": segsOf(engines["wrist"], 1)[0],
	}
	var chans []<-chan FleetResult
	for i := 0; i < 50; i++ {
		subject := "chest"
		if i%2 == 1 {
			subject = "wrist"
		}
		ch, err := f.Submit(context.Background(), subject, segs[subject])
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, ch)
	}
	f.Close()
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Fatalf("drained event %d: %v", i, r.Err)
			}
		default:
			t.Fatalf("event %d not served after Close returned", i)
		}
	}
	if _, err := f.Submit(context.Background(), "chest", segs["chest"]); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("submit after Close: got %v, want ErrFleetClosed", err)
	}
	f.Close() // idempotent
}

// TestCancelPropagatesWithoutTrippingBreaker: context cancellation
// surfaces as a typed ErrCanceled through the resilient classify path
// and leaves the modeled timeline untouched — no clock advance, no
// breaker transition, no error counter.
func TestCancelPropagatesWithoutTrippingBreaker(t *testing.T) {
	e, err := New(Config{Case: "C1", Resilience: DefaultResilience()})
	if err != nil {
		t.Fatal(err)
	}
	seg := segsOf(e, 1)[0]
	if _, err := e.ClassifyResultContext(context.Background(), seg); err != nil {
		t.Fatal(err)
	}
	clockBefore := e.res.rt.Clock().Now()
	breakerBefore := e.res.rt.Breaker().State()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = e.ClassifyResultContext(ctx, seg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled classify: got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled classify: %v does not wrap context.Canceled", err)
	}
	if got := e.res.rt.Clock().Now(); got != clockBefore {
		t.Fatalf("canceled event advanced the modeled clock: %v -> %v", clockBefore, got)
	}
	if got := e.res.rt.Breaker().State(); got != breakerBefore {
		t.Fatalf("canceled event changed breaker state: %v -> %v", breakerBefore, got)
	}
	if got := e.Observer().MetricValue("xpro_breaker_transitions_total"); got != 0 {
		t.Fatalf("canceled event tripped the breaker: %v transitions", got)
	}
	if got := e.Observer().MetricValue("xpro_classify_errors_total"); got != 0 {
		t.Fatalf("cancellation counted as a classify error: %v", got)
	}
	if got := e.Observer().MetricValue("xpro_classify_canceled_total"); got != 1 {
		t.Fatalf("xpro_classify_canceled_total = %v, want 1", got)
	}
	// The engine still serves after the cancellation.
	if _, err := e.ClassifyResultContext(context.Background(), seg); err != nil {
		t.Fatalf("classify after cancellation: %v", err)
	}
}

// TestNetworkReportMemoized is the generation-counter satellite: the
// cached report equals a freshly built one, repeated queries hit the
// cache, and a forced re-cut invalidates it.
func TestNetworkReportMemoized(t *testing.T) {
	e, err := New(Config{Case: "C1"})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(map[string]*Engine{"chest": e})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() NetworkReport {
		t.Helper()
		n2, err := NewNetwork(map[string]*Engine{"chest": e})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := n2.Report()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	r1, err := n.Report()
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh(); !reflect.DeepEqual(r1, want) {
		t.Fatalf("cached report diverged from fresh before re-cut:\n got %+v\nwant %+v", r1, want)
	}
	rebuilds := n.obs.MetricValue("xpro_network_view_rebuilds_total")
	for i := 0; i < 5; i++ {
		if _, err := n.Report(); err != nil {
			t.Fatal(err)
		}
		n.RealTimeOK(4e-3)
	}
	if got := n.obs.MetricValue("xpro_network_view_rebuilds_total"); got != rebuilds {
		t.Fatalf("unchanged engines rebuilt the view: %v -> %v rebuilds", rebuilds, got)
	}
	if got := n.obs.MetricValue("xpro_network_view_hits_total"); got < 10 {
		t.Fatalf("memoized view served only %v hits, want >= 10", got)
	}

	// Forced re-cut: install a different whole placement as the active
	// system and bump the serving epoch, exactly as the adaptive
	// controller does. Whichever trivial placement differs from the
	// optimal cut serves — the point is that the report must change.
	alt, err := e.static.WithPlacement(partition.InAggregator(e.graph))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(alt.Placement, e.static.Placement) {
		if alt, err = e.static.WithPlacement(partition.InSensor(e.graph)); err != nil {
			t.Fatal(err)
		}
	}
	e.active.Store(alt)
	e.epoch.Add(1)
	defer func() { e.active.Store(e.static); e.epoch.Add(1) }()

	r2, err := n.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got := n.obs.MetricValue("xpro_network_view_rebuilds_total"); got != rebuilds+1 {
		t.Fatalf("re-cut did not rebuild the view: %v -> %v rebuilds", rebuilds, got)
	}
	if want := fresh(); !reflect.DeepEqual(r2, want) {
		t.Fatalf("cached report diverged from fresh after re-cut:\n got %+v\nwant %+v", r2, want)
	}
	if reflect.DeepEqual(r1, r2) {
		t.Fatal("re-cut to the in-sensor placement left the network report unchanged; invalidation check is vacuous")
	}
}

// TestGenerationBumpsOnBreakerAndFaultEdges: the serving epoch moves
// when a fault window opens and when the breaker transitions, so the
// memoized network view follows degradation.
func TestGenerationBumpsOnBreakerAndFaultEdges(t *testing.T) {
	res := DefaultResilience()
	res.BreakerThreshold = 1
	plan := &FaultPlan{Seed: 5, Windows: []FaultWindow{
		{Kind: "link-outage", StartSeconds: 0.01, EndSeconds: 10},
	}}
	e, err := New(Config{Case: "C1", Resilience: res, FaultPlan: plan})
	if err != nil {
		t.Fatal(err)
	}
	seg := segsOf(e, 1)[0]
	before := e.generation()
	for i := 0; i < 400 && e.res.rt.Breaker().State() != faults.BreakerOpen; i++ {
		if _, err := e.ClassifyResult(seg); err != nil {
			t.Fatal(err)
		}
	}
	if e.res.rt.Breaker().State() != faults.BreakerOpen {
		t.Fatal("outage never opened the breaker; epoch check is vacuous")
	}
	if got := e.generation(); got <= before {
		t.Fatalf("breaker transition and fault-window edge left generation at %d", got)
	}
}

// TestFleetFIFOPerSubject: one subject's events are served strictly in
// submission order even when many goroutines are pushing other
// subjects — the ordering half of the determinism contract.
func TestFleetFIFOPerSubject(t *testing.T) {
	_, f, _ := fleetPair(t, ServeOptions{Workers: 3, QueueDepth: 512})
	defer f.Close()

	var order []int32
	const n = 200
	// In-package: submit instrumented jobs under the chest shard to
	// observe execution order directly.
	shard := f.shards["chest"]
	for i := 0; i < n; i++ {
		i := i
		if err := f.pool.Submit(shard, func() {
			order = append(order, int32(i)) // single worker per shard: no race
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	f.Close()
	if len(order) != n {
		t.Fatalf("%d of %d events ran", len(order), n)
	}
	for i, v := range order {
		if int(v) != i {
			t.Fatalf("subject events reordered: position %d ran job %d", i, v)
		}
	}
}
