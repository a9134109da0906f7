package xpro

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"xpro/internal/admit"
	"xpro/internal/biosig"
	"xpro/internal/serve"
	"xpro/internal/telemetry"
)

// This file is the public face of the concurrent fleet-serving runtime
// (internal/serve). The paper evaluates one wearable against one
// aggregator; a production backend serves millions of subjects, and
// XPro's cut-based engines are embarrassingly parallel across subjects
// and across segments. Network.Serve shards a body sensor network's
// engines over a bounded worker pool with per-subject FIFO ordering;
// Engine.ClassifyBatchParallel and Engine.StreamParallel fan one
// engine's segments across workers with results provably identical to
// the sequential path.
//
// Ordering and determinism contract: one subject's events always
// execute in submission order on one worker, because the resilient
// classify path is a serial modeled timeline (clock, breaker, link
// RNG) — so a seeded run replays bit-identically regardless of the
// worker count. Engines without a Resilience policy are pure functions
// of the segment and the installed cut, so their segments parallelize
// freely and the hot-swapped cut is always read through one atomic
// load per event: no event ever observes a half-swapped cut.

// ErrOverloaded rejects a fleet submission whose worker queue is full
// — the bounded-queue backpressure signal. The caller should shed or
// retry; nothing was enqueued. errors.As gives the
// *serve.OverloadedError carrying the queue geometry and — on a fleet
// with overload protection — a RetryAfterSeconds hint from the
// admission controller's queue-delay estimate.
var ErrOverloaded = serve.ErrOverloaded

// ErrFleetClosed rejects submissions made after Fleet.Close began.
var ErrFleetClosed = serve.ErrClosed

// ErrShed rejects a fleet submission refused by the admission
// controller before it reached the worker pool (see
// ServeOptions.Overload): its queue-wait estimate already busted the
// deadline budget, its priority class exhausted its queue share, or
// the CoDel dropping state was draining a standing queue. Match with
// errors.Is; errors.As gives the *ShedError.
var ErrShed = admit.ErrShed

// Priority is a fleet request's priority class. Under overload the
// admission controller sheds strictly by class: PriorityBatch first,
// then PriorityInteractive; PriorityAlert is never shed by admission
// (only a completely full queue refuses it). The zero value is
// PriorityInteractive, so a FleetRequest that never sets a class is
// treated as ordinary user-facing traffic.
type Priority uint8

const (
	// PriorityInteractive is user-facing traffic with a human waiting
	// (the zero value).
	PriorityInteractive Priority = iota
	// PriorityBatch is background/bulk traffic: re-analysis, backfill,
	// export. Shed first.
	PriorityBatch
	// PriorityAlert is safety-critical traffic (arrhythmia alarms).
	// Shed last.
	PriorityAlert
)

// String returns "interactive", "batch" or "alert" — the label value
// of xpro_admit_shed_total{class=...}.
func (p Priority) String() string { return p.class().String() }

// class maps the public priority onto the admission controller's
// ordered class space (batch < interactive < alert).
func (p Priority) class() admit.Class {
	switch p {
	case PriorityBatch:
		return admit.Batch
	case PriorityAlert:
		return admit.Alert
	default:
		return admit.Interactive
	}
}

func priorityOf(c admit.Class) Priority {
	switch c {
	case admit.Batch:
		return PriorityBatch
	case admit.Alert:
		return PriorityAlert
	default:
		return PriorityInteractive
	}
}

// ShedError is the typed form of ErrShed: which event the admission
// controller refused and why, with enough context for informed
// backoff. Nothing was enqueued.
type ShedError struct {
	// Subject names the refused request's engine.
	Subject string
	// Priority is the refused request's class.
	Priority Priority
	// Reason is "occupancy" (class queue share exhausted), "deadline"
	// (queue-wait estimate busts the budget) or "codel" (standing
	// queue draining).
	Reason string
	// EstimatedWaitSeconds is the admission controller's queue-wait
	// estimate at decision time; BudgetSeconds the deadline budget the
	// event carried (from its context deadline, or the class default).
	EstimatedWaitSeconds float64
	BudgetSeconds        float64
	// RetryAfterSeconds hints how long to wait before retrying.
	RetryAfterSeconds float64
	// QueueLen / QueueDepth describe the subject's worker queue at
	// decision time.
	QueueLen, QueueDepth int
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("xpro: admission shed %s event for subject %q (%s): estimated wait %.3fs, budget %.3fs, queue %d/%d, retry after %.3fs",
		e.Priority, e.Subject, e.Reason, e.EstimatedWaitSeconds, e.BudgetSeconds, e.QueueLen, e.QueueDepth, e.RetryAfterSeconds)
}

// Is makes errors.Is(err, ErrShed) match.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// ErrWorkerPanic marks a fleet event whose classification panicked.
// The panic is contained: the worker is replaced, the subject's queue
// keeps draining in order, and the caller gets this typed error
// instead of a crashed process. Match with errors.Is; errors.As gives
// the *WorkerPanicError carrying the recovered value.
var ErrWorkerPanic = errors.New("xpro: fleet worker panicked")

// WorkerPanicError reports a contained per-event panic.
type WorkerPanicError struct {
	// Subject is the engine whose event blew up; Value the recovered
	// panic value.
	Subject string
	Value   any
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("xpro: classification for subject %q panicked: %v", e.Subject, e.Value)
}

// Is makes errors.Is(err, ErrWorkerPanic) match.
func (e *WorkerPanicError) Is(target error) bool { return target == ErrWorkerPanic }

// ErrCanceled marks a classification abandoned because its context was
// canceled or its deadline expired before the event entered the
// pipeline. The wrapped chain also matches the context error
// (context.Canceled or context.DeadlineExceeded). A canceled event
// never touches the modeled timeline: the clock does not advance and
// the circuit breaker records nothing.
var ErrCanceled = errors.New("xpro: classification canceled")

// canceledError wraps a context error as ErrCanceled and counts it.
// Cancellations are not classification errors: they do not increment
// xpro_classify_errors_total and never trip the breaker.
func (e *Engine) canceledError(cause error) error {
	e.obs.reg.Counter("xpro_classify_canceled_total",
		"Classifications abandoned by context cancellation before execution.").Inc()
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// ClassifyResultContext is ClassifyResult honoring a context: a
// canceled or expired ctx returns an error matching both ErrCanceled
// and the context error, without running the event or touching the
// resilience state. An event already executing is never interrupted
// mid-pipeline (the modeled hardware has no preemption); cancellation
// is checked immediately before the event starts.
func (e *Engine) ClassifyResultContext(ctx context.Context, samples []float64) (Result, error) {
	if e.res != nil {
		return e.res.classifyCtx(ctx, e, biosig.Segment{Samples: samples})
	}
	if err := ctx.Err(); err != nil {
		return Result{}, e.canceledError(err)
	}
	label, err := e.sys().Classify(biosig.Segment{Samples: samples})
	if err != nil {
		return Result{}, err
	}
	e.observePlainEvents(1)
	return Result{Label: label, Mode: ModeFull}, nil
}

// ClassifyBatchParallel classifies segments across up to workers
// goroutines (workers <= 0 means GOMAXPROCS) and returns labels in
// input order. Results are bit-identical to ClassifyBatch: each event
// reads the installed cut through one atomic load and computes a pure
// function of (segment, cut), so fan-out cannot change any label. On
// an engine with a Resilience policy the modeled timeline is serial by
// design, and the call degenerates to ordered sequential execution —
// still honoring ctx between events — so seeded fault runs replay
// identically no matter the requested parallelism.
func (e *Engine) ClassifyBatchParallel(ctx context.Context, segments [][]float64, workers int) ([]int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	labels, err := e.classifyBatchParallel(ctx, segments, workers)
	m := e.obs.reg
	if err != nil {
		m.Counter("xpro_classify_batch_errors_total",
			"ClassifyBatch calls that returned an error.").Inc()
		return nil, err
	}
	m.Counter("xpro_classify_batch_parallel_total",
		"Completed ClassifyBatchParallel calls.").Inc()
	m.Counter("xpro_classify_batch_segments_total",
		"Segments classified by ClassifyBatch calls.").Add(float64(len(segments)))
	m.Histogram("xpro_classify_batch_seconds",
		"Wall time of one ClassifyBatch call.", telemetry.DurationBuckets).
		Observe(time.Since(start).Seconds())
	m.Quantile("xpro_classify_batch_wall_seconds",
		"Wall time of one batch classify call (windowed quantile sketch on host uptime).",
		0).ObserveWall(time.Since(start).Seconds())
	return labels, nil
}

func (e *Engine) classifyBatchParallel(ctx context.Context, segments [][]float64, workers int) ([]int, error) {
	labels := make([]int, len(segments))
	if e.res != nil {
		for i, s := range segments {
			res, err := e.res.classifyCtx(ctx, e, biosig.Segment{Samples: s})
			if err != nil {
				return nil, fmt.Errorf("xpro: segment %d: %w", i, err)
			}
			labels[i] = res.Label
		}
		return labels, nil
	}
	err := serve.ParallelEach(len(segments), workers, func(i int) error {
		if err := ctx.Err(); err != nil {
			return e.canceledError(err)
		}
		label, err := e.sys().Classify(biosig.Segment{Samples: segments[i]})
		if err != nil {
			return fmt.Errorf("xpro: segment %d: %w", i, err)
		}
		labels[i] = label
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.observePlainEvents(len(labels))
	return labels, nil
}

// StreamParallel classifies segments arriving on in across up to
// workers goroutines with ordered delivery: results appear on the
// returned channel in input order regardless of which worker finishes
// first, with a bounded in-flight window exerting backpressure on the
// producer. The channel closes after the last result. On ctx
// cancellation the stream stops consuming in and closes after
// in-flight events drain; events claimed but not yet run are reported
// with an ErrCanceled error. On an engine with a Resilience policy
// events run sequentially through the ladder (the modeled timeline is
// serial), preserving the Stream ordering and degradation semantics.
// The caller must drain the returned channel.
func (e *Engine) StreamParallel(ctx context.Context, in <-chan []float64, workers int) <-chan StreamResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if e.res != nil || workers == 1 {
		out := make(chan StreamResult)
		go func() {
			defer close(out)
			i := 0
			for {
				select {
				case s, ok := <-in:
					if !ok {
						return
					}
					res, err := e.ClassifyResultContext(ctx, s)
					out <- StreamResult{Index: i, Result: res, Err: err}
					i++
					if err != nil && errors.Is(err, ErrCanceled) {
						return
					}
				case <-ctx.Done():
					return
				}
			}
		}()
		return out
	}

	jobs := make(chan func() StreamResult)
	go func() {
		defer close(jobs)
		i := 0
		for {
			select {
			case s, ok := <-in:
				if !ok {
					return
				}
				idx, seg := i, s
				i++
				jobs <- func() StreamResult {
					if err := ctx.Err(); err != nil {
						return StreamResult{Index: idx, Err: e.canceledError(err)}
					}
					label, err := e.sys().Classify(biosig.Segment{Samples: seg})
					if err != nil {
						return StreamResult{Index: idx, Err: err}
					}
					e.observePlainEvents(1)
					return StreamResult{Index: idx, Result: Result{Label: label, Mode: ModeFull}}
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return serve.Ordered(jobs, workers, 4*workers)
}

// ServeOptions configures a Fleet. Zero values take defaults.
type ServeOptions struct {
	// Workers is the worker-goroutine count (default GOMAXPROCS).
	// Subjects are sharded across workers; one subject always runs on
	// one worker, so per-subject FIFO ordering holds for any count.
	Workers int
	// QueueDepth bounds each worker's pending-event queue (default
	// serve.DefaultQueueDepth). Submissions beyond it are rejected with
	// ErrOverloaded instead of blocking.
	QueueDepth int
	// Overload, when set, enables overload protection: deadline-aware
	// admission with strict-priority shedding in front of the pool,
	// and the brownout controller coupling sustained queue delay to
	// the degradation ladder. Nil leaves the fleet with bare
	// bounded-queue backpressure (the pre-overload behaviour).
	Overload *Overload
}

// Fleet serves a network's engines concurrently: a sharded worker pool
// with per-subject FIFO ordering, bounded queues with typed
// backpressure, and context-based cancellation threaded through the
// resilient classify path. All methods are safe for concurrent use.
type Fleet struct {
	pool    *serve.Pool
	engines map[string]*Engine
	shards  map[string]uint64
	names   []string
	obs     *Observer

	// Overload protection (nil without ServeOptions.Overload): the
	// admission controller decides per submission on host uptime; the
	// brownout controller watches the queue-delay EWMA after each
	// served event and forces every engine's cheap rung while active.
	admit *admit.Controller
	brown *admit.Brownout
	// Pre-resolved handles so the hot submit/serve path never walks
	// the registry maps.
	shedTotal  [admit.NumClasses]*telemetry.Counter
	brownGauge *telemetry.Gauge
	queueDelay *telemetry.Quantile
}

// Serve starts a fleet over the network's engines. Subjects are
// assigned to workers round-robin in sorted-name order, so the
// engine→worker mapping is deterministic for a given (subject set,
// worker count). Close the fleet to drain and stop it; the network
// itself remains usable afterwards.
func (n *Network) Serve(opt ServeOptions) (*Fleet, error) {
	if opt.Workers < 0 || opt.QueueDepth < 0 {
		return nil, fmt.Errorf("xpro: negative ServeOptions (workers %d, queue depth %d)", opt.Workers, opt.QueueDepth)
	}
	pool := serve.NewPool(serve.Options{
		Workers: opt.Workers, QueueDepth: opt.QueueDepth,
		// Belt and braces under the fleet's own per-job recover (see
		// Fleet.run): any panic that still reaches a worker — a job
		// from a future code path, a panic inside the guard itself —
		// is counted and the worker replaced instead of crashing the
		// fleet.
		OnPanic: func(worker int, recovered any) {
			n.obs.reg.Counter("xpro_panics_total",
				"Panics contained by the serving runtime (worker replaced).").Inc()
		},
	})
	shards := make(map[string]uint64, len(n.names))
	for i, name := range n.names {
		shards[name] = uint64(i)
	}
	f := &Fleet{
		pool:    pool,
		engines: n.engines,
		shards:  shards,
		names:   n.names,
		obs:     n.obs,
	}
	if opt.Overload != nil {
		ac, bc := opt.Overload.internal()
		ctrl, err := admit.NewController(ac)
		if err != nil {
			pool.Close()
			return nil, err
		}
		brown, err := admit.NewBrownout(bc)
		if err != nil {
			pool.Close()
			return nil, err
		}
		f.admit, f.brown = ctrl, brown
		for c := admit.Class(0); c < admit.Class(admit.NumClasses); c++ {
			f.shedTotal[c] = n.obs.reg.Counter(telemetry.WithLabels("xpro_admit_shed_total",
				map[string]string{"class": c.String()}),
				"Fleet submissions refused by the admission controller, by priority class.")
		}
		f.brownGauge = n.obs.reg.Gauge("xpro_brownout_state",
			"1 while the fleet is browned out (every engine forced onto its cheap rung), else 0.")
		f.queueDelay = n.obs.reg.Quantile("xpro_fleet_queue_delay_seconds",
			"Queue sojourn of served fleet events (windowed quantile sketch on host uptime).", 0)
	}
	n.fleet.Store(f)
	n.obs.reg.Gauge("xpro_fleet_workers",
		"Worker goroutines of the serving fleet.").Set(float64(pool.Workers()))
	return f, nil
}

// Subjects lists the fleet's subject names, sorted.
func (f *Fleet) Subjects() []string { return f.names }

// Workers returns the fleet's worker count.
func (f *Fleet) Workers() int { return f.pool.Workers() }

// FleetResult is one served classification.
type FleetResult struct {
	// Subject names the engine that served the event.
	Subject string
	Result  Result
	Err     error
}

// Submit enqueues one segment for a subject at PriorityInteractive
// and returns a channel that delivers the single result when the
// subject's worker reaches it. Submission never blocks: a full worker
// queue returns ErrOverloaded (nothing enqueued), an admission
// refusal ErrShed, a closed fleet ErrFleetClosed. Events of one
// subject are served in submission order.
//
// The returned channel has a buffered slot the worker's single send
// always lands in, so a caller that abandons the channel (its context
// canceled, its select moved on) never blocks the worker: the result
// sits in the buffer and is garbage-collected with the channel.
func (f *Fleet) Submit(ctx context.Context, subject string, samples []float64) (<-chan FleetResult, error) {
	return f.SubmitRequest(ctx, FleetRequest{Subject: subject, Samples: samples})
}

// SubmitRequest is Submit with an explicit priority class. On a fleet
// with overload protection (ServeOptions.Overload) the admission
// controller may refuse the event with a typed *ShedError before it
// reaches the pool: lower classes are shed strictly first, and an
// event whose queue-wait estimate already busts its deadline budget
// (the context deadline, or the class default) is refused at the door
// instead of timing out in the queue.
func (f *Fleet) SubmitRequest(ctx context.Context, rq FleetRequest) (<-chan FleetResult, error) {
	e, ok := f.engines[rq.Subject]
	if !ok {
		return nil, fmt.Errorf("xpro: fleet has no subject %q", rq.Subject)
	}
	shard := f.shards[rq.Subject]
	if f.admit != nil {
		budget := 0.0
		if dl, ok := ctx.Deadline(); ok {
			budget = time.Until(dl).Seconds()
		}
		qlen, depth := f.pool.QueueLen(shard), f.pool.QueueDepth()
		if shed := f.admit.Decide(telemetry.Uptime(), rq.Priority.class(), qlen, depth, budget); shed != nil {
			f.shedTotal[shed.Class].Inc()
			f.obs.reg.Counter("xpro_fleet_rejected_total",
				"Fleet submissions rejected by backpressure or shutdown.").Inc()
			return nil, &ShedError{
				Subject:              rq.Subject,
				Priority:             priorityOf(shed.Class),
				Reason:               shed.Reason,
				EstimatedWaitSeconds: shed.EstimatedWaitSeconds,
				BudgetSeconds:        shed.BudgetSeconds,
				RetryAfterSeconds:    shed.RetryAfterSeconds,
				QueueLen:             shed.QueueLen,
				QueueDepth:           shed.QueueDepth,
			}
		}
	}
	// The buffered slot is the abandoned-channel contract: the worker's
	// one send never blocks even if no receiver ever comes back.
	ch := make(chan FleetResult, 1)
	subject, samples := rq.Subject, rq.Samples
	enq := telemetry.Uptime()
	job := func() {
		if f.admit != nil {
			start := telemetry.Uptime()
			sojourn := start - enq
			f.admit.ObserveSojourn(start, sojourn)
			f.queueDelay.Observe(start, sojourn)
			r := f.run(ctx, e, subject, samples)
			end := telemetry.Uptime()
			f.admit.ObserveService(end - start)
			f.observeBrownout(end)
			ch <- r
			return
		}
		ch <- f.run(ctx, e, subject, samples)
	}
	if err := f.pool.Submit(shard, job); err != nil {
		if f.admit != nil {
			// Decorate pool-level backpressure with the admission
			// controller's drain estimate so even bare ErrOverloaded
			// rejections carry an informed retry hint.
			var oe *serve.OverloadedError
			if errors.As(err, &oe) {
				oe.RetryAfterSeconds = f.admit.RetryAfter(oe.QueueLen)
			}
		}
		f.obs.reg.Counter("xpro_fleet_rejected_total",
			"Fleet submissions rejected by backpressure or shutdown.").Inc()
		return nil, err
	}
	f.obs.reg.Counter("xpro_fleet_submitted_total",
		"Fleet events accepted for serving.").Inc()
	return ch, nil
}

// observeBrownout feeds the post-event queue-delay EWMA to the
// brownout controller and applies any state transition fleet-wide:
// entering forces every engine's precomputed cheap rung (capacity
// rises instead of the queue), exiting or rolling back releases it.
func (f *Fleet) observeBrownout(now float64) {
	changed, active := f.brown.Observe(now, f.admit.QueueDelay())
	if !changed {
		return
	}
	kind := "exit"
	if ev, ok := f.brown.Last(); ok {
		kind = ev.Kind
	}
	v := 0.0
	if active {
		v = 1
	}
	f.brownGauge.Set(v)
	for _, name := range f.names {
		f.engines[name].setBrownedOut(active)
	}
	f.obs.events.Append(telemetry.Event{
		TimeSeconds: now, Kind: "brownout", Detail: kind,
		LatencySeconds: f.admit.QueueDelay(), Degraded: active,
	})
}

// run executes one subject's classification inside the fleet's panic
// bulkhead: a panicking engine yields a typed *WorkerPanicError result
// (matching ErrWorkerPanic) instead of propagating — the worker
// survives, the subject's queue keeps draining in order, and the
// outcome counters stay truthful either way.
func (f *Fleet) run(ctx context.Context, e *Engine, subject string, samples []float64) (out FleetResult) {
	defer func() {
		if rec := recover(); rec != nil {
			f.obs.reg.Counter("xpro_panics_total",
				"Panics contained by the serving runtime (worker replaced).").Inc()
			f.obs.reg.Counter("xpro_fleet_errors_total",
				"Fleet events that completed with an error (including cancellations).").Inc()
			out = FleetResult{Subject: subject, Err: &WorkerPanicError{Subject: subject, Value: rec}}
		}
	}()
	res, err := e.ClassifyResultContext(ctx, samples)
	switch {
	case err == nil:
		f.obs.reg.Counter("xpro_fleet_served_total",
			"Fleet events served to completion.").Inc()
	case errors.Is(err, ErrSuspectData):
		// Quarantined, not failed: the subject's signal-quality gate
		// rejected the segment or flagged an imputation-heavy result
		// (see Config.Integrity). The worker served the event; the
		// caller decides whether a quarantined label is usable.
		f.obs.reg.Counter("xpro_fleet_suspect_total",
			"Fleet events quarantined by a subject's signal-quality gate.").Inc()
	case errors.Is(err, ErrNodeDown):
		// The subject's node is inside a crash/reboot window: the event
		// failed fast without touching the engine's pipeline. It still
		// counts as an errored event below the dedicated series.
		f.obs.reg.Counter("xpro_fleet_node_down_total",
			"Fleet events rejected because the subject's node was crashed or rebooting.").Inc()
		f.obs.reg.Counter("xpro_fleet_errors_total",
			"Fleet events that completed with an error (including cancellations).").Inc()
	default:
		f.obs.reg.Counter("xpro_fleet_errors_total",
			"Fleet events that completed with an error (including cancellations).").Inc()
	}
	return FleetResult{Subject: subject, Result: res, Err: err}
}

// Classify submits one segment and waits for its result. If ctx ends
// while the event is still queued, Classify returns an ErrCanceled
// error immediately; the queued event then resolves as canceled when
// its worker reaches it, without touching the engine's modeled state.
func (f *Fleet) Classify(ctx context.Context, subject string, samples []float64) (Result, error) {
	ch, err := f.Submit(ctx, subject, samples)
	if err != nil {
		return Result{}, err
	}
	select {
	case r := <-ch:
		return r.Result, r.Err
	case <-ctx.Done():
		return Result{}, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
	}
}

// FleetRequest is one entry of a batched submission.
type FleetRequest struct {
	Subject string
	Samples []float64
	// Priority is the request's class under overload protection
	// (zero value PriorityInteractive). Ignored without
	// ServeOptions.Overload.
	Priority Priority
}

// ClassifyBatch submits every request and waits for all accepted ones,
// returning one FleetResult per request in input order. Rejections
// (unknown subject, ErrOverloaded backpressure, ErrShed admission
// refusal, closed fleet) are reported per-result, not by failing the
// batch: under overload the accepted prefix of each subject's events
// still serves in order. A mid-batch context cancellation leaks
// nothing: every accepted event's result lands in its channel's
// buffered slot whether or not this loop is still there to read it.
func (f *Fleet) ClassifyBatch(ctx context.Context, reqs []FleetRequest) []FleetResult {
	out := make([]FleetResult, len(reqs))
	chans := make([]<-chan FleetResult, len(reqs))
	for i, rq := range reqs {
		ch, err := f.SubmitRequest(ctx, rq)
		if err != nil {
			out[i] = FleetResult{Subject: rq.Subject, Err: err}
			continue
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		if ch == nil {
			continue
		}
		select {
		case r := <-ch:
			out[i] = r
		case <-ctx.Done():
			out[i] = FleetResult{Subject: reqs[i].Subject,
				Err: fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())}
		}
	}
	return out
}

// Close stops accepting new submissions and blocks until every queued
// event has been served — in-flight work drains, it is never dropped.
// Closing any number of times, from any number of goroutines, or mixed
// with CloseWithin, is safe: every call observes the one shutdown the
// pool runs under its own sync.Once pair.
func (f *Fleet) Close() { f.pool.Close() }

// CloseWithin is Close bounded by a wall-clock drain budget: intake
// stops immediately, and if the queued events do not finish within d
// the call returns the pool's *serve.DrainTimeoutError (reporting the
// jobs still pending) while the drain continues in the background. A
// later Close waits for that same drain to finish.
func (f *Fleet) CloseWithin(d time.Duration) error { return f.pool.CloseWithin(d) }
