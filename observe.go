package xpro

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"xpro/internal/eventsim"
	"xpro/internal/telemetry"
	"xpro/internal/wireless"
)

// This file is the public face of the observability subsystem
// (internal/telemetry). Every Engine and Network carries an Observer:
// a private metrics registry plus a bounded per-cell span tracer, with
// an opt-in introspection HTTP server exposing both.
//
// The paper reasons about the system at the granularity of functional
// cells (§3); the Observer exposes exactly that granularity at runtime:
// which cell ran where, how long the host actually took, and what the
// modeled hardware would have spent.

// Metric is a point-in-time copy of one metric series.
type Metric struct {
	// Name is the series name, e.g. `xpro_classify_total` or
	// `xpro_node_lifetime_hours{node="chest"}`.
	Name string
	// Help is the family's description.
	Help string
	// Kind is "counter", "gauge", "histogram" or "summary" (windowed
	// quantile series).
	Kind string
	// Value is the counter or gauge value.
	Value float64
	// Count and Sum summarize a histogram's or quantile series'
	// observations (cumulative since start).
	Count uint64
	Sum   float64
	// Buckets are a histogram's cumulative buckets, ending at +Inf.
	Buckets []MetricBucket
	// Quantiles are a quantile series' windowed marks (p50/p90/p95/p99).
	Quantiles []MetricQuantile
}

// MetricQuantile is one windowed quantile mark of a summary series.
type MetricQuantile struct {
	// Quantile is the rank, e.g. 0.5, 0.99.
	Quantile float64
	// Value is the estimated value at that rank over the rolling window.
	Value float64
}

// MetricBucket is one cumulative histogram bucket.
type MetricBucket struct {
	// UpperBound is the inclusive upper bound (+Inf for the last).
	UpperBound float64
	// Count is the number of observations ≤ UpperBound.
	Count uint64
}

// Span is one recorded unit of work: a functional-cell activation
// during Classify, or the whole classification event (Cell "classify",
// End "event").
type Span struct {
	// Event groups the spans of one classification event.
	Event uint64
	// Cell is the functional-cell name, or "classify".
	Cell string
	// End is "sensor", "aggregator" or "event".
	End string
	// Start and Wall are the measured host execution window.
	Start time.Time
	Wall  time.Duration
	// EnergyJoules and DelaySeconds are the modeled per-activation
	// costs on End.
	EnergyJoules float64
	DelaySeconds float64
	// Degraded marks an event span whose classification was served
	// through a degraded path (partial fusion or a fallback cut).
	Degraded bool
	// Suspect marks an event span the signal-quality gate rejected or
	// quarantined (see Config.Integrity).
	Suspect bool
}

// LogEvent is one structured record of the SLO event log: a classify,
// a re-cut decision, a circuit-breaker transition or a suspect-data
// quarantine. Trace is the span tracer's event ID for the same
// occurrence — the join key between the event stream and Spans().
type LogEvent struct {
	// Seq is the log-assigned sequence number (1-based).
	Seq uint64
	// Trace matches Span.Event of the span recorded for the same
	// occurrence (0 when tracing is off).
	Trace uint64
	// TimeSeconds is the modeled clock reading when the event happened.
	TimeSeconds float64
	// Wall is the host wall-clock time of the record.
	Wall time.Time
	// Kind is "classify", "recut-swap", "recut-rollback", "breaker",
	// "quarantine", "brownout" (a fleet brownout transition; Detail
	// carries "enter", "exit" or "rollback"), "node-crash" (Detail
	// "power-loss" or "graceful-reboot") or "node-recover" (Detail
	// "warm", "amnesiac" without a store, or "amnesiac-corrupt-store"
	// when the attached store could not be restored).
	Kind string
	// Subject names the fleet subject, when known.
	Subject string
	// Mode is the degradation rung that served a classify record.
	Mode string
	// Detail carries kind-specific context: breaker "closed->open",
	// quarantine reasons, re-cut cell movement.
	Detail string
	// LatencySeconds / EnergyJoules are the event's modeled costs.
	LatencySeconds float64
	EnergyJoules   float64
	// Degraded and Suspect mirror the span flags.
	Degraded bool
	Suspect  bool
}

// Observer is the observability handle of one Engine or Network: a
// concurrency-safe metrics registry, a bounded span tracer, a bounded
// structured event log, and an opt-in introspection HTTP server. All
// methods are safe for concurrent use.
type Observer struct {
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	events *telemetry.EventLog

	mu        sync.Mutex
	status    map[string]func() any
	endpoints map[string]func() (int, any)
	srv       *telemetry.Server
}

func newObserver(traceCapacity int) *Observer {
	return &Observer{
		reg:       telemetry.NewRegistry(),
		tracer:    telemetry.NewTracer(traceCapacity),
		events:    telemetry.NewEventLog(telemetry.DefaultEventLogCapacity),
		status:    make(map[string]func() any),
		endpoints: make(map[string]func() (int, any)),
	}
}

// setStatus registers one /enginez section.
func (o *Observer) setStatus(section string, fn func() any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.status[section] = fn
}

// setEndpoint registers one JSON endpoint (path like "/slo") served by
// the introspection server.
func (o *Observer) setEndpoint(path string, fn func() (int, any)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.endpoints[path] = fn
}

// Metrics returns a snapshot of every metric series, sorted by name.
func (o *Observer) Metrics() []Metric {
	snap := o.reg.Snapshot()
	out := make([]Metric, len(snap))
	for i, m := range snap {
		out[i] = Metric{
			Name:  m.Name,
			Help:  m.Help,
			Kind:  m.Kind.String(),
			Value: m.Value,
			Count: m.Count,
			Sum:   m.Sum,
		}
		if len(m.Buckets) > 0 {
			out[i].Buckets = make([]MetricBucket, len(m.Buckets))
			for j, b := range m.Buckets {
				out[i].Buckets[j] = MetricBucket{UpperBound: b.UpperBound, Count: b.Count}
			}
		}
		if len(m.Quantiles) > 0 {
			out[i].Quantiles = make([]MetricQuantile, len(m.Quantiles))
			for j, q := range m.Quantiles {
				out[i].Quantiles[j] = MetricQuantile{Quantile: q.Quantile, Value: q.Value}
			}
		}
	}
	return out
}

// MetricValue returns the current value of one counter or gauge series
// by exact name (0 when absent) — a convenience for tests and quick
// checks.
func (o *Observer) MetricValue(name string) float64 {
	for _, m := range o.reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// WriteMetricsText writes the registry in the Prometheus text
// exposition format — the same bytes the /metrics endpoint serves.
func (o *Observer) WriteMetricsText(w io.Writer) error {
	return o.reg.WriteProm(w)
}

// PublishExpvar additionally publishes the metrics under the given
// expvar name on /debug/vars. Names are process-global; publishing an
// already-taken name is a no-op.
func (o *Observer) PublishExpvar(name string) { o.reg.PublishExpvar(name) }

// Spans returns the retained spans, oldest first.
func (o *Observer) Spans() []Span {
	spans := o.tracer.Spans()
	out := make([]Span, len(spans))
	for i, s := range spans {
		out[i] = Span{
			Event:        s.Event,
			Cell:         s.Name,
			End:          s.End,
			Start:        s.Start,
			Wall:         s.Wall,
			EnergyJoules: s.EnergyJoules,
			DelaySeconds: s.DelaySeconds,
			Degraded:     s.Degraded,
			Suspect:      s.Suspect,
		}
	}
	return out
}

// TraceStats reports the span ring's occupancy: retained spans, total
// recorded, and how many were evicted.
func (o *Observer) TraceStats() (retained int, recorded, dropped uint64) {
	return o.tracer.Len(), o.tracer.Recorded(), o.tracer.Dropped()
}

// WriteTraceJSON writes the retained spans as one JSON document — the
// same bytes the /trace endpoint serves.
func (o *Observer) WriteTraceJSON(w io.Writer) error {
	return o.tracer.WriteJSON(w)
}

// Events returns the retained structured event-log records, oldest
// first. Each record's Trace joins it to the span with the same Event
// ID in Spans().
func (o *Observer) Events() []LogEvent {
	evs := o.events.Events()
	out := make([]LogEvent, len(evs))
	for i, e := range evs {
		out[i] = LogEvent{
			Seq: e.Seq, Trace: e.Trace, TimeSeconds: e.TimeSeconds, Wall: e.Wall,
			Kind: e.Kind, Subject: e.Subject, Mode: e.Mode, Detail: e.Detail,
			LatencySeconds: e.LatencySeconds, EnergyJoules: e.EnergyJoules,
			Degraded: e.Degraded, Suspect: e.Suspect,
		}
	}
	return out
}

// SetEventSink streams every appended event-log record to w as one
// JSON line (nil removes the sink). The bounded in-memory ring keeps
// only the newest records; the sink sees them all.
func (o *Observer) SetEventSink(w io.Writer) { o.events.SetSink(w) }

// WriteEventsJSONL writes the retained event-log records as JSON
// lines, oldest first — the same bytes the /events endpoint serves.
func (o *Observer) WriteEventsJSONL(w io.Writer) error {
	return o.events.WriteJSONL(w)
}

// EventLogStats reports the event-log ring's occupancy: retained
// records, total recorded, and how many were evicted.
func (o *Observer) EventLogStats() (retained int, recorded, dropped uint64) {
	return o.events.Len(), o.events.Recorded(), o.events.Dropped()
}

// StartIntrospection binds addr (":0" picks a free port) and serves
// /metrics, /trace, /events, /enginez, /healthz, /slo, /debug/vars and
// /debug/pprof in the background until StopIntrospection. It returns
// the bound address.
func (o *Observer) StartIntrospection(addr string) (string, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.srv != nil {
		return "", errors.New("xpro: introspection server already running")
	}
	srv := telemetry.NewServer(o.reg, o.tracer)
	srv.SetEventLog(o.events)
	for name, fn := range o.status {
		srv.RegisterStatus(name, fn)
	}
	for path, fn := range o.endpoints {
		srv.RegisterEndpoint(path, fn)
	}
	bound, err := srv.Start(addr)
	if err != nil {
		return "", err
	}
	o.srv = srv
	return bound, nil
}

// IntrospectionAddr returns the running server's address, or "".
func (o *Observer) IntrospectionAddr() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.srv == nil {
		return ""
	}
	return o.srv.Addr()
}

// StopIntrospection shuts the introspection server down. Stopping an
// unstarted observer is a no-op.
func (o *Observer) StopIntrospection() error {
	o.mu.Lock()
	srv := o.srv
	o.srv = nil
	o.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// Observer returns the engine's observability handle. The engine's
// Classify and ClassifyBatch record metrics and per-cell spans into it,
// and the Automatic XPro Generator's run during New is accounted there
// too.
func (e *Engine) Observer() *Observer { return e.obs }

// Observer returns the network's observability handle: per-node gauges
// refresh on every Report.
func (n *Network) Observer() *Observer { return n.obs }

// ClassifyBatch classifies segments and returns their labels in input
// order; the first failing segment aborts the batch. Without a
// Resilience policy each segment runs the same event walk as Classify,
// across up to GOMAXPROCS goroutines, and books the same per-event
// counters and spans; with one, events run sequentially through the
// resilience ladder (the modeled clock and breaker are a serial
// timeline) and degraded answers are answers.
func (e *Engine) ClassifyBatch(segments [][]float64) ([]int, error) {
	start := time.Now()
	labels, err := e.classifyBatchParallel(context.Background(), segments, runtime.GOMAXPROCS(0))
	m := e.obs.reg
	if err != nil {
		m.Counter("xpro_classify_batch_errors_total",
			"ClassifyBatch calls that returned an error.").Inc()
		return nil, err
	}
	m.Counter("xpro_classify_batch_total",
		"Completed ClassifyBatch calls.").Inc()
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

// SimulatedLossyDelay is SimulatedDelay over a lossy wireless link:
// packets are lost independently with probability loss and retransmitted
// up to maxRetries times each, seeded deterministically. The returned
// delay is never smaller than the clean-channel SimulatedDelay, and the
// retransmission count lands on the engine observer's
// xpro_eventsim_retransmissions_total counter.
func (e *Engine) SimulatedLossyDelay(loss float64, maxRetries int, seed int64) (float64, error) {
	ch, err := wireless.NewChannel(e.sys().Link, loss, maxRetries, seed)
	if err != nil {
		return 0, err
	}
	in := e.simInput()
	in.Channel = ch
	tr, err := eventsim.Simulate(in)
	if err != nil {
		return 0, err
	}
	return tr.Finish, nil
}

// SortedMetricNames lists the engine observer's registered series names
// — handy for discovering what to scrape.
func (e *Engine) SortedMetricNames() []string {
	snap := e.obs.reg.Snapshot()
	names := make([]string, len(snap))
	for i, m := range snap {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}
