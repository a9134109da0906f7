// Package telemetry is the observability substrate of the xpro
// reproduction: a dependency-free, concurrency-safe metrics registry
// (counters, gauges and fixed-bucket histograms), a bounded span tracer
// recording per-cell execution, and an opt-in introspection HTTP server
// (server.go) exposing Prometheus-style text exposition, the span ring
// and pprof.
//
// The paper argues at the granularity of functional cells (§3); this
// package makes that granularity observable at runtime: where time,
// energy and failures go while the partitioned engine classifies, the
// generator solves cuts, and the event simulator schedules transfers.
//
// Two properties keep instrumentation call sites clean:
//
//   - Every handle is nil-tolerant: a nil *Registry hands out nil
//     *Counter/*Gauge/*Histogram handles, and every method on a nil
//     handle (including a nil *Tracer) is a no-op. Instrumented code
//     therefore never needs nil guards.
//
//   - Registration is get-or-create and idempotent: asking twice for
//     the same name returns the same metric, so hot paths can resolve
//     handles on every call without bookkeeping.
//
// A process-wide Default registry catches instrumentation from
// components not explicitly wired to an engine-local registry (e.g. the
// experiment harness), so CLI tools can expose the whole process with
// one server.
package telemetry

import (
	"expvar"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricKind discriminates the registry's metric types.
type MetricKind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter MetricKind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
	// KindQuantile is a windowed quantile sketch, exposed in the
	// Prometheus summary shape: windowed quantiles plus cumulative
	// _sum and _count.
	KindQuantile
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindQuantile:
		return "summary"
	default:
		return "untyped"
	}
}

// DurationBuckets is the default histogram layout for wall-time
// observations: decades from 1 µs to 10 s.
var DurationBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// Counter is a monotonically increasing float64. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v. Negative and NaN deltas are ignored
// (counters are monotonic).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 || math.IsNaN(v) {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an arbitrary float64 value. The zero value is ready to use;
// a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increases (or, for negative v, decreases) the gauge by v.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative in
// exposition (Prometheus semantics): bucket le=u counts observations
// v ≤ u, with an implicit +Inf bucket. A nil *Histogram is a no-op.
type Histogram struct {
	uppers  []float64
	buckets []atomic.Uint64 // len(uppers)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(uppers []float64) *Histogram {
	us := append([]float64(nil), uppers...)
	sort.Float64s(us)
	// Drop duplicates and non-finite bounds (+Inf is implicit).
	dst := us[:0]
	for _, u := range us {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			continue
		}
		if len(dst) == 0 || dst[len(dst)-1] != u {
			dst = append(dst, u)
		}
	}
	us = dst
	return &Histogram{uppers: us, buckets: make([]atomic.Uint64, len(us)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.uppers, v) // first upper bound ≥ v
	h.buckets[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry. A nil *Registry hands out nil
// metric handles, so instrumentation through an unset registry is free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	quants   map[string]*Quantile
	help     map[string]string     // keyed by family name
	kinds    map[string]MetricKind // keyed by family name
	order    []string              // full names in registration order
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		quants:   make(map[string]*Quantile),
		help:     make(map[string]string),
		kinds:    make(map[string]MetricKind),
	}
}

var std = NewRegistry()

// Default returns the process-wide registry: the sink for components
// that were not wired to an explicit registry.
func Default() *Registry { return std }

// defaultTracer is the process-wide span sink, nil unless installed.
var defaultTracer atomic.Pointer[Tracer]

// DefaultTracer returns the process-wide tracer, or nil when none has
// been installed — tracing is opt-in.
func DefaultTracer() *Tracer { return defaultTracer.Load() }

// SetDefaultTracer installs (or, with nil, removes) the process-wide
// tracer used by components without an explicit one.
func SetDefaultTracer(t *Tracer) { defaultTracer.Store(t) }

// familyOf strips the {label} suffix, if any, from a full metric name.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// sanitizeName maps name to the exposition character set
// [a-zA-Z0-9_:]; the {label="value"} suffix, if present, is kept as is.
// A name whose family is already clean comes back unchanged, without
// a copy.
func sanitizeName(name string) string {
	fam := familyOf(name)
	i := 0
	for i < len(fam) && nameChar(fam[i], i) {
		i++
	}
	if i == len(fam) {
		return name
	}
	clean := []byte(fam)
	for ; i < len(clean); i++ {
		if !nameChar(clean[i], i) {
			clean[i] = '_'
		}
	}
	return string(clean) + name[len(fam):]
}

// nameChar reports whether c may stand at position i of a family name.
func nameChar(c byte, i int) bool {
	return c == '_' || c == ':' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
		(c >= '0' && c <= '9' && i > 0)
}

// claim reserves a family for kind and records its help text. It
// reports whether the family is usable for that kind.
func (r *Registry) claim(name string, kind MetricKind, help string) bool {
	fam := familyOf(name)
	if k, ok := r.kinds[fam]; ok && k != kind {
		return false
	}
	r.kinds[fam] = kind
	if _, ok := r.help[fam]; !ok && help != "" {
		r.help[fam] = help
	}
	return true
}

// Counter returns the counter registered under name, creating it on
// first use. name may carry a {label="value"} suffix built with
// WithLabels; all series of one family share kind and help. Asking for
// a name already registered as a different kind returns a detached,
// unexported counter so the call site still works.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	name = sanitizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	if !r.claim(name, KindCounter, help) {
		return new(Counter)
	}
	c := new(Counter)
	r.counters[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. See Counter for naming and clash semantics.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	name = sanitizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	if !r.claim(name, KindGauge, help) {
		return new(Gauge)
	}
	g := new(Gauge)
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds on first use (later calls reuse
// the first layout). See Counter for naming and clash semantics.
func (r *Registry) Histogram(name, help string, uppers []float64) *Histogram {
	if r == nil {
		return nil
	}
	name = sanitizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	if !r.claim(name, KindHistogram, help) {
		return newHistogram(uppers)
	}
	h := newHistogram(uppers)
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

// Quantile returns the windowed quantile series registered under
// name, creating it with the given rolling window on first use (later
// calls reuse the first window; non-positive windows take
// DefaultSLOWindowSeconds). See Counter for naming and clash
// semantics.
func (r *Registry) Quantile(name, help string, windowSeconds float64) *Quantile {
	if r == nil {
		return nil
	}
	name = sanitizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if q, ok := r.quants[name]; ok {
		return q
	}
	if !r.claim(name, KindQuantile, help) {
		return newQuantile(windowSeconds)
	}
	q := newQuantile(windowSeconds)
	r.quants[name] = q
	r.order = append(r.order, name)
	return q
}

// WithLabels renders name{k="v",...} with keys sorted and values
// escaped, the exposition-format series name for a labeled metric.
func WithLabels(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(labels[k]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// PublishExpvar publishes the registry's live snapshot under the given
// expvar name (visible on /debug/vars). Publishing the same name twice
// is a no-op, so multiple components may race to publish safely.
func (r *Registry) PublishExpvar(name string) {
	if r == nil || name == "" {
		return
	}
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any {
		out := make(map[string]any)
		for _, m := range r.Snapshot() {
			switch m.Kind {
			case KindHistogram:
				out[m.Name] = map[string]any{"count": m.Count, "sum": m.Sum}
			default:
				out[m.Name] = m.Value
			}
		}
		return out
	}))
}

var publishMu sync.Mutex
