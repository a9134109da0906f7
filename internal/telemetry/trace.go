package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one recorded unit of work: a functional-cell activation
// during Classify, or a whole-event marker. Wall time is measured;
// energy and delay are the system's modeled per-activation costs, so a
// trace carries both what the host actually spent and what the modeled
// hardware would have.
type Span struct {
	// Seq is the tracer-assigned global sequence number.
	Seq uint64 `json:"seq"`
	// Event groups the spans of one classification event.
	Event uint64 `json:"event"`
	// Name is the cell name (e.g. "dwt1", "svm3") or "classify" for the
	// whole-event span.
	Name string `json:"name"`
	// End is where the work ran: "sensor", "aggregator" or "event".
	End string `json:"end"`
	// Start is the host wall-clock start time.
	Start time.Time `json:"start"`
	// Wall is the measured host execution time.
	Wall time.Duration `json:"wall_ns"`
	// EnergyJoules is the modeled per-activation energy on End.
	EnergyJoules float64 `json:"energy_j,omitempty"`
	// DelaySeconds is the modeled per-activation latency on End.
	DelaySeconds float64 `json:"delay_s,omitempty"`
	// Degraded marks an event span whose classification was served
	// through a degraded path (partial fusion or a fallback cut).
	Degraded bool `json:"degraded,omitempty"`
	// Suspect marks an event span the signal-quality gate rejected or
	// quarantined.
	Suspect bool `json:"suspect,omitempty"`
	// Err carries a failure message, empty on success.
	Err string `json:"err,omitempty"`
}

// Tracer records spans into a bounded ring buffer: the newest Cap spans
// are retained, older ones are dropped. The buffer grows on demand up
// to Cap. All methods are safe for concurrent use, and a nil *Tracer is
// a no-op.
type Tracer struct {
	mu       sync.Mutex
	ring     ring[Span]
	seq      uint64
	events   uint64
	recorded uint64
}

// DefaultTraceCapacity is the span ring size used when a caller does
// not choose one.
const DefaultTraceCapacity = 4096

// NewTracer creates a tracer retaining the newest capacity spans.
// Non-positive capacities fall back to DefaultTraceCapacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: newRing[Span](capacity)}
}

// NextEvent allocates a fresh event ID for grouping spans.
func (t *Tracer) NextEvent() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events++
	return t.events
}

// Add records one span, assigning its sequence number. The oldest span
// is evicted when the ring is full.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	s.Seq = t.seq
	t.recorded++
	t.ring.add(s)
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return t.ring.size
}

// Len returns the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.len()
}

// Recorded returns the total number of spans ever recorded.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recorded
}

// Dropped returns how many spans were evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropLocked()
}

func (t *Tracer) dropLocked() uint64 { return t.ring.dropped(t.recorded) }

// Spans returns the retained spans, oldest first. The result is a copy.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.items()
}

// Reset discards all retained spans and counters.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring.reset()
	t.seq, t.recorded = 0, 0
}

// traceJSON is the wire shape of an exported trace.
type traceJSON struct {
	Capacity int    `json:"capacity"`
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
	Spans    []Span `json:"spans"`
}

// WriteJSON writes the retained spans as one JSON document:
// {"capacity":…,"recorded":…,"dropped":…,"spans":[…]}. A nil tracer
// writes an empty document, so HTTP handlers need no guards.
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := traceJSON{Spans: []Span{}}
	if t != nil {
		doc.Capacity = t.Cap()
		if spans := t.Spans(); len(spans) > 0 {
			doc.Spans = spans
		}
		t.mu.Lock()
		doc.Recorded = t.recorded
		doc.Dropped = t.dropLocked()
		t.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
