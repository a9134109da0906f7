package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured record of the SLO event log: a classify, a
// re-cut decision, a circuit-breaker transition, a suspect-data
// quarantine or a node crash/recovery edge, stamped with the modeled
// time it happened and the trace ID of the span recorded for the same
// occurrence — the join key between the JSON event stream and the
// span ring.
type Event struct {
	// Seq is the log-assigned sequence number (1-based, per log).
	Seq uint64 `json:"seq"`
	// Trace is the span tracer's event ID for the same occurrence:
	// look for Span.Event == Trace in the tracer ring.
	Trace uint64 `json:"trace"`
	// TimeSeconds is the modeled clock reading when the event happened
	// (0 for engines without a modeled timeline).
	TimeSeconds float64 `json:"t_s"`
	// Wall is the host wall-clock time of the record.
	Wall time.Time `json:"wall"`
	// Kind is "classify", "recut-swap", "recut-rollback", "breaker",
	// "quarantine", "node-crash" or "node-recover".
	Kind string `json:"kind"`
	// Subject names the fleet subject, when known.
	Subject string `json:"subject,omitempty"`
	// Mode is the degradation rung that served a classify record.
	Mode string `json:"mode,omitempty"`
	// Detail carries kind-specific context: breaker "open->half-open",
	// quarantine reasons, re-cut cell movement.
	Detail string `json:"detail,omitempty"`
	// LatencySeconds is the event's modeled latency (classify records).
	LatencySeconds float64 `json:"latency_s,omitempty"`
	// EnergyJoules is the modeled sensor energy the event consumed.
	EnergyJoules float64 `json:"energy_j,omitempty"`
	// Degraded and Suspect mirror the span flags.
	Degraded bool `json:"degraded,omitempty"`
	Suspect  bool `json:"suspect,omitempty"`
}

// EventLog is a bounded structured event log: the newest Cap records
// are retained in a ring grown on demand, and every appended record is
// additionally written as one JSON line to the log's sink and the
// process-wide default sink, when installed. All methods are safe for
// concurrent use, and a nil *EventLog is a no-op.
type EventLog struct {
	mu       sync.Mutex
	ring     ring[Event]
	seq      uint64
	recorded uint64
	sink     io.Writer
}

// DefaultEventLogCapacity is the ring size used when a caller does not
// choose one.
const DefaultEventLogCapacity = 4096

// NewEventLog creates a log retaining the newest capacity records.
// Non-positive capacities fall back to DefaultEventLogCapacity.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventLogCapacity
	}
	return &EventLog{ring: newRing[Event](capacity)}
}

// defaultEventSink is the process-wide JSON-lines sink, nil unless
// installed — the hook CLI flags like -log-json use to capture every
// engine's event stream in one file.
var defaultEventSink atomic.Pointer[lockedWriter]

type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) writeLine(line []byte) {
	lw.mu.Lock()
	lw.w.Write(line) //nolint:errcheck // telemetry must never fail the serving path
	lw.mu.Unlock()
}

// SetDefaultEventSink installs (or, with nil, removes) the
// process-wide JSON-lines event sink. Every EventLog forwards each
// appended record there, so one file captures engines that were never
// explicitly wired.
func SetDefaultEventSink(w io.Writer) {
	if w == nil {
		defaultEventSink.Store(nil)
		return
	}
	defaultEventSink.Store(&lockedWriter{w: w})
}

// SetSink installs (or, with nil, removes) this log's own JSON-lines
// sink; each appended record is marshaled and written as one line.
func (l *EventLog) SetSink(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = w
	l.mu.Unlock()
}

// Append records one event, assigning its sequence number and wall
// time (when unset), and forwards it to the sinks.
func (l *EventLog) Append(e Event) {
	if l == nil {
		return
	}
	global := defaultEventSink.Load()
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	if e.Wall.IsZero() {
		e.Wall = time.Now()
	}
	l.recorded++
	l.ring.add(e)
	sink := l.sink
	l.mu.Unlock()

	if sink == nil && global == nil {
		return
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	line = append(line, '\n')
	if sink != nil {
		sink.Write(line) //nolint:errcheck // telemetry must never fail the serving path
	}
	if global != nil {
		global.writeLine(line)
	}
}

// Cap returns the ring capacity.
func (l *EventLog) Cap() int {
	if l == nil {
		return 0
	}
	return l.ring.size
}

// Len returns the number of retained records.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.len()
}

// Recorded returns the total number of records ever appended.
func (l *EventLog) Recorded() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recorded
}

// Dropped returns how many records were evicted from the ring.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.dropped(l.recorded)
}

// Events returns the retained records, oldest first. The result is a
// copy.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.items()
}

// Reset discards all retained records and counters; the sink stays.
func (l *EventLog) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring.reset()
	l.seq, l.recorded = 0, 0
}

// WriteJSONL writes the retained records as JSON lines, oldest first —
// the same shape the sinks stream. A nil log writes nothing.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	for _, e := range l.Events() {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
