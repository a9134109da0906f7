package xpro

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"xpro/internal/adaptive"
	"xpro/internal/faults"
	"xpro/internal/telemetry"
	"xpro/internal/xsystem"
)

// This file is the crash-tolerance layer of the engine: the durable
// per-subject state record, its CRC-enveloped checkpoint + append-only
// journal encoding (the persist.go snapshot discipline, applied to the
// tiny mutable half of an engine), and the Checkpoint/Recover API. The
// split matters for the population-scale fleet: everything trained and
// generated (classifier, topology, placement) is immutable and shared,
// while the state a crash wipes — breaker, channel estimator, RNG
// cursor, battery and quarantine ledgers, the modeled clock — fits in
// one fixed 117-byte record per subject. Checkpoint + journal replay
// reconstructs that record exactly, so a recovered engine continues
// the seeded timeline bit-identically to one that never died.

// ErrNodeDown marks a classification rejected because the subject's
// node is inside a node-crash or reboot fault window: the node is off
// the air, and nothing — not even the fallback ladder — can serve the
// event. Match with errors.Is; errors.As gives the *NodeDownError
// carrying the outage interval.
var ErrNodeDown = errors.New("xpro: node down")

// NodeDownError reports an event that arrived while the node was
// crashed or rebooting. The modeled clock still advances for the
// event (time passes whether or not the node is up), so a stream of
// arrivals eventually carries the node past UntilSeconds and it
// rejoins — warm from its durable store when one is attached,
// amnesiac otherwise.
type NodeDownError struct {
	// AtSeconds is the modeled arrival time; UntilSeconds when every
	// covering node-down window ends.
	AtSeconds    float64
	UntilSeconds float64
	// Graceful is true for an ordered reboot (the node flushed a final
	// checkpoint before going dark), false for a hard power loss.
	Graceful bool
}

func (e *NodeDownError) Error() string {
	kind := "crashed"
	if e.Graceful {
		kind = "rebooting"
	}
	return fmt.Sprintf("xpro: node %s at %.3fs (down until %.3fs)", kind, e.AtSeconds, e.UntilSeconds)
}

// Is makes errors.Is(err, ErrNodeDown) match.
func (e *NodeDownError) Is(target error) bool { return target == ErrNodeDown }

// ErrRecoveryCorrupt marks durable state that cannot be trusted: a
// checkpoint or journal that is structurally damaged beyond the
// crash-consistent torn tail Recover tolerates. Match with errors.Is;
// errors.As gives the *RecoveryError pinning the damage.
var ErrRecoveryCorrupt = errors.New("xpro: durable state corrupt")

// RecoveryError reports where durable-state decoding failed.
type RecoveryError struct {
	// Section is "checkpoint" or "journal"; Record the 0-based journal
	// record at fault (checkpoint errors report 0).
	Section string
	Record  int
	// Reason says what was wrong: bad magic, checksum mismatch,
	// sequence gap, duplicate record, out-of-range field.
	Reason string
}

func (e *RecoveryError) Error() string {
	if e.Section == "journal" {
		return fmt.Sprintf("xpro: journal record %d: %s", e.Record, e.Reason)
	}
	return fmt.Sprintf("xpro: checkpoint: %s", e.Reason)
}

// Is makes errors.Is(err, ErrRecoveryCorrupt) match.
func (e *RecoveryError) Is(target error) bool { return target == ErrRecoveryCorrupt }

// SubjectState is a view of the durable per-subject mutable state:
// everything a node crash wipes and a recovery must reconstruct for the
// seeded timeline to continue bit-identically. It is deliberately tiny —
// the trained classifier, topology and placement are immutable and
// rebuilt from Config (or a persist.go snapshot); this record is the
// part that changes per event.
type SubjectState struct {
	// Seq counts the events applied to the modeled timeline (served,
	// degraded or quarantined — everything that advanced the clock
	// except node-down rejections). Journal records carry consecutive
	// Seq values; a gap or duplicate is corruption.
	Seq uint64
	// ClockSeconds is the modeled clock after the last applied event.
	ClockSeconds float64
	// Breaker is the circuit breaker state ("closed", "half-open",
	// "open"), with its consecutive-failure streak and — while open —
	// the modeled time it opened.
	Breaker                string
	BreakerFailures        int
	BreakerOpenedAtSeconds float64
	// RNGDraws is the link RNG cursor: how many values the seeded
	// stream has produced. Re-seeding and discarding this many draws
	// reproduces the stream position exactly.
	RNGDraws uint64
	// EstimatedLoss / EstimatedOutage / EstimatorSamples and the two
	// pending tallies are the adaptive channel estimator's EWMA state
	// (zero without Config.Adaptive) — the warm prior a recovered node
	// resumes from instead of re-learning the channel from scratch.
	EstimatedLoss            float64
	EstimatedOutage          float64
	EstimatorSamples         int
	EstimatorPendingAttempts int64
	EstimatorPendingFailed   int64
	// EnergySpentJoules is the battery ledger: cumulative modeled
	// sensor-node energy this subject's events have drained. Remaining
	// charge is the battery capacity minus this.
	EnergySpentJoules float64
	// QuarantinedEvents / ImputedValues are the integrity ledgers.
	QuarantinedEvents uint64
	ImputedValues     uint64
	// Crashes / Recoveries count in-timeline node-down windows entered
	// and rejoined.
	Crashes    uint64
	Recoveries uint64
}

// ledgers are the root's durable counters. seq numbers every event
// applied to the timeline; energyJ, quarantined and imputed are the
// battery and integrity ledgers; crashes and recoveries count the
// node-down windows entered and rejoined.
type ledgers struct {
	seq         uint64
	energyJ     float64
	quarantined uint64
	imputed     uint64
	crashes     uint64
	recoveries  uint64
}

// record is the durable record: the 2-end runtime's snapshot, the
// root's ledgers and, while a tier plan is armed, the tier runtime's
// snapshot. The codec reads and writes it, and restoreLocked installs
// it.
type record struct {
	ledgers
	end  adaptive.EndState
	tier *adaptive.TierState
}

// validate is the one rule for a valid record: the runtimes' own checks
// plus the check on the root's ledgers. The encoder, the decoder and
// every restore call it.
func (rec *record) validate() error {
	if err := rec.end.Validate(); err != nil {
		return err
	}
	if rec.tier != nil {
		if err := rec.tier.Validate(); err != nil {
			return err
		}
	}
	if e := rec.energyJ; math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
		return fmt.Errorf("energy ledger %v must be finite and non-negative", e)
	}
	return nil
}

// public is the record's SubjectState view.
func (rec *record) public() SubjectState {
	est := rec.end.Estimator
	return SubjectState{
		Seq:                      rec.seq,
		ClockSeconds:             rec.end.ClockSeconds,
		Breaker:                  rec.end.Breaker.State.String(),
		BreakerFailures:          rec.end.Breaker.Failures,
		BreakerOpenedAtSeconds:   rec.end.Breaker.OpenedAt,
		RNGDraws:                 rec.end.Draws,
		EstimatedLoss:            est.Loss,
		EstimatedOutage:          est.Outage,
		EstimatorSamples:         est.Samples,
		EstimatorPendingAttempts: est.PendAttempts,
		EstimatorPendingFailed:   est.PendFailed,
		EnergySpentJoules:        rec.energyJ,
		QuarantinedEvents:        rec.quarantined,
		ImputedValues:            rec.imputed,
		Crashes:                  rec.crashes,
		Recoveries:               rec.recoveries,
	}
}

// The wire encoding is fixed-width big-endian — deterministic bytes
// per subject, no reflection, no varints — wrapped in the same
// magic + payload + CRC-32 (IEEE) envelope persist.go snapshots use.
// subjectStateBytes is the v1 core; an armed tier plan appends the
// recovery_tiered.go extension block after it, inside the envelope.
// The codec checks only the byte shape: lengths, magic, enum and flag
// bytes, and that every count fits the int its field decodes into.
// What a valid value is, record.validate alone decides.
const subjectStateBytes = 117

var (
	// checkpointMagic opens a checkpoint envelope; journalMagic opens
	// each append-only journal record.
	checkpointMagic = []byte("xprockpt\x01")
	journalMagic    = []byte("XPJ1")
)

// CheckpointBytes is the exact size of one encoded 2-end checkpoint;
// JournalRecordBytes of one journal record. Capacity planning for a
// million-subject fleet is a multiplication; an armed tier plan adds
// TieredStateBytes(hops) to each.
const (
	CheckpointBytes    = 9 + 4 + subjectStateBytes + 4
	JournalRecordBytes = 4 + 4 + subjectStateBytes + 4
)

// wire appends a record's fields. A count too wide for its field is
// written truncated and kept in err, so seal refuses the record.
type wire struct {
	buf []byte
	err error
}

func (w *wire) u64(v uint64)  { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *wire) f64(v float64) { w.u64(math.Float64bits(v)) }

// count32 writes a count as 4 bytes, count64 as 8; each must lie in
// [0, max], the range the decoder reads it back under.
func (w *wire) count32(v int) {
	w.fits(int64(v), math.MaxInt32)
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(v))
}

func (w *wire) count64(v, max int64) {
	w.fits(v, max)
	w.u64(uint64(v))
}

func (w *wire) fits(v, max int64) {
	if (v < 0 || v > max) && w.err == nil {
		w.err = fmt.Errorf("xpro: count %d does not fit its field [0,%d]", v, max)
	}
}

// link writes the 21 bytes one seeded link takes, the same in the v1
// core and in every XPTS hop: breaker code, breaker failures, opened-at
// and RNG cursor.
func (w *wire) link(b faults.BreakerSnapshot, draws uint64) {
	w.buf = append(w.buf, byte(b.State))
	w.count32(b.Failures)
	w.f64(b.OpenedAt)
	w.u64(draws)
}

// envelope writes rec as [magic][len u32][payload][crc32 u32]: the
// persist.go discipline with an explicit length for streamed journal
// records. The payload is the v1 core, then the XPTS block when rec
// carries a tier snapshot.
func (w *wire) envelope(magic []byte, rec *record) {
	w.buf = append(w.buf, magic...)
	w.buf = append(w.buf, 0, 0, 0, 0) // the payload length, stamped below
	start := len(w.buf)
	w.u64(rec.seq)
	w.f64(rec.end.ClockSeconds)
	w.link(rec.end.Breaker, rec.end.Draws)
	est := rec.end.Estimator
	w.f64(est.Loss)
	w.f64(est.Outage)
	w.count64(int64(est.Samples), math.MaxInt32)
	w.count64(est.PendAttempts, math.MaxInt64)
	w.count64(est.PendFailed, math.MaxInt64)
	w.f64(rec.energyJ)
	w.u64(rec.quarantined)
	w.u64(rec.imputed)
	w.u64(rec.crashes)
	w.u64(rec.recoveries)
	if rec.tier != nil {
		w.tier(rec.tier)
	}
	payload := w.buf[start:]
	binary.BigEndian.PutUint32(w.buf[start-4:], uint32(len(payload)))
	w.buf = binary.BigEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(payload))
}

// seal validates rec and encodes it in one envelope, so no record the
// decoder would refuse is ever written.
func seal(magic []byte, rec *record) ([]byte, error) {
	if err := rec.validate(); err != nil {
		return nil, err
	}
	n := len(magic) + 4 + subjectStateBytes + 4
	if rec.tier != nil {
		n += TieredStateBytes(len(rec.tier.Hops))
	}
	w := wire{buf: make([]byte, 0, n)}
	w.envelope(magic, rec)
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

// reader reads a payload whose length was checked first. A byte or a
// count its field cannot hold is kept in err.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) u8() byte {
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) u64() uint64 {
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) count32() int {
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	r.fits(uint64(v), math.MaxInt32)
	return int(v)
}

func (r *reader) count64(max int64) int64 {
	v := r.u64()
	r.fits(v, uint64(max))
	return int64(v)
}

func (r *reader) fits(v, max uint64) {
	if v > max {
		r.failf("count %d out of range [0,%d]", v, max)
	}
}

func (r *reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// link reads the 21 bytes wire.link writes.
func (r *reader) link() (faults.BreakerSnapshot, uint64) {
	var b faults.BreakerSnapshot
	b.State = faults.BreakerState(r.u8())
	switch b.State {
	case faults.BreakerClosed, faults.BreakerHalfOpen, faults.BreakerOpen:
	default:
		r.failf("invalid breaker state code %d", int(b.State))
	}
	b.Failures = r.count32()
	b.OpenedAt = r.f64()
	return b, r.u64()
}

// decodeRecord parses one payload: its byte shape, then the one rule.
func decodeRecord(buf []byte) (record, error) {
	var rec record
	if len(buf) < subjectStateBytes {
		return rec, fmt.Errorf("payload is %d bytes, want at least %d", len(buf), subjectStateBytes)
	}
	r := reader{buf: buf[:subjectStateBytes]}
	rec.seq = r.u64()
	rec.end.ClockSeconds = r.f64()
	rec.end.Breaker, rec.end.Draws = r.link()
	est := &rec.end.Estimator
	est.Loss = r.f64()
	est.Outage = r.f64()
	est.Samples = int(r.count64(math.MaxInt32))
	est.PendAttempts = r.count64(math.MaxInt64)
	est.PendFailed = r.count64(math.MaxInt64)
	rec.energyJ = r.f64()
	rec.quarantined = r.u64()
	rec.imputed = r.u64()
	rec.crashes = r.u64()
	rec.recoveries = r.u64()
	if r.err != nil {
		return record{}, r.err
	}
	if len(buf) > subjectStateBytes {
		ts, err := decodeTier(buf[subjectStateBytes:])
		if err != nil {
			return record{}, err
		}
		rec.tier = ts
	}
	if err := rec.validate(); err != nil {
		return record{}, err
	}
	return rec, nil
}

// decodeCheckpoint parses one checkpoint envelope. Unlike journal
// tails, a damaged checkpoint is never tolerated: it is the recovery
// base, and a wrong base corrupts everything replayed on top.
func decodeCheckpoint(buf []byte) (record, error) {
	n, rec, reason := openRecord(checkpointMagic, buf)
	if reason == "" && n != len(buf) {
		reason = fmt.Sprintf("%d trailing bytes after the envelope", len(buf)-n)
	}
	if reason != "" {
		return record{}, &RecoveryError{Section: "checkpoint", Reason: reason}
	}
	return rec, nil
}

// openRecord decodes the envelope at the head of buf, returning the
// bytes it spans and its record, or a non-empty reason on failure.
func openRecord(magic, buf []byte) (int, record, string) {
	if len(buf) < len(magic)+4 {
		return 0, record{}, "truncated before the length field"
	}
	if !bytes.HasPrefix(buf, magic) {
		return 0, record{}, "bad magic"
	}
	n := int(binary.BigEndian.Uint32(buf[len(magic):]))
	if n < subjectStateBytes || n > maxDurablePayload {
		return 0, record{}, fmt.Sprintf("payload length %d outside [%d,%d]", n, subjectStateBytes, maxDurablePayload)
	}
	total := len(magic) + 4 + n + 4
	if len(buf) < total {
		return 0, record{}, fmt.Sprintf("truncated envelope (%d of %d bytes)", len(buf), total)
	}
	payload := buf[len(magic)+4 : total-4]
	want := binary.BigEndian.Uint32(buf[total-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return 0, record{}, fmt.Sprintf("checksum mismatch (stored %#08x, computed %#08x)", want, got)
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return 0, record{}, err.Error()
	}
	return total, rec, ""
}

// RecoveryReport summarizes what Recover reconstructed.
type RecoveryReport struct {
	// CheckpointSeq is the event sequence the checkpoint carried (0
	// when recovery started from a bare journal).
	CheckpointSeq uint64
	// Seq is the sequence after journal replay — the number of events
	// the recovered engine has applied, exactly.
	Seq uint64
	// JournalRecords counts the intact records replayed on top of the
	// checkpoint.
	JournalRecords int
	// TornTail is true when the journal ended mid-record — the
	// crash-consistent case of dying inside an append. The torn bytes
	// are discarded; state is the last intact record.
	TornTail bool
}

// decodeDurable reconstructs the durable record from checkpoint and
// journal bytes. A damaged final record is tolerated as a torn tail;
// damage anywhere else — bad magic mid-stream, checksum mismatch with
// intact records after it, a sequence gap or duplicate — returns a
// typed *RecoveryError and no state. Either input may be empty, but
// not both.
func decodeDurable(ckpt, jrnl []byte) (record, RecoveryReport, error) {
	var (
		st   record
		rep  RecoveryReport
		base bool
	)
	if len(ckpt) > 0 {
		var err error
		st, err = decodeCheckpoint(ckpt)
		if err != nil {
			return record{}, rep, err
		}
		rep.CheckpointSeq = st.seq
		base = true
	}
	off := 0
	for rec := 0; off < len(jrnl); rec++ {
		next, parsed, perr := openRecord(journalMagic, jrnl[off:])
		if perr != "" {
			// A later intact record proves the damage is structural
			// corruption, not a torn final append.
			if rest := jrnl[off:]; laterIntactRecord(rest) {
				return record{}, RecoveryReport{}, &RecoveryError{Section: "journal", Record: rec, Reason: perr}
			}
			rep.TornTail = true
			break
		}
		if base || rec > 0 {
			switch {
			case parsed.seq == st.seq:
				return record{}, RecoveryReport{}, &RecoveryError{Section: "journal", Record: rec,
					Reason: fmt.Sprintf("duplicate record for event %d", parsed.seq)}
			case parsed.seq != st.seq+1:
				return record{}, RecoveryReport{}, &RecoveryError{Section: "journal", Record: rec,
					Reason: fmt.Sprintf("sequence gap: record carries event %d after %d", parsed.seq, st.seq)}
			}
		}
		st = parsed
		rep.JournalRecords++
		base = true
		off += next
	}
	if !base {
		return record{}, rep, &RecoveryError{Section: "checkpoint", Reason: "no intact durable state (empty checkpoint and journal)"}
	}
	rep.Seq = st.seq
	return st, rep, nil
}

// laterIntactRecord reports whether any intact record starts after the
// first byte of buf — the damage-vs-torn-tail discriminator.
func laterIntactRecord(buf []byte) bool {
	for off := 1; ; {
		i := bytes.Index(buf[off:], journalMagic)
		if i < 0 {
			return false
		}
		off += i
		if n, _, reason := openRecord(journalMagic, buf[off:]); reason == "" && n > 0 {
			return true
		}
		off++
	}
}

// DurableStore is an in-memory durable medium for one subject's
// checkpoint and journal — what a real deployment would back with a
// file or a KV cell per subject. The zero value is ready to use; all
// methods are safe for concurrent use. It implements io.Writer for
// journal appends, so Engine journaling and tests can also write
// through any other sink.
type DurableStore struct {
	mu   sync.Mutex
	ckpt []byte
	jrnl []byte
}

// NewDurableStore returns an empty store.
func NewDurableStore() *DurableStore { return &DurableStore{} }

// Write appends journal bytes (the io.Writer contract).
func (s *DurableStore) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jrnl = append(s.jrnl, p...)
	return len(p), nil
}

// SetCheckpoint replaces the checkpoint and truncates the journal —
// compaction: every journaled event up to the checkpoint is folded in.
func (s *DurableStore) SetCheckpoint(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ckpt = append(s.ckpt[:0], b...)
	s.jrnl = s.jrnl[:0]
}

// Checkpoint returns a copy of the stored checkpoint bytes.
func (s *DurableStore) Checkpoint() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.ckpt...)
}

// Journal returns a copy of the journal bytes appended since the last
// checkpoint.
func (s *DurableStore) Journal() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.jrnl...)
}

// SizeBytes is the store's footprint: checkpoint plus journal.
func (s *DurableStore) SizeBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ckpt) + len(s.jrnl)
}

// errNoResilience rejects recovery calls on engines without the
// fault-tolerance layer: there is no mutable subject state to persist.
func errNoResilience() error {
	return errors.New("xpro: crash recovery needs a Resilience policy (or FaultPlan/Adaptive/Integrity) — a plain engine has no durable subject state")
}

// SubjectState returns the engine's current durable state record.
func (e *Engine) SubjectState() (SubjectState, error) {
	if e.res == nil {
		return SubjectState{}, errNoResilience()
	}
	e.res.mu.Lock()
	defer e.res.mu.Unlock()
	rec := record{ledgers: e.res.ledgers, end: e.res.rt.Snapshot()}
	return rec.public(), nil
}

// Checkpoint serializes the durable subject state to w as one
// CRC-enveloped record (CheckpointBytes long). Writing to a
// *DurableStore compacts it: the checkpoint replaces the stored one
// and truncates the journal.
func (e *Engine) Checkpoint(w io.Writer) error {
	if e.res == nil {
		return errNoResilience()
	}
	e.res.mu.Lock()
	defer e.res.mu.Unlock()
	return e.res.checkpointLocked(e, w)
}

// EnableRecovery attaches a durable store: the current state is
// checkpointed into it immediately, and from now on every applied
// event appends one journal record, so the store always reconstructs
// the engine as of its last event. If the engine later enters a
// node-down fault window, it rejoins warm from this store (an ordered
// reboot window also flushes a final checkpoint on its way down);
// without a store it rejoins amnesiac.
func (e *Engine) EnableRecovery(s *DurableStore) error {
	if e.res == nil {
		return errNoResilience()
	}
	if s == nil {
		return errors.New("xpro: EnableRecovery needs a store")
	}
	r := e.res
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = s
	return r.checkpointLocked(e, s)
}

// Recover rewinds the engine to the state a checkpoint + journal pair
// reconstructs: the modeled clock, breaker, RNG cursor, estimator and
// every ledger are restored, so the next Classify continues the seeded
// timeline bit-identically to an engine that never died. Either reader
// may be nil (checkpoint-only or journal-only recovery). A journal
// that ends mid-record is accepted as a torn tail (reported, not
// fatal); any other damage returns a typed error matching
// ErrRecoveryCorrupt and leaves the engine untouched.
func (e *Engine) Recover(checkpoint, journal io.Reader) (RecoveryReport, error) {
	if e.res == nil {
		return RecoveryReport{}, errNoResilience()
	}
	readAll := func(r io.Reader) ([]byte, error) {
		if r == nil {
			return nil, nil
		}
		return io.ReadAll(r)
	}
	ckpt, err := readAll(checkpoint)
	if err != nil {
		return RecoveryReport{}, fmt.Errorf("xpro: reading checkpoint: %w", err)
	}
	jrnl, err := readAll(journal)
	if err != nil {
		return RecoveryReport{}, fmt.Errorf("xpro: reading journal: %w", err)
	}
	rec, rep, err := decodeDurable(ckpt, jrnl)
	if err != nil {
		return rep, err
	}
	r := e.res
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.restoreLocked(e, rec, true); err != nil {
		return rep, err
	}
	e.obs.reg.Counter("xpro_recover_total",
		"Engine recoveries from a durable checkpoint + journal.").Inc()
	return rep, nil
}

// RecoverFrom is Recover from a DurableStore, re-armed: after the
// restore the store is re-attached for journaling and compacted with
// a fresh checkpoint, so repeated crash/recover cycles keep the store
// bounded. This is the one-call restart path:
//
//	eng, _ := xpro.New(cfg)          // same Config as the dead engine
//	rep, err := eng.RecoverFrom(st)  // resume the timeline exactly
func (e *Engine) RecoverFrom(s *DurableStore) (RecoveryReport, error) {
	if s == nil {
		return RecoveryReport{}, errors.New("xpro: RecoverFrom needs a store")
	}
	rep, err := e.Recover(bytes.NewReader(s.Checkpoint()), bytes.NewReader(s.Journal()))
	if err != nil {
		return rep, err
	}
	r := e.res
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = s
	return rep, r.checkpointLocked(e, s)
}

// --- resilient-side plumbing (caller holds r.mu) ---

// restoreLocked installs a record: the one path for a process-level
// Recover and an in-timeline warm rejoin. restoreClock rewinds both
// runtimes' clocks, the 2-end one and the armed tier plan's, to the
// record's instants; without it (a warm rejoin: the node kept living
// through modeled time while down) both keep their clocks and only the
// volatile state is restored. The whole record is checked before any
// of it is applied, so a rejected one leaves the engine and its tier
// plan as they were.
func (r *resilient) restoreLocked(e *Engine, rec record, restoreClock bool) error {
	fail := func(reason string) error { return &RecoveryError{Section: "checkpoint", Reason: reason} }
	if err := rec.validate(); err != nil {
		return fail(err.Error())
	}
	var tp *TierPlan
	if rec.tier != nil {
		if tp = e.tier.Load(); tp == nil {
			return fail("record carries tiered hop state but no tier plan is armed")
		}
		// The plan lock nests under r.mu, as in recordLocked.
		tp.mu.Lock()
		defer tp.mu.Unlock()
		if nh := int(tp.rt.FullCap()); len(rec.tier.Hops) != nh {
			return fail(fmt.Sprintf("record covers %d hops, the armed chain has %d", len(rec.tier.Hops), nh))
		}
	}
	if !restoreClock {
		rec.end.ClockSeconds = r.rt.Clock().Now()
		if tp != nil {
			ts := *rec.tier
			ts.ClockSeconds = tp.rt.Options().Clock.Now()
			rec.tier = &ts
		}
	}
	// Neither runtime rejects what validate and the hop count passed.
	_ = r.rt.Restore(rec.end)
	if tp != nil {
		before := tp.rt.Steady()
		_ = tp.rt.Restore(*rec.tier)
		if tp.rt.Steady() != before {
			tp.bump()
		}
	}
	// Crash bookkeeping merges monotonically: a warm rejoin must not
	// let a pre-crash record roll back the crash it just survived.
	crashes, recoveries := max(r.crashes, rec.crashes), max(r.recoveries, rec.recoveries)
	r.ledgers = rec.ledgers
	r.crashes, r.recoveries = crashes, recoveries
	r.lastState = r.plan.At(r.rt.Clock().Now())
	e.epoch.Add(1)
	return nil
}

// checkpointLocked encodes the current state to w, compacting when w
// is a *DurableStore, and stamps the checkpoint age the health report
// serves.
func (r *resilient) checkpointLocked(e *Engine, w io.Writer) error {
	rec := r.recordLocked(e)
	buf, err := seal(checkpointMagic, &rec)
	if err != nil {
		return err
	}
	if s, ok := w.(*DurableStore); ok {
		s.SetCheckpoint(buf)
	} else if _, err := w.Write(buf); err != nil {
		return err
	}
	r.lastCkpt = r.rt.Clock().Now()
	e.obs.reg.Counter("xpro_checkpoints_total",
		"Durable subject-state checkpoints written.").Inc()
	return nil
}

// ledgerLocked advances the durable event ledger after one applied
// event — anything that consumed modeled time except a node-down
// rejection — and, with a store attached, journals the post-event
// state. err is the event's outcome error (quarantines count).
func (r *resilient) ledgerLocked(e *Engine, res Result, err error) {
	r.seq++
	r.energyJ += res.SensorEnergyJoules
	r.imputed += uint64(res.ImputedValues)
	if err != nil {
		// A FailFast event returns no Result, but its attempt drained
		// the battery all the same.
		var nores *xsystem.NoResultError
		if errors.As(err, &nores) {
			r.energyJ += nores.Outcome.SensorEnergy
		}
		if errors.Is(err, ErrSuspectData) {
			r.quarantined++
		}
	}
	if r.store != nil {
		r.journalLocked(e)
	}
}

// journalLocked appends one record for the event just applied. A sink
// failure is counted, not fatal: the engine keeps serving and the
// operator sees the durability gap on /metrics.
func (r *resilient) journalLocked(e *Engine) {
	rec := r.recordLocked(e)
	buf, err := seal(journalMagic, &rec)
	if err == nil {
		_, err = r.store.Write(buf)
	}
	if err != nil {
		journalErrors(e).Inc()
		return
	}
	e.obs.reg.Counter("xpro_journal_records_total",
		"Durable journal records appended.").Inc()
}

// crashLocked runs once at the first event inside a node-down window:
// the serving epoch moves, the crash is counted, and an ordered reboot
// flushes a final checkpoint before the lights go out.
func (r *resilient) crashLocked(e *Engine, graceful bool, now float64) {
	r.down = true
	r.crashes++
	e.epoch.Add(1)
	detail := "power-loss"
	if graceful {
		detail = "graceful-reboot"
		if r.store != nil {
			// Best-effort: a failed flush degrades the rejoin to the
			// previous checkpoint + journal, it does not block the crash.
			_ = r.checkpointLocked(e, r.store)
		}
	}
	e.obs.reg.Counter("xpro_node_crashes_total",
		"Node-down fault windows entered (volatile state wiped).").Inc()
	e.obs.events.Append(telemetry.Event{
		TimeSeconds: now, Kind: "node-crash", Detail: detail,
	})
}

// journalErrors counts durable-store failures of both kinds.
func journalErrors(e *Engine) *telemetry.Counter {
	return e.obs.reg.Counter("xpro_journal_errors_total",
		"Durable-store failures: journal records that failed to encode or append, and stores a rejoining node could not restore.")
}

// rejoinLocked runs at the first event after a node-down window: the
// node comes back warm from its durable store when it has one and the
// store restores, amnesiac otherwise (volatile state reset to birth).
// The event log tells a node without a store ("amnesiac") from one
// whose store was refused ("amnesiac-corrupt-store").
func (r *resilient) rejoinLocked(e *Engine, now float64) {
	r.down = false
	r.recoveries++
	e.epoch.Add(1)
	detail := "amnesiac"
	if r.store != nil {
		rec, _, err := decodeDurable(r.store.Checkpoint(), r.store.Journal())
		if err == nil {
			err = r.restoreLocked(e, rec, false)
		}
		if err == nil {
			detail = "warm"
		} else {
			detail = "amnesiac-corrupt-store"
			journalErrors(e).Inc()
			r.amnesiaLocked(e)
		}
	} else {
		r.amnesiaLocked(e)
	}
	e.obs.reg.Counter("xpro_node_recoveries_total",
		"Node rejoins after a node-down fault window.").Inc()
	e.obs.events.Append(telemetry.Event{
		TimeSeconds: now, Kind: "node-recover", Detail: detail,
	})
}

// amnesiaLocked models a reboot without durable state: the subject
// ledgers, breaker, estimator and RNG cursor reset to their
// construction values — the node resumes as if newborn, which is
// exactly the failure mode EnableRecovery exists to prevent. The
// modeled clock is left alone: time passed whether or not the node
// remembers it. Crash/recovery bookkeeping also survives — it models
// the fleet's view of the node, not the node's own memory.
func (r *resilient) amnesiaLocked(e *Engine) {
	r.ledgers = ledgers{crashes: r.crashes, recoveries: r.recoveries}
	_ = r.rt.Restore(adaptive.EndState{ClockSeconds: r.rt.Clock().Now()})
	e.epoch.Add(1)
}

// recoveryStatus is the health view of the crash layer: liveness, the
// crash/recovery counters, and the age of the last checkpoint in
// modeled seconds (-1 when never checkpointed).
func (r *resilient) recoveryStatus() (live bool, crashes, recoveries uint64, ckptAge float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ckptAge = -1
	if r.lastCkpt >= 0 {
		ckptAge = r.rt.Clock().Now() - r.lastCkpt
	}
	return !r.down, r.crashes, r.recoveries, ckptAge
}
