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

// SubjectState is the durable per-subject mutable state: everything a
// node crash wipes and a recovery must reconstruct for the seeded
// timeline to continue bit-identically. It is deliberately tiny — the
// trained classifier, topology and placement are immutable and rebuilt
// from Config (or a persist.go snapshot); this record is the part that
// changes per event.
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
	// Tiered is the armed tier runtime's per-hop state (nil on a 2-end
	// engine or before Arm). It rides in the same CRC envelope as an
	// optional extension block, so a tiered engine's checkpoint rewinds
	// the whole ladder — hop breakers, per-hop RNG cursors, probe
	// schedule, steady rung — not just the 2-end core.
	Tiered *TieredSubjectState
}

// The wire encoding is fixed-width big-endian — deterministic bytes
// per subject, no reflection, no varints — wrapped in the same
// magic + payload + CRC-32 (IEEE) envelope persist.go snapshots use.
// subjectStateBytes is the v1 core; an armed tier plan appends the
// recovery_tiered.go extension block after it, inside the envelope.
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

var breakerNames = map[string]faults.BreakerState{
	"closed":    faults.BreakerClosed,
	"half-open": faults.BreakerHalfOpen,
	"open":      faults.BreakerOpen,
}

func encodeState(st SubjectState) ([]byte, error) {
	code, ok := breakerNames[st.Breaker]
	if !ok {
		return nil, fmt.Errorf("xpro: unknown breaker state %q", st.Breaker)
	}
	buf := make([]byte, 0, subjectStateBytes)
	u64 := func(v uint64) { buf = binary.BigEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v)) }
	u64(st.Seq)
	f64(st.ClockSeconds)
	buf = append(buf, byte(code))
	buf = binary.BigEndian.AppendUint32(buf, uint32(st.BreakerFailures))
	f64(st.BreakerOpenedAtSeconds)
	u64(st.RNGDraws)
	f64(st.EstimatedLoss)
	f64(st.EstimatedOutage)
	u64(uint64(st.EstimatorSamples))
	u64(uint64(st.EstimatorPendingAttempts))
	u64(uint64(st.EstimatorPendingFailed))
	f64(st.EnergySpentJoules)
	u64(st.QuarantinedEvents)
	u64(st.ImputedValues)
	u64(st.Crashes)
	u64(st.Recoveries)
	if st.Tiered != nil {
		return appendTieredExt(buf, st.Tiered)
	}
	return buf, nil
}

// decodeState parses and validates one fixed-width payload. Every
// range check lives here, so a CRC-valid but hostile record cannot
// smuggle NaN clocks, negative streaks or an unrestorable RNG cursor
// into a live engine.
func decodeState(buf []byte) (SubjectState, error) {
	var st SubjectState
	if len(buf) < subjectStateBytes {
		return st, fmt.Errorf("payload is %d bytes, want at least %d", len(buf), subjectStateBytes)
	}
	off := 0
	u64 := func() uint64 { v := binary.BigEndian.Uint64(buf[off:]); off += 8; return v }
	f64 := func() float64 { return math.Float64frombits(u64()) }
	st.Seq = u64()
	st.ClockSeconds = f64()
	code := faults.BreakerState(buf[off])
	off++
	failures := binary.BigEndian.Uint32(buf[off:])
	off += 4
	st.BreakerOpenedAtSeconds = f64()
	st.RNGDraws = u64()
	st.EstimatedLoss = f64()
	st.EstimatedOutage = f64()
	samples := u64()
	pendA := u64()
	pendF := u64()
	st.EnergySpentJoules = f64()
	st.QuarantinedEvents = u64()
	st.ImputedValues = u64()
	st.Crashes = u64()
	st.Recoveries = u64()

	switch code {
	case faults.BreakerClosed, faults.BreakerHalfOpen, faults.BreakerOpen:
		st.Breaker = code.String()
	default:
		return st, fmt.Errorf("invalid breaker state code %d", int(code))
	}
	if failures > math.MaxInt32 {
		return st, fmt.Errorf("breaker failure streak %d out of range", failures)
	}
	st.BreakerFailures = int(failures)
	if !finite(st.ClockSeconds) || st.ClockSeconds < 0 {
		return st, fmt.Errorf("clock %v must be finite and non-negative", st.ClockSeconds)
	}
	if !finite(st.BreakerOpenedAtSeconds) || st.BreakerOpenedAtSeconds < 0 {
		return st, fmt.Errorf("breaker opened-at %v must be finite and non-negative", st.BreakerOpenedAtSeconds)
	}
	if st.RNGDraws > faults.MaxRNGDraws {
		return st, fmt.Errorf("RNG cursor %d exceeds the restorable maximum", st.RNGDraws)
	}
	if !(st.EstimatedLoss >= 0 && st.EstimatedLoss <= 1) || !(st.EstimatedOutage >= 0 && st.EstimatedOutage <= 1) {
		return st, fmt.Errorf("estimator loss %v / outage %v outside [0,1]", st.EstimatedLoss, st.EstimatedOutage)
	}
	if samples > math.MaxInt32 || pendA > math.MaxInt64 || pendF > math.MaxInt64 {
		return st, fmt.Errorf("estimator counters out of range")
	}
	st.EstimatorSamples = int(samples)
	st.EstimatorPendingAttempts = int64(pendA)
	st.EstimatorPendingFailed = int64(pendF)
	if !finite(st.EnergySpentJoules) || st.EnergySpentJoules < 0 {
		return st, fmt.Errorf("energy ledger %v must be finite and non-negative", st.EnergySpentJoules)
	}
	if len(buf) > subjectStateBytes {
		ts, err := decodeTieredExt(buf[subjectStateBytes:])
		if err != nil {
			return st, err
		}
		st.Tiered = ts
	}
	return st, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// envelope wraps a payload as [magic][len u32][payload][crc32 u32],
// the persist.go discipline with an explicit length for streamed
// journal records.
func envelope(magic, payload []byte) []byte {
	buf := make([]byte, 0, len(magic)+4+len(payload)+4)
	buf = append(buf, magic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return buf
}

func encodeCheckpoint(st SubjectState) ([]byte, error) {
	payload, err := encodeState(st)
	if err != nil {
		return nil, err
	}
	return envelope(checkpointMagic, payload), nil
}

func encodeJournalRecord(st SubjectState) ([]byte, error) {
	payload, err := encodeState(st)
	if err != nil {
		return nil, err
	}
	return envelope(journalMagic, payload), nil
}

// decodeCheckpoint parses one checkpoint envelope. Unlike journal
// tails, a damaged checkpoint is never tolerated: it is the recovery
// base, and a wrong base corrupts everything replayed on top.
func decodeCheckpoint(buf []byte) (SubjectState, error) {
	fail := func(reason string) (SubjectState, error) {
		return SubjectState{}, &RecoveryError{Section: "checkpoint", Reason: reason}
	}
	if !bytes.HasPrefix(buf, checkpointMagic) {
		return fail("bad magic")
	}
	body := buf[len(checkpointMagic):]
	if len(body) < 4 {
		return fail("truncated before the length field")
	}
	n := int(binary.BigEndian.Uint32(body))
	if n < subjectStateBytes || n > maxDurablePayload {
		return fail(fmt.Sprintf("payload length %d outside [%d,%d]", n, subjectStateBytes, maxDurablePayload))
	}
	body = body[4:]
	if len(body) < n+4 {
		return fail(fmt.Sprintf("truncated payload (%d of %d bytes)", len(body), n+4))
	}
	if len(body) > n+4 {
		return fail(fmt.Sprintf("%d trailing bytes after the envelope", len(body)-n-4))
	}
	payload, sum := body[:n], body[n:]
	want := binary.BigEndian.Uint32(sum)
	if got := crc32.ChecksumIEEE(payload); got != want {
		return fail(fmt.Sprintf("checksum mismatch (stored %#08x, computed %#08x)", want, got))
	}
	st, err := decodeState(payload)
	if err != nil {
		return fail(err.Error())
	}
	return st, nil
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

// decodeDurable reconstructs the subject state from checkpoint and
// journal bytes. A damaged final record is tolerated as a torn tail;
// damage anywhere else — bad magic mid-stream, checksum mismatch with
// intact records after it, a sequence gap or duplicate — returns a
// typed *RecoveryError and no state. Either input may be empty, but
// not both.
func decodeDurable(ckpt, jrnl []byte) (SubjectState, RecoveryReport, error) {
	var (
		st   SubjectState
		rep  RecoveryReport
		base bool
	)
	if len(ckpt) > 0 {
		var err error
		st, err = decodeCheckpoint(ckpt)
		if err != nil {
			return SubjectState{}, rep, err
		}
		rep.CheckpointSeq = st.Seq
		base = true
	}
	off := 0
	for rec := 0; off < len(jrnl); rec++ {
		next, parsed, perr := parseJournalRecord(jrnl[off:])
		if perr != "" {
			// A later intact record proves the damage is structural
			// corruption, not a torn final append.
			if rest := jrnl[off:]; laterIntactRecord(rest) {
				return SubjectState{}, RecoveryReport{}, &RecoveryError{Section: "journal", Record: rec, Reason: perr}
			}
			rep.TornTail = true
			break
		}
		if base || rec > 0 {
			switch {
			case parsed.Seq == st.Seq:
				return SubjectState{}, RecoveryReport{}, &RecoveryError{Section: "journal", Record: rec,
					Reason: fmt.Sprintf("duplicate record for event %d", parsed.Seq)}
			case parsed.Seq != st.Seq+1:
				return SubjectState{}, RecoveryReport{}, &RecoveryError{Section: "journal", Record: rec,
					Reason: fmt.Sprintf("sequence gap: record carries event %d after %d", parsed.Seq, st.Seq)}
			}
		}
		st = parsed
		rep.JournalRecords++
		base = true
		off += next
	}
	if !base {
		return SubjectState{}, rep, &RecoveryError{Section: "checkpoint", Reason: "no intact durable state (empty checkpoint and journal)"}
	}
	rep.Seq = st.Seq
	return st, rep, nil
}

// parseJournalRecord decodes one record at the head of buf, returning
// the bytes consumed, or a non-empty reason on failure.
func parseJournalRecord(buf []byte) (int, SubjectState, string) {
	if len(buf) < len(journalMagic)+4 {
		return 0, SubjectState{}, "truncated record header"
	}
	if !bytes.HasPrefix(buf, journalMagic) {
		return 0, SubjectState{}, "bad record magic"
	}
	n := int(binary.BigEndian.Uint32(buf[len(journalMagic):]))
	if n < subjectStateBytes || n > maxDurablePayload {
		return 0, SubjectState{}, fmt.Sprintf("payload length %d outside [%d,%d]", n, subjectStateBytes, maxDurablePayload)
	}
	total := len(journalMagic) + 4 + n + 4
	if len(buf) < total {
		return 0, SubjectState{}, fmt.Sprintf("truncated record (%d of %d bytes)", len(buf), total)
	}
	payload := buf[len(journalMagic)+4 : len(journalMagic)+4+n]
	want := binary.BigEndian.Uint32(buf[total-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return 0, SubjectState{}, fmt.Sprintf("checksum mismatch (stored %#08x, computed %#08x)", want, got)
	}
	st, err := decodeState(payload)
	if err != nil {
		return 0, SubjectState{}, err.Error()
	}
	return total, st, ""
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
		if n, _, reason := parseJournalRecord(buf[off:]); reason == "" && n > 0 {
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
	return e.res.durableLocked(e), nil
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
	st, rep, err := decodeDurable(ckpt, jrnl)
	if err != nil {
		return rep, err
	}
	r := e.res
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.applyLocked(e, st, true); err != nil {
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

// stateLocked assembles the durable record from the live layer.
func (r *resilient) stateLocked() SubjectState {
	rs := r.rt.Snapshot()
	return SubjectState{
		Seq:                      r.seq,
		ClockSeconds:             rs.ClockSeconds,
		Breaker:                  rs.Breaker.State.String(),
		BreakerFailures:          rs.Breaker.Failures,
		BreakerOpenedAtSeconds:   rs.Breaker.OpenedAt,
		RNGDraws:                 rs.Draws,
		EstimatedLoss:            rs.Estimator.Loss,
		EstimatedOutage:          rs.Estimator.Outage,
		EstimatorSamples:         rs.Estimator.Samples,
		EstimatorPendingAttempts: rs.Estimator.PendAttempts,
		EstimatorPendingFailed:   rs.Estimator.PendFailed,
		EnergySpentJoules:        r.energyJ,
		QuarantinedEvents:        r.quarantined,
		ImputedValues:            r.imputed,
		Crashes:                  r.crashes,
		Recoveries:               r.recoveries,
	}
}

// applyLocked installs a decoded record. restoreClock distinguishes a
// process-level Recover (rewind the clock to the record's instant)
// from an in-timeline warm rejoin (the node kept living through
// modeled time while down; only its volatile state is restored). The
// whole record is checked before any of it is applied, so a rejected
// one leaves the engine as it was.
func (r *resilient) applyLocked(e *Engine, st SubjectState, restoreClock bool) error {
	code, ok := breakerNames[st.Breaker]
	if !ok {
		return &RecoveryError{Section: "checkpoint", Reason: fmt.Sprintf("unknown breaker state %q", st.Breaker)}
	}
	rs := adaptive.EndState{
		ClockSeconds: st.ClockSeconds,
		Breaker:      faults.BreakerSnapshot{State: code, Failures: st.BreakerFailures, OpenedAt: st.BreakerOpenedAtSeconds},
		Draws:        st.RNGDraws,
		Estimator: adaptive.EstimatorState{
			Loss: st.EstimatedLoss, Outage: st.EstimatedOutage, Samples: st.EstimatorSamples,
			PendAttempts: st.EstimatorPendingAttempts, PendFailed: st.EstimatorPendingFailed,
		},
	}
	if !restoreClock {
		rs.ClockSeconds = r.rt.Clock().Now()
	}
	if err := rs.Validate(); err != nil {
		return err
	}
	if st.Tiered != nil {
		// RestoreTieredState checks its snapshot before applying it too.
		tp := e.tier.Load()
		if tp == nil || !tp.Armed() {
			return &RecoveryError{Section: "checkpoint",
				Reason: "record carries tiered hop state but no tier plan is armed"}
		}
		if err := tp.RestoreTieredState(*st.Tiered); err != nil {
			return &RecoveryError{Section: "checkpoint", Reason: err.Error()}
		}
	}
	if err := r.rt.Restore(rs); err != nil {
		return err
	}
	r.seq = st.Seq
	r.energyJ = st.EnergySpentJoules
	r.quarantined = st.QuarantinedEvents
	r.imputed = st.ImputedValues
	// Crash bookkeeping merges monotonically: a warm rejoin must not
	// let a pre-crash record roll back the crash it just survived.
	if st.Crashes > r.crashes {
		r.crashes = st.Crashes
	}
	if st.Recoveries > r.recoveries {
		r.recoveries = st.Recoveries
	}
	r.lastState = r.plan.At(r.rt.Clock().Now())
	e.epoch.Add(1)
	return nil
}

// checkpointLocked encodes the current state to w, compacting when w
// is a *DurableStore, and stamps the checkpoint age the health report
// serves.
func (r *resilient) checkpointLocked(e *Engine, w io.Writer) error {
	buf, err := encodeCheckpoint(r.durableLocked(e))
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
	rec, err := encodeJournalRecord(r.durableLocked(e))
	if err == nil {
		_, err = r.store.Write(rec)
	}
	if err != nil {
		e.obs.reg.Counter("xpro_journal_errors_total",
			"Journal records that failed to encode or append.").Inc()
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

// rejoinLocked runs at the first event after a node-down window: the
// node comes back warm from its durable store when it has one and the
// store decodes, amnesiac otherwise (volatile state reset to birth).
func (r *resilient) rejoinLocked(e *Engine, now float64) {
	r.down = false
	r.recoveries++
	e.epoch.Add(1)
	detail := "amnesiac"
	if r.store != nil {
		st, _, err := decodeDurable(r.store.Checkpoint(), r.store.Journal())
		if err == nil && r.applyLocked(e, st, false) == nil {
			detail = "warm"
		} else {
			e.obs.reg.Counter("xpro_journal_errors_total",
				"Journal records that failed to encode or append.").Inc()
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
	r.seq = 0
	r.energyJ = 0
	r.quarantined = 0
	r.imputed = 0
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
