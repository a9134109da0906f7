package xsystem

import (
	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/fixed"
	"xpro/internal/frame"
	"xpro/internal/partition"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// This file holds the 2-end face of the fault-tolerant execution mode.
// The plain Classify walks the placement over the infallible link:
// nothing fails, and each crossing costs its datasheet air time and
// energy. ClassifyOver instead moves every crossing payload through a
// Transport that may drop it (a lossy wireless.Channel, a
// fault-injected faults.Link), retries with capped exponential backoff
// under a per-event modeled deadline budget, and keeps computing with
// whatever arrived. Both run the one walk (tieredwalk.go) over the
// placement as a 1-hop chain; this file keeps the 2-end options,
// outcome and error types, the receive-side damage model and partial
// fusion.

// Transport moves one payload across the link, possibly failing.
// *wireless.Channel and *faults.Link implement it; a nil Transport is
// the paper's infallible link.
type Transport interface {
	Send(dataBits int64) (wireless.Transfer, error)
}

// ValueTransport is a Transport that understands payload structure: it
// moves dataBits carrying `values` equal-width code words and reports
// how the payload actually arrived — which values were corrupted,
// smeared or lost — so the functional simulation can decode exactly
// what the receiver saw. *faults.Link implements it; plain Transports
// fall back to the opaque Send path.
type ValueTransport interface {
	Transport
	SendValues(dataBits int64, values int, fr *faults.Framing) (wireless.Transfer, *frame.RxReport, error)
}

// ResilientOptions configures one ClassifyOver run.
type ResilientOptions struct {
	// Transport carries crossing payloads; nil never fails.
	Transport Transport
	// Plan supplies the brownout / aggregator-stall state; the link
	// faults are the Transport's business. May be nil.
	Plan *faults.Plan
	// Clock is the modeled time source (shared with Transport and
	// Breaker). May be nil when neither Plan nor Breaker is used.
	Clock *faults.Clock
	// Policy sets deadline, retry and fusion-quorum knobs.
	Policy faults.Policy
	// Breaker, when set, records per-transfer outcomes (the caller
	// decides whether to attempt the event at all while it is open).
	Breaker *faults.Breaker
	// Integrity, when set, arms per-frame sequencing + CRC on every
	// crossing payload: corruption is detected and retried instead of
	// silently consumed, residual frame loss is imputed per its policy,
	// and every frame pays frame.IntegrityBits of envelope on the air
	// (also charged on the nil transport, so the analytic energy answer
	// matches). Nil keeps the bare legacy wire format.
	Integrity *faults.Framing
}

// Outcome reports how one resilient classification went.
type Outcome struct {
	// Label is the predicted class (0 or 1).
	Label int
	// Score is the fused decision value the label was cut from.
	Score float64
	// Delivered is true when the result is available at the
	// aggregator; false when it was computed on-sensor but the result
	// payload could not cross (sensor-local result).
	Delivered bool
	// Complete is true when every cell computed and every crossing
	// payload arrived — a full-fidelity classification.
	Complete bool
	// PartialFusion is true when the fusion cell used a strict subset
	// of the base-classifier scores.
	PartialFusion bool
	// VotesUsed / VotesTotal count the base scores fused vs trained.
	VotesUsed, VotesTotal int
	// LostTransfers counts payloads that exhausted their retry budget;
	// SkippedTransfers counts payloads abandoned without an attempt
	// after the deadline budget ran out; Retries counts re-sends.
	LostTransfers, SkippedTransfers, Retries int
	// TransfersOK counts crossing payloads that arrived (first try or
	// after retries) — together with Retries and LostTransfers it
	// reconstructs the per-attempt delivery rate the channel showed.
	TransfersOK int
	// HardOutage is true when at least one attempt failed because the
	// link was down (faults.ErrLinkDown), as opposed to packet loss.
	HardOutage bool
	// SensorEnergy is the modeled energy (J) the sensor node actually
	// spent on this event: sensing, the compute of every sensor cell
	// that ran, and the radio cost of every attempt — including retries
	// and partially-charged failures — on the sensor side of the link.
	SensorEnergy float64
	// SpentSeconds is the modeled time the event consumed: compute,
	// air time of every attempt, backoff waits and stall waits.
	SpentSeconds float64
	// DeadlineExceeded is true when the budget ran out mid-event.
	DeadlineExceeded bool

	// FramesSent counts transceiver frames across all payloads (framed
	// transports); CorruptFrames of those were CRC-rejected and retried,
	// CorruptDelivered carried bit errors the transport could not detect
	// (bare wire only), DuplicateFrames and ReorderedFrames arrived more
	// than once or out of order, and LostFrames died beyond the per-frame
	// retry budget.
	FramesSent, CorruptFrames, CorruptDelivered  int
	DuplicateFrames, ReorderedFrames, LostFrames int
	// WireValues counts the values that crossed the link; ImputedValues
	// of those were reconstructed (lost with their frames) rather than
	// delivered. Their ratio is the admission gate's imputation load.
	WireValues, ImputedValues int
}

// NoResultError reports a resilient classification that could not
// produce any label — too many payloads lost, or the whole pipeline
// unavailable. Cause (when set) is the last transfer failure, so
// errors.As reaches *wireless.ErrDropped / *faults.ErrLinkDown.
type NoResultError struct {
	Cause   error
	Outcome Outcome
}

func (e *NoResultError) Error() string {
	msg := "xsystem: resilient pipeline produced no classification"
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

func (e *NoResultError) Unwrap() error { return e.Cause }

// ClassifyOver executes the partitioned pipeline on one segment with
// every crossing payload subject to opt's transport, faults and
// policy. It runs the resilient walk over the placement's 1-hop chain:
// the sensor is tier 0, the aggregator tier 1, and the transport
// carries hop 0 over System.Link. It returns the best label the
// surviving data supports; when nothing survives, the error is a
// *NoResultError wrapping the last transfer failure.
func (s *System) ClassifyOver(seg biosig.Segment, opt *ResilientOptions) (Outcome, error) {
	if opt == nil {
		opt = &ResilientOptions{}
	}
	hops := [1]hop{{Hop: partition.Hop{Link: s.Link}, tr: opt.Transport, breaker: opt.Breaker}}
	return s.walk(seg, s.plan.chain, hops[:], TieredOptions{
		Plan: opt.Plan, Clock: opt.Clock, Policy: opt.Policy, Integrity: opt.Integrity,
	}, spanSink{}, nil)
}

// applyDamage rewrites view — the receiver's copy of one crossing
// payload's values — per the transport's receive report: slots are
// decoded at the wire width, smeared slots take their source's code
// word, undetected bit flips corrupt in the code-word domain, and
// values lost with their frames are imputed. Returns the imputed count.
func applyDamage(view []float64, bits int64, rx *frame.RxReport, policy frame.ImputePolicy) int {
	for i := range view {
		view[i] = quantizeWire(view[i], bits)
	}
	if len(rx.Moved) > 0 {
		base := append([]float64(nil), view...)
		for dst, src := range rx.Moved {
			if dst >= 0 && dst < len(view) && src >= 0 && src < len(base) {
				view[dst] = base[src]
			}
		}
	}
	for idx, mask := range rx.CorruptValues {
		if idx >= 0 && idx < len(view) {
			view[idx] = corruptWire(view[idx], bits, mask)
		}
	}
	if len(rx.Missing) == 0 {
		return 0
	}
	missing := make([]bool, len(view))
	for _, m := range rx.Missing {
		if m >= 0 && m < len(view) {
			missing[m] = true
		}
	}
	return frame.Impute(view, missing, policy)
}

// fusePartial fuses the available base-classifier scores into out, the
// fusion cell's output slot: the trained bias plus each available vote,
// exactly the fusion cell's computation restricted to the votes that
// arrived. fetch resolves the i-th in-edge's producer value as the
// fusion cell sees it (including any receive-side damage). The score is
// in the representation of the fusion cell's end; it returns the vote
// count used.
func (s *System) fusePartial(c topology.Cell, ins []topology.Edge, avail []bool, fetch func(int) value, out value) int {
	used := 0
	if s.Placement.OnSensor(c.ID) {
		score := fixed.FromFloat(s.Ens.Weights[len(s.Ens.Bases)])
		for i, e := range ins {
			if !avail[i] {
				continue
			}
			vote := fixed.FromInt(-1)
			if s.scalarFixed(c.ID, e, fetch(i)) >= 0 {
				vote = fixed.One
			}
			score = fixed.Add(score, fixed.Mul(fixed.FromFloat(s.Ens.Weights[i]), vote))
			used++
		}
		out.fx[0] = score
		return used
	}
	score := s.Ens.Weights[len(s.Ens.Bases)]
	for i, e := range ins {
		if !avail[i] {
			continue
		}
		vote := -1.0
		if s.scalarFloat(c.ID, e, fetch(i)) >= 0 {
			vote = 1.0
		}
		score += s.Ens.Weights[i] * vote
		used++
	}
	out.fl[0] = score
	return used
}
