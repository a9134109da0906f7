package xsystem

import (
	"errors"
	"fmt"

	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/fixed"
	"xpro/internal/frame"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// This file implements the fault-tolerant execution mode. The plain
// Classify treats the link as infallible: values cross instantly and
// nothing fails. ClassifyOver instead moves every crossing payload
// through a Transport that may drop it (a lossy wireless.Channel, a
// fault-injected faults.Link), retries with capped exponential backoff
// under a per-event modeled deadline budget, and keeps computing with
// whatever arrived: a cell with a lost input is itself lost, except the
// fusion cell, which fuses the base-classifier scores that did arrive.

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

func (o *ResilientOptions) imputePolicy() frame.ImputePolicy {
	if o.Integrity == nil {
		return frame.HoldLast
	}
	return o.Integrity.Impute
}

func (o *ResilientOptions) now() float64 {
	if o.Clock == nil {
		return 0
	}
	return o.Clock.Now()
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

// run is the per-event budget and transfer bookkeeping.
type run struct {
	opt     *ResilientOptions
	out     *Outcome
	link    wireless.Model // datasheet costs for the nil transport
	lastErr error
	exhaust bool
}

func (r *run) deadline() float64 { return r.opt.Policy.Deadline }

func (r *run) overBudget(extra float64) bool {
	return r.deadline() > 0 && r.out.SpentSeconds+extra > r.deadline()
}

// send moves bits through the transport with retry + backoff under the
// remaining budget; it reports whether the payload arrived. fromSensor
// says which side of the link the sensor node is on for this payload:
// true charges the sensor the transmit energy of every attempt, false
// the receive energy.
func (r *run) send(bits int64, fromSensor bool) bool {
	if r.opt.Transport == nil {
		// The infallible link never drops, but the payload still goes on
		// the air: charge the datasheet cost so Outcome.SensorEnergy
		// agrees with the analytic per-event model.
		r.chargeClean(bits, fromSensor)
		r.out.TransfersOK++
		return true
	}
	if r.exhaust {
		r.out.SkippedTransfers++
		return false
	}
	for attempt := 0; ; attempt++ {
		tr, err := r.opt.Transport.Send(bits)
		r.out.SpentSeconds += tr.Delay
		if fromSensor {
			r.out.SensorEnergy += tr.TxEnergy
		} else {
			r.out.SensorEnergy += tr.RxEnergy
		}
		if err == nil {
			r.out.TransfersOK++
			if r.opt.Breaker != nil {
				r.opt.Breaker.RecordSuccess()
			}
			return true
		}
		r.lastErr = err
		if faults.IsLinkDown(err) {
			r.out.HardOutage = true
		}
		if attempt >= r.opt.Policy.MaxRetries {
			break
		}
		wait := r.opt.Policy.Backoff.Delay(attempt)
		if r.overBudget(wait) {
			r.exhaust = true
			r.out.DeadlineExceeded = true
			break
		}
		r.out.SpentSeconds += wait
		r.out.Retries++
	}
	if r.opt.Breaker != nil {
		r.opt.Breaker.RecordFailure()
	}
	r.out.LostTransfers++
	return false
}

// chargeClean accounts the datasheet cost of one payload on the
// infallible link, including the integrity envelope when framing is on.
func (r *run) chargeClean(bits int64, fromSensor bool) {
	tr := r.link.Cost(bits)
	if r.opt.Integrity != nil {
		eb := wireless.Packets(bits) * frame.IntegrityBits
		tr.WireBits += eb
		tr.TxEnergy += float64(eb) * r.link.TxJPerBit
		tr.RxEnergy += float64(eb) * r.link.RxJPerBit
		tr.Delay += float64(eb) / r.link.RateBps
	}
	r.out.SpentSeconds += tr.Delay
	if fromSensor {
		r.out.SensorEnergy += tr.TxEnergy
	} else {
		r.out.SensorEnergy += tr.RxEnergy
	}
}

// sendPayload is send for structured payloads: when the transport is
// value-aware it reports how the payload arrived (corruption, smears,
// values to impute); otherwise it degrades to the opaque path with a
// nil report. The policy-level retry loop, backoff, deadline budget and
// breaker accounting are identical to send.
func (r *run) sendPayload(bits int64, values int, fromSensor bool) (*frame.RxReport, bool) {
	if r.opt.Transport == nil {
		r.chargeClean(bits, fromSensor)
		r.out.TransfersOK++
		r.out.WireValues += values
		return nil, true
	}
	vt, isVT := r.opt.Transport.(ValueTransport)
	if !isVT {
		return nil, r.send(bits, fromSensor)
	}
	if r.exhaust {
		r.out.SkippedTransfers++
		return nil, false
	}
	for attempt := 0; ; attempt++ {
		tr, rx, err := vt.SendValues(bits, values, r.opt.Integrity)
		r.out.SpentSeconds += tr.Delay
		if fromSensor {
			r.out.SensorEnergy += tr.TxEnergy
		} else {
			r.out.SensorEnergy += tr.RxEnergy
		}
		if rx != nil {
			r.out.FramesSent += rx.Frames
			r.out.CorruptFrames += rx.CorruptDetected
			r.out.CorruptDelivered += rx.CorruptDelivered
			r.out.DuplicateFrames += rx.Duplicates
			r.out.ReorderedFrames += rx.Reordered
			r.out.LostFrames += rx.LostFrames
		}
		if err == nil {
			r.out.TransfersOK++
			r.out.WireValues += values
			if r.opt.Breaker != nil {
				r.opt.Breaker.RecordSuccess()
			}
			return rx, true
		}
		r.lastErr = err
		if faults.IsLinkDown(err) {
			r.out.HardOutage = true
		}
		if attempt >= r.opt.Policy.MaxRetries {
			break
		}
		wait := r.opt.Policy.Backoff.Delay(attempt)
		if r.overBudget(wait) {
			r.exhaust = true
			r.out.DeadlineExceeded = true
			break
		}
		r.out.SpentSeconds += wait
		r.out.Retries++
	}
	if r.opt.Breaker != nil {
		r.opt.Breaker.RecordFailure()
	}
	r.out.LostTransfers++
	return nil, false
}

// leg is one crossing's per-event state: the payload is attempted at
// most once per event, however many consumers read it. rx (when the
// transport is value-aware) pins what the receive side saw; counted
// guards the one-time imputation tally.
type leg struct {
	attempted, ok, counted bool
	rx                     *frame.RxReport
}

// ensure sends x's payload on its first use this event and reports
// whether it arrived.
func (r *run) ensure(x *leg, bits int64, values int, fromSensor bool) bool {
	if !x.attempted {
		x.attempted = true
		x.rx, x.ok = r.sendPayload(bits, values, fromSensor)
	}
	return x.ok
}

// ClassifyOver executes the partitioned pipeline on one segment with
// every crossing payload subject to opt's transport, faults and
// policy. It returns the best label the surviving data supports; when
// nothing survives, the error is a *NoResultError wrapping the last
// transfer failure.
func (s *System) ClassifyOver(seg biosig.Segment, opt *ResilientOptions) (Outcome, error) {
	if opt == nil {
		opt = &ResilientOptions{}
	}
	var out Outcome
	if s.Ens == nil {
		return out, errors.New("xsystem: cost-analysis-only system has no classifier (built with nil ensemble)")
	}
	if len(seg.Samples) != s.Graph.SegLen {
		return out, fmt.Errorf("xsystem: segment length %d, engine built for %d", len(seg.Samples), s.Graph.SegLen)
	}

	g := s.Graph
	p := s.Placement
	pl := s.plan
	state := opt.Plan.At(opt.now())

	r := &run{opt: opt, out: &out, link: s.Link}
	// The compute schedule is fixed hardware / fixed software: charge it
	// up front, then add what the faulty link actually costs.
	out.SpentSeconds = pl.delay.FrontEnd + pl.delay.BackEnd
	// Sensing runs regardless of how the event goes; compute and radio
	// energy accrue below as cells execute and attempts go on the air.
	out.SensorEnergy = s.problem.SensingEnergy

	// An aggregator stall blocks every back-end cell until the window
	// ends; the wait comes out of the deadline budget.
	if state.AggStall {
		if pl.aggCells > 0 || !p.OnSensor(g.Output) {
			wait := opt.Plan.Until(opt.now(), faults.AggStall) - opt.now()
			if r.overBudget(wait) {
				out.DeadlineExceeded = true
				return out, &NoResultError{Outcome: out}
			}
			out.SpentSeconds += wait
		}
	}

	// Crossing payloads, memoized per event: one leg per crossing
	// transfer group, then the raw segment (when a source reader sits on
	// the aggregator); the final result is sent below.
	legs := make([]leg, len(pl.groups)+1)
	raw := &legs[len(pl.groups)]
	ensureRaw := func() bool {
		return pl.rawCrosses && r.ensure(raw, g.SourceBits, g.SegLen, true)
	}
	// crossed sends every crossing group the in-edge at CSR slot k waits
	// on, and reports whether all of them arrived.
	crossed := func(k int) bool {
		ok := true
		for _, gi := range pl.pairGroups(k) {
			tg := &pl.groups[gi]
			if !r.ensure(&legs[gi], tg.Bits, tg.Values, p.OnSensor(tg.From)) {
				ok = false
			}
		}
		return ok
	}

	ev := newEvent(g, seg)
	outputs := make([]value, len(g.Cells))

	// dirtyView reconstructs the receive side of a producer's crossing
	// output when any of its arrived transfer groups carries damage —
	// undetected corruption, smeared slots or imputed losses. Nil means
	// the arrival was pristine and consumers read the producer verbatim
	// (quantization happens in the gather path as always).
	dirtyView := func(producer topology.CellID) []float64 {
		var view []float64
		for _, gi := range pl.producedGroups(producer) {
			tg := &pl.groups[gi]
			x := &legs[gi]
			if !x.attempted || !x.ok || !x.rx.Dirty() {
				continue
			}
			if view == nil {
				view = append([]float64(nil), outputs[producer].asFloat()...)
			}
			// The group's slice of the producer's full output.
			n := tg.Values
			if tg.off >= len(view) {
				continue
			}
			if tg.off+n > len(view) {
				n = len(view) - tg.off
			}
			imputed := applyDamage(view[tg.off:tg.off+n], tg.per, x.rx, opt.imputePolicy())
			if !x.counted {
				x.counted = true
				x.rx.Imputed = imputed
				out.ImputedValues += imputed
			}
		}
		return view
	}

	// When the raw segment crossed dirty, off-sensor source readers see
	// the receiver's reconstruction, not the sensor's pristine samples.
	var evRx *event
	rxEvent := func() *event {
		if evRx != nil {
			return evRx
		}
		samples := append([]float64(nil), seg.Samples...)
		per := int64(0)
		if g.SegLen > 0 {
			per = g.SourceBits / int64(g.SegLen)
		}
		imputed := applyDamage(samples, per, raw.rx, opt.imputePolicy())
		if !raw.counted {
			raw.counted = true
			raw.rx.Imputed = imputed
			out.ImputedValues += imputed
		}
		evRx = newEvent(g, biosig.Segment{Samples: samples, Label: seg.Label})
		return evRx
	}

	// fetch resolves one in-edge's producer value as the current cell
	// sees it: crossing edges whose payload arrived damaged read the
	// receiver's reconstruction instead of the producer verbatim.
	var id topology.CellID
	var ins []topology.Edge
	fetch := func(i int) value {
		e := ins[i]
		if e.From != topology.SourceID && p.OnSensor(e.From) != p.OnSensor(id) {
			if view := dirtyView(e.From); view != nil {
				return value{fl: view}
			}
		}
		return outputs[e.From]
	}
	lost := make([]bool, len(g.Cells))
	availAll := make([]bool, len(pl.ins))
	complete := true
	for _, id = range pl.order {
		c := g.Cells[id]
		if state.Brownout && p.OnSensor(id) {
			// The cell array is below its operating threshold; sensing
			// itself survives, so raw data can still stream out.
			lost[id] = true
			complete = false
			continue
		}
		k0 := pl.inStart[id]
		ins = pl.ins[k0:pl.inStart[id+1]]
		avail := availAll[k0 : k0+len(ins)]
		for i, e := range ins {
			switch {
			case e.From == topology.SourceID:
				avail[i] = p.OnSensor(id) || ensureRaw()
			case lost[e.From]:
				avail[i] = false
			case p.OnSensor(e.From) != p.OnSensor(id):
				avail[i] = crossed(k0 + i)
			default:
				avail[i] = true
			}
		}
		if c.Role == topology.RoleFusion {
			if p.OnSensor(id) {
				out.SensorEnergy += s.HW.Energy(id)
			}
			v, used := s.fusePartial(c, ins, avail, fetch)
			out.VotesTotal = len(ins)
			out.VotesUsed = used
			minVotes := opt.Policy.MinVotes
			if minVotes < 1 {
				minVotes = 1
			}
			if used < minVotes {
				lost[id] = true
				complete = false
				continue
			}
			if used < len(ins) {
				out.PartialFusion = true
				complete = false
			}
			outputs[id] = v
			continue
		}
		allIn := true
		for _, a := range avail {
			if !a {
				allIn = false
				break
			}
		}
		if !allIn {
			lost[id] = true
			complete = false
			continue
		}
		if p.OnSensor(id) {
			out.SensorEnergy += s.HW.Energy(id)
		}
		cellEv := ev
		if !p.OnSensor(id) && pl.rawCrosses && raw.ok && raw.rx.Dirty() {
			cellEv = rxEvent()
		}
		v, err := s.evalCell(c, ins, fetch, cellEv)
		if err != nil {
			return out, fmt.Errorf("xsystem: cell %s: %w", c.Name, err)
		}
		outputs[id] = v
	}

	if lost[g.Output] {
		return out, &NoResultError{Cause: r.lastErr, Outcome: out}
	}
	final := outputs[g.Output]
	switch {
	case final.fl != nil && len(final.fl) > 0:
		out.Score = final.fl[0]
	case final.fx != nil && len(final.fx) > 0:
		out.Score = final.fx[0].Float()
	default:
		return out, &NoResultError{Cause: r.lastErr, Outcome: out}
	}
	if out.Score >= 0 {
		out.Label = 1
	}

	// Deliver the result to the aggregator when it was produced on the
	// sensor; failure leaves a valid sensor-local label.
	out.Delivered = true
	if p.OnSensor(g.Output) {
		rx, ok := r.sendPayload(wireless.ValueBits, 1, true)
		out.Delivered = ok
		if ok && rx.Dirty() {
			// The aggregator decoded a damaged score word: its label may
			// disagree with the sensor's. Report what the receiving end
			// actually concluded.
			sc := quantizeWire(out.Score, wireless.ValueBits)
			if mask, hit := rx.CorruptValues[0]; hit {
				sc = corruptWire(sc, wireless.ValueBits, mask)
			}
			out.Score = sc
			out.Label = 0
			if sc >= 0 {
				out.Label = 1
			}
		}
	}
	if out.ImputedValues > 0 || out.CorruptDelivered > 0 {
		complete = false
	}
	out.Complete = complete && out.Delivered
	return out, nil
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

// fusePartial fuses the available base-classifier scores: the trained
// bias plus each available vote, exactly the fusion cell's computation
// restricted to the votes that arrived. fetch resolves the i-th
// in-edge's producer value as the fusion cell sees it (including any
// receive-side damage). It returns the fused value in the
// representation of the fusion cell's end and the vote count used.
func (s *System) fusePartial(c topology.Cell, ins []topology.Edge, avail []bool, fetch func(int) value) (value, int) {
	used := 0
	if s.Placement.OnSensor(c.ID) {
		score := fixed.FromFloat(s.Ens.Weights[len(s.Ens.Bases)])
		for i, e := range ins {
			if !avail[i] {
				continue
			}
			v := fetch(i)
			var sv fixed.Num
			if s.Placement.OnSensor(e.From) == s.Placement.OnSensor(c.ID) {
				sv = v.asFixed()[0]
			} else {
				sv = crossFixed(v, e)[0]
			}
			vote := fixed.FromInt(-1)
			if sv >= 0 {
				vote = fixed.One
			}
			score = fixed.Add(score, fixed.Mul(fixed.FromFloat(s.Ens.Weights[i]), vote))
			used++
		}
		return value{fx: []fixed.Num{score}}, used
	}
	score := s.Ens.Weights[len(s.Ens.Bases)]
	for i, e := range ins {
		if !avail[i] {
			continue
		}
		v := fetch(i)
		var sv float64
		if s.Placement.OnSensor(e.From) == s.Placement.OnSensor(c.ID) {
			sv = v.asFloat()[0]
		} else {
			sv = crossFloat(v, e)[0]
		}
		vote := -1.0
		if sv >= 0 {
			vote = 1.0
		}
		score += s.Ens.Weights[i] * vote
		used++
	}
	return value{fl: []float64{score}}, used
}
