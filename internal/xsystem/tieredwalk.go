package xsystem

import (
	"errors"
	"fmt"

	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/frame"
	"xpro/internal/partition"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// This file implements the resilient N-tier execution mode: the tiered
// sibling of System.ClassifyOver. A k-way placement crosses k−1 hops
// (sensor→hub, hub→gateway, …) and each is an independent physical
// channel with its own fault plan, retry budget, circuit breaker and
// integrity framing. Every payload walks its hop span one hop at a
// time — a group produced on tier u and consumed on tier t crosses
// hops u..t−1, each crossing attempted at most once per event however
// many consumers need it — and every attempt's air time, backoff wait
// and energy is charged against the one shared deadline/energy budget,
// exactly as the 2-end walk charges its single link.

// HopTransport is one hop's fallible channel in a tiered walk. A nil
// Link is the infallible datasheet hop: payloads never fail, but their
// air cost (including the integrity envelope when framing is armed) is
// still charged from the planning model. Breaker, when set, gates the
// hop: while it is open the walk fails the hop's crossings immediately
// without burning air time or retries.
type HopTransport struct {
	Link    *faults.Link
	Breaker *faults.Breaker
}

// TieredOptions configures one tiered ClassifyOver run.
type TieredOptions struct {
	// Hops[h] carries crossings of hop h (tier h → h+1). Shorter than
	// the chain's hop count means the remaining hops are infallible;
	// longer is an error.
	Hops []HopTransport
	// Plan supplies the node-level state: brownout (tier-0 compute dark)
	// and aggregator stall (upper-tier compute preempted). The per-hop
	// link faults live in each HopTransport's Link. May be nil.
	Plan *faults.Plan
	// Clock is the modeled time source shared with every hop's Link and
	// Breaker. May be nil when neither Plan nor any Breaker is used.
	Clock *faults.Clock
	// Policy sets the per-event deadline, per-payload retry budget,
	// backoff shape and fusion quorum — one budget shared by all hops.
	Policy faults.Policy
	// Integrity, when set, arms per-frame sequencing + CRC on every hop
	// crossing, exactly as in the 2-end walk.
	Integrity *faults.Framing
}

func (o *TieredOptions) imputePolicy() frame.ImputePolicy {
	if o.Integrity == nil {
		return frame.HoldLast
	}
	return o.Integrity.Impute
}

func (o *TieredOptions) now() float64 {
	if o.Clock == nil {
		return 0
	}
	return o.Clock.Now()
}

// TieredOutcome is the 2-end Outcome ledger extended with per-hop
// books: every aggregate counter still sums over all hops, and the
// slices (indexed by hop) say which hop earned what.
type TieredOutcome struct {
	Outcome
	// HopTransfersOK / HopRetries / HopLost / HopSkipped split the
	// aggregate transfer counters per hop.
	HopTransfersOK []int
	HopRetries     []int
	HopLost        []int
	HopSkipped     []int
	// HopOutage[h] is true when hop h was hard-down (link outage, hub
	// storm, or its breaker open) during the event.
	HopOutage []bool
	// HopEnergyJ[h] is the total radio energy (tx + rx, unweighted)
	// attempts on hop h consumed; HopAirSeconds[h] their serialized air
	// time.
	HopEnergyJ    []float64
	HopAirSeconds []float64
}

// HopOutageError reports a payload that could not cross one hop of a
// tiered walk: the hop was hard-down (link outage or hub storm) or its
// circuit breaker was open. It carries the hop index and the retry
// budget consumed so callers can route the ladder decision per hop.
type HopOutageError struct {
	// Hop is the failed hop's index (tier Hop → Hop+1).
	Hop int
	// At is the modeled time of the failure; Until, when the outage
	// window's end is known, is the earliest instant the hop can heal.
	At, Until float64
	// Retries is the retry budget consumed on the failing crossing
	// (0 when the breaker rejected it outright).
	Retries int
	// BreakerOpen is true when the hop's breaker rejected the crossing
	// without an attempt.
	BreakerOpen bool
	// Cause is the transport failure underneath (nil for breaker
	// rejections).
	Cause error
}

func (e *HopOutageError) Error() string {
	if e.BreakerOpen {
		return fmt.Sprintf("xsystem: hop %d breaker open at %.3fs", e.Hop, e.At)
	}
	return fmt.Sprintf("xsystem: hop %d down at %.3fs (until %.3fs, %d retries consumed)", e.Hop, e.At, e.Until, e.Retries)
}

func (e *HopOutageError) Unwrap() error { return e.Cause }

// trun is the per-event budget and bookkeeping of one tiered walk.
type trun struct {
	ts      *TieredSystem
	opt     *TieredOptions
	out     *TieredOutcome
	lastErr error
	exhaust bool
}

func (r *trun) overBudget(extra float64) bool {
	d := r.opt.Policy.Deadline
	return d > 0 && r.out.SpentSeconds+extra > d
}

// hopTransport returns hop h's transport, nil when the hop is
// configured infallible.
func (r *trun) hopTransport(h int) *HopTransport {
	if h < len(r.opt.Hops) {
		return &r.opt.Hops[h]
	}
	return nil
}

// chargeCleanHop accounts the datasheet cost of one payload on an
// infallible hop, including the integrity envelope when framing is on.
func (r *trun) chargeCleanHop(h int, bits int64, up bool) {
	hop := r.ts.Tiered.Hops[h]
	tr := hop.Link.Cost(bits)
	if r.opt.Integrity != nil {
		eb := wireless.Packets(bits) * frame.IntegrityBits
		tr.WireBits += eb
		tr.TxEnergy += float64(eb) * hop.Link.TxJPerBit
		tr.RxEnergy += float64(eb) * hop.Link.RxJPerBit
		tr.Delay += float64(eb) / hop.Link.RateBps
	}
	if hop.BandwidthScale > 0 && hop.BandwidthScale != 1 {
		tr.Delay /= hop.BandwidthScale
	}
	r.charge(h, tr, up)
}

// charge books one attempt's cost: air time against the shared
// deadline, full radio energy against the hop, and the sensor-side
// share (hop 0 only) against SensorEnergy.
func (r *trun) charge(h int, tr wireless.Transfer, up bool) {
	r.out.SpentSeconds += tr.Delay
	r.out.HopAirSeconds[h] += tr.Delay
	r.out.HopEnergyJ[h] += tr.TxEnergy + tr.RxEnergy
	if h == 0 {
		if up {
			r.out.SensorEnergy += tr.TxEnergy
		} else {
			r.out.SensorEnergy += tr.RxEnergy
		}
	}
}

// sendHop moves one payload across hop h (up: tier h → h+1) with retry
// + backoff under the remaining budget, reporting how it arrived. The
// policy-level loop mirrors the 2-end sendPayload exactly; only the
// transport, breaker and ledgers are per-hop.
func (r *trun) sendHop(h int, bits int64, values int, up bool) (*frame.RxReport, bool) {
	hop := r.hopTransport(h)
	if hop == nil || hop.Link == nil {
		r.chargeCleanHop(h, bits, up)
		r.out.TransfersOK++
		r.out.HopTransfersOK[h]++
		r.out.WireValues += values
		return nil, true
	}
	if hop.Breaker != nil && !hop.Breaker.Allow() {
		// Fail fast: the hop is known-bad, spend nothing on it.
		r.out.SkippedTransfers++
		r.out.HopSkipped[h]++
		r.out.HopOutage[h] = true
		r.out.HardOutage = true
		r.lastErr = &HopOutageError{Hop: h, At: r.opt.now(), BreakerOpen: true}
		return nil, false
	}
	if r.exhaust {
		r.out.SkippedTransfers++
		r.out.HopSkipped[h]++
		return nil, false
	}
	for attempt := 0; ; attempt++ {
		tr, rx, err := hop.Link.SendValues(bits, values, r.opt.Integrity)
		r.charge(h, tr, up)
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
			r.out.HopTransfersOK[h]++
			r.out.WireValues += values
			if hop.Breaker != nil {
				hop.Breaker.RecordSuccess()
			}
			return rx, true
		}
		if faults.IsLinkDown(err) {
			r.out.HardOutage = true
			r.out.HopOutage[h] = true
			var ld *faults.ErrLinkDown
			errors.As(err, &ld)
			r.lastErr = &HopOutageError{Hop: h, At: ld.At, Until: ld.Until, Retries: attempt, Cause: err}
		} else {
			r.lastErr = err
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
		r.out.HopRetries[h]++
	}
	if hop.Breaker != nil {
		hop.Breaker.RecordFailure()
	}
	r.out.LostTransfers++
	r.out.HopLost[h]++
	return nil, false
}

// ensureTo walks span's legs up to (not including) tier t — a consumer
// on tier t needs legs 0..t−base−1 all delivered — sending each
// unattempted one, and reports whether the payload reached tier t. A
// leg that failed blocks every leg above it (the payload never reached
// that hop's sender).
func (r *trun) ensureTo(legs []leg, sp hopSpan, bits int64, values int, t partition.Tier) bool {
	for j := 0; j < int(t-sp.base) && j < int(sp.top-sp.base); j++ {
		x := &legs[sp.legOff+j]
		if !x.attempted {
			x.attempted = true
			x.rx, x.ok = r.sendHop(int(sp.base)+j, bits, values, true)
		}
		if !x.ok {
			return false
		}
	}
	return true
}

// dirtyTo reports whether any delivered leg of span below tier t
// carries receive-side damage.
func dirtyTo(legs []leg, sp hopSpan, t partition.Tier) bool {
	for j := 0; j < int(t-sp.base) && j < int(sp.top-sp.base); j++ {
		x := &legs[sp.legOff+j]
		if x.attempted && x.ok && x.rx.Dirty() {
			return true
		}
	}
	return false
}

// applyLegs composes span's receive damage onto view, hop by hop in
// crossing order — hop u's smears and imputations feed hop u+1's
// transmission, exactly as the payload physically relayed. Each leg's
// imputed count is tallied once per event however many consumers
// decode it.
func (r *trun) applyLegs(view []float64, per int64, legs []leg, sp hopSpan, t partition.Tier) {
	for j := 0; j < int(t-sp.base) && j < int(sp.top-sp.base); j++ {
		x := &legs[sp.legOff+j]
		if !x.attempted || !x.ok || !x.rx.Dirty() {
			continue
		}
		imputed := applyDamage(view, per, x.rx, r.opt.imputePolicy())
		if !x.counted {
			x.counted = true
			x.rx.Imputed = imputed
			r.out.ImputedValues += imputed
		}
	}
}

// cellEnergyAt prices cell id's compute on tier t, honoring the
// problem's CellEnergy override.
func (ts *TieredSystem) cellEnergyAt(t partition.Tier, id topology.CellID) float64 {
	if ts.Tiered.CellEnergy != nil {
		return ts.Tiered.CellEnergy(t, id)
	}
	return ts.HW.Energy(id) * ts.Tiered.Tiers[t].ComputeScale
}

// ClassifyOver executes the k-way partitioned pipeline on one segment
// with every hop crossing subject to its own transport, faults and
// breaker under opt's shared policy budget. It returns the best label
// the surviving data supports; when nothing survives, the error is a
// *NoResultError whose cause chain reaches the failing hop's
// *HopOutageError.
func (ts *TieredSystem) ClassifyOver(seg biosig.Segment, opt *TieredOptions) (TieredOutcome, error) {
	if opt == nil {
		opt = &TieredOptions{}
	}
	nh := len(ts.Tiered.Hops)
	var out TieredOutcome
	if len(opt.Hops) > nh {
		return out, fmt.Errorf("xsystem: %d hop transports for a %d-hop chain", len(opt.Hops), nh)
	}
	if ts.Ens == nil {
		return out, errors.New("xsystem: cost-analysis-only system has no classifier (built with nil ensemble)")
	}
	if len(seg.Samples) != ts.Graph.SegLen {
		return out, fmt.Errorf("xsystem: segment length %d, engine built for %d", len(seg.Samples), ts.Graph.SegLen)
	}
	out.HopTransfersOK = make([]int, nh)
	out.HopRetries = make([]int, nh)
	out.HopLost = make([]int, nh)
	out.HopSkipped = make([]int, nh)
	out.HopOutage = make([]bool, nh)
	out.HopEnergyJ = make([]float64, nh)
	out.HopAirSeconds = make([]float64, nh)

	g := ts.Graph
	tpl := ts.TierPlacement
	pl, tp := ts.plan, ts.tplan
	state := opt.Plan.At(opt.now())
	r := &trun{ts: ts, opt: opt, out: &out}

	// The compute schedule is the collapsed two-natured runtime's:
	// charge it up front, then add what the faulty hops actually cost.
	out.SpentSeconds = pl.delay.FrontEnd + pl.delay.BackEnd
	out.SensorEnergy = ts.problem.SensingEnergy

	// An aggregator stall preempts every upper-tier cell until the
	// window ends; the wait comes out of the shared deadline budget.
	if state.AggStall && tp.upperCells > 0 {
		wait := opt.Plan.Until(opt.now(), faults.AggStall) - opt.now()
		if r.overBudget(wait) {
			out.DeadlineExceeded = true
			return out, &NoResultError{Outcome: out.Outcome}
		}
		out.SpentSeconds += wait
	}

	// Crossing payloads, memoized per (payload, hop): the raw segment
	// (when the source readers sit above tier 0), one span per crossing
	// transfer group, and the final result march below.
	legs := make([]leg, tp.legs)
	srcTier := tp.srcTier
	// crossed sends every crossing group the in-edge at CSR slot k waits
	// on up to tier t, and reports whether all of them arrived.
	crossed := func(k int, t partition.Tier) bool {
		ok := true
		for _, gi := range tp.pairGroups(k) {
			tg := &pl.groups[gi]
			if !r.ensureTo(legs, tp.spans[gi], tg.Bits, tg.Values, t) {
				ok = false
			}
		}
		return ok
	}

	ev := newEvent(g, seg)
	outputs := make([]value, len(g.Cells))

	// dirtyView reconstructs what a consumer on tier t received of a
	// producer's crossing output when any traversed hop damaged it.
	dirtyView := func(producer topology.CellID, t partition.Tier) []float64 {
		var view []float64
		for _, gi := range pl.producedGroups(producer) {
			tg := &pl.groups[gi]
			if !dirtyTo(legs, tp.spans[gi], t) {
				continue
			}
			if view == nil {
				view = append([]float64(nil), outputs[producer].asFloat()...)
			}
			n := tg.Values
			if tg.off >= len(view) {
				continue
			}
			if tg.off+n > len(view) {
				n = len(view) - tg.off
			}
			r.applyLegs(view[tg.off:tg.off+n], tg.per, legs, tp.spans[gi], t)
		}
		return view
	}

	// When the raw segment crossed dirty, its readers see the relayed
	// reconstruction, not the sensor's pristine samples.
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
		r.applyLegs(samples, per, legs, tp.raw, srcTier)
		evRx = newEvent(g, biosig.Segment{Samples: samples, Label: seg.Label})
		return evRx
	}

	var id topology.CellID
	var ins []topology.Edge
	fetch := func(i int) value {
		e := ins[i]
		if e.From != topology.SourceID && tpl[e.From] != tpl[id] {
			if view := dirtyView(e.From, tpl[id]); view != nil {
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
		if state.Brownout && tpl[id] == 0 {
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
				avail[i] = tpl[id] == 0 || srcTier > 0 && r.ensureTo(legs, tp.raw, g.SourceBits, g.SegLen, tpl[id])
			case lost[e.From]:
				avail[i] = false
			case tpl[e.From] != tpl[id]:
				avail[i] = crossed(k0+i, tpl[id])
			default:
				avail[i] = true
			}
		}
		if c.Role == topology.RoleFusion {
			if tpl[id] == 0 {
				out.SensorEnergy += ts.cellEnergyAt(0, id)
			}
			v, used := ts.fusePartial(c, ins, avail, fetch)
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
		if tpl[id] == 0 {
			out.SensorEnergy += ts.cellEnergyAt(0, id)
		}
		cellEv := ev
		if tpl[id] > 0 && dirtyTo(legs, tp.raw, tpl[id]) {
			cellEv = rxEvent()
		}
		v, err := ts.evalCell(c, ins, fetch, cellEv)
		if err != nil {
			return out, fmt.Errorf("xsystem: cell %s: %w", c.Name, err)
		}
		outputs[id] = v
	}

	if lost[g.Output] {
		return out, &NoResultError{Cause: r.lastErr, Outcome: out.Outcome}
	}
	final := outputs[g.Output]
	switch {
	case final.fl != nil && len(final.fl) > 0:
		out.Score = final.fl[0]
	case final.fx != nil && len(final.fx) > 0:
		out.Score = final.fx[0].Float()
	default:
		return out, &NoResultError{Cause: r.lastErr, Outcome: out.Outcome}
	}
	if out.Score >= 0 {
		out.Label = 1
	}

	// March the result to its delivery tier, one hop at a time; failure
	// partway leaves a valid label local to the output's tier.
	out.Delivered = true
	ot, resT := tpl[g.Output], ts.Tiered.ResultTier
	if ot != resT {
		lo, hi, up := ot, resT, true
		if ot > resT {
			lo, hi, up = resT, ot, false
		}
		sc := quantizeWire(out.Score, wireless.ValueBits)
		dirty := false
		ok := true
		for h := lo; h < hi && ok; h++ {
			rx, legOK := r.sendHop(int(h), wireless.ValueBits, 1, up)
			ok = legOK
			if legOK && rx.Dirty() {
				dirty = true
				if mask, hit := rx.CorruptValues[0]; hit {
					sc = corruptWire(sc, wireless.ValueBits, mask)
				}
			}
		}
		out.Delivered = ok
		if ok && dirty {
			// Some relay decoded a damaged score word: report what the
			// delivery tier actually concluded.
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
