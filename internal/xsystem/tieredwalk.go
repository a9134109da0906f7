package xsystem

import (
	"errors"
	"fmt"
	"time"

	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/frame"
	"xpro/internal/partition"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// This file implements the event walk, the one every entry point runs:
// both ClassifyOver methods, and plain Classify over one infallible
// hop. A placement over a chain of k tiers
// crosses k−1 hops (sensor→hub, hub→gateway, …), and a 2-end placement
// is the 1-hop chain sensor (tier 0) → aggregator (tier 1) over
// System.Link. Each hop is an independent physical channel with its own
// transport, retry loop, circuit breaker and integrity framing. Every
// payload walks its hop span one hop at a time — a group produced on
// tier u and consumed on tier t crosses the hops between them, each
// crossing attempted at most once per event however many consumers
// need it — and every attempt's air time, backoff wait and energy is
// charged against one shared deadline/energy budget. The walk keeps
// computing with whatever arrived: a cell with a lost input is itself
// lost, except the fusion cell, which fuses the base-classifier scores
// that did arrive.

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
	// crossing, exactly as ResilientOptions.Integrity does on the 2-end
	// link.
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

// hop is one hop of a walk: its datasheet link, charged when the hop
// has no transport, and the sender its entry point armed. The k-tier
// entry arms each HopTransport with tiered set: an open breaker fails
// the hop's crossings fast, and a hard failure surfaces as a
// *HopOutageError. The 2-end entry arms its ResilientOptions transport:
// the breaker only records each payload's fate, and a failure stays the
// transport's own error.
type hop struct {
	partition.Hop
	tr      Transport
	breaker *faults.Breaker
	tiered  bool
}

// leg is one hop crossing's per-event state: the payload is attempted
// at most once per event, however many consumers read it. rx (when the
// transport is value-aware) pins what the receive side saw; counted
// guards the one-time imputation tally.
type leg struct {
	attempted, ok, counted bool
	rx                     *frame.RxReport
}

// trun is the per-event budget and bookkeeping of one walk. It holds
// the outcome by value, and the walk passes its hops to each method:
// Go's escape analysis does not tell a struct's fields apart, so a
// pointer kept here would reach the heap with lastErr, which the walk
// wraps in a heap *NoResultError.
type trun struct {
	opt     TieredOptions
	out     TieredOutcome
	lastErr error
	exhaust bool
}

func (r *trun) overBudget(extra float64) bool {
	d := r.opt.Policy.Deadline
	return d > 0 && r.out.SpentSeconds+extra > d
}

// chargeCleanHop accounts the datasheet cost of one payload on an
// infallible hop, including the integrity envelope when framing is on.
func (r *trun) chargeCleanHop(hops []hop, h int, bits int64, up bool) {
	hop := &hops[h]
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

// sendHop moves one payload across hop h (up: tier h → h+1, else
// down) with retry + backoff under the remaining budget, reporting how
// it arrived. A value-aware transport reports corruption, smears and
// values to impute and books the values on the wire; an opaque one
// reports nothing and books neither.
func (r *trun) sendHop(hops []hop, h int, bits int64, values int, up bool) (*frame.RxReport, bool) {
	hop := &hops[h]
	if hop.tr == nil {
		r.chargeCleanHop(hops, h, bits, up)
		r.out.TransfersOK++
		r.out.HopTransfersOK[h]++
		r.out.WireValues += values
		return nil, true
	}
	if hop.tiered && hop.breaker != nil && !hop.breaker.Allow() {
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
	vt, _ := hop.tr.(ValueTransport)
	for attempt := 0; ; attempt++ {
		var tr wireless.Transfer
		var rx *frame.RxReport
		var err error
		if vt != nil {
			tr, rx, err = vt.SendValues(bits, values, r.opt.Integrity)
		} else {
			tr, err = hop.tr.Send(bits)
		}
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
			if vt != nil {
				r.out.WireValues += values
			}
			if hop.breaker != nil {
				hop.breaker.RecordSuccess()
			}
			return rx, true
		}
		r.lastErr = err
		if faults.IsLinkDown(err) {
			r.out.HardOutage = true
			r.out.HopOutage[h] = true
			if hop.tiered {
				var ld *faults.ErrLinkDown
				errors.As(err, &ld)
				r.lastErr = &HopOutageError{Hop: h, At: ld.At, Until: ld.Until, Retries: attempt, Cause: err}
			}
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
	if hop.breaker != nil {
		hop.breaker.RecordFailure()
	}
	r.out.LostTransfers++
	r.out.HopLost[h]++
	return nil, false
}

// ensureTo walks span's legs toward tier t, sending each unattempted
// one, and reports whether the payload reached tier t. A leg that
// failed blocks every leg beyond it (the payload never reached that
// hop's sender).
func (r *trun) ensureTo(hops []hop, legs []leg, sp hopSpan, bits int64, values int, t partition.Tier) bool {
	h, step, n := sp.toward(t)
	for j := 0; j < n; j++ {
		x := &legs[sp.legOff+j]
		if !x.attempted {
			x.attempted = true
			x.rx, x.ok = r.sendHop(hops, h+j*step, bits, values, step > 0)
		}
		if !x.ok {
			return false
		}
	}
	return true
}

// dirtyTo reports whether any delivered leg of span on the way to tier
// t carries receive-side damage.
func dirtyTo(legs []leg, sp hopSpan, t partition.Tier) bool {
	_, _, n := sp.toward(t)
	for j := 0; j < n; j++ {
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
	_, _, n := sp.toward(t)
	for j := 0; j < n; j++ {
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
	if len(opt.Hops) > nh {
		return TieredOutcome{}, fmt.Errorf("xsystem: %d hop transports for a %d-hop chain", len(opt.Hops), nh)
	}
	hops := make([]hop, nh)
	for h := range hops {
		hops[h] = hop{Hop: ts.Tiered.Hops[h], tiered: true}
		if h < len(opt.Hops) && opt.Hops[h].Link != nil {
			hops[h].tr, hops[h].breaker = opt.Hops[h].Link, opt.Hops[h].Breaker
		}
	}
	var out TieredOutcome
	var err error
	out.Outcome, err = ts.walk(seg, ts.tplan, hops, *opt, spanSink{}, &out)
	return out, err
}

// bindBooks points out's per-hop books at ints (four books), air (two)
// and outage, one entry per hop each.
func bindBooks(out *TieredOutcome, ints []int, air []float64, outage []bool) {
	nh := len(outage)
	out.HopTransfersOK, out.HopRetries = ints[:nh:nh], ints[nh:2*nh:2*nh]
	out.HopLost, out.HopSkipped = ints[2*nh:3*nh:3*nh], ints[3*nh:4*nh:4*nh]
	out.HopOutage = outage
	out.HopEnergyJ, out.HopAirSeconds = air[:nh:nh], air[nh:2*nh:2*nh]
}

// spanSink records one span per executed cell of one traced event: the
// cell's name, end, measured wall time and modeled per-activation cost.
// The zero sink records nothing.
type spanSink struct {
	tr    *telemetry.Tracer
	event uint64
}

// start returns a traced cell's start time; the zero time when
// untraced.
func (sk spanSink) start() time.Time {
	if sk.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// cell records cell c's span, begun at t0, priced from pl's 2-end
// books.
func (sk spanSink) cell(pl *placementPlan, c topology.Cell, t0 time.Time, err error) {
	if sk.tr == nil {
		return
	}
	cc := &pl.cost[c.ID]
	span := telemetry.Span{
		Event: sk.event, Name: c.Name, End: cc.end,
		Start: t0, Wall: time.Since(t0),
		EnergyJoules: cc.energy, DelaySeconds: cc.delay,
	}
	if err != nil {
		span.Err = err.Error()
	}
	sk.tr.Add(span)
}

// walk executes the pipeline on one segment over tier plan tp, crossing
// hop h through hops[h] under opt's node-level plan, clock, policy and
// framing (opt.Hops is the entry point's business, not the walk's), and
// records each executed cell's span into spans. Its buffers come from
// an arena of the plan's pool. When books is set, the per-hop books are
// allocated into its Hop* slices for the caller to keep; nil books (a
// 2-end walk, one hop) are kept in the arena and dropped with it.
func (s *System) walk(seg biosig.Segment, tp *tierPlan, hops []hop, opt TieredOptions, spans spanSink, books *TieredOutcome) (Outcome, error) {
	nh := len(hops)
	if s.Ens == nil {
		return Outcome{}, errors.New("xsystem: cost-analysis-only system has no classifier (built with nil ensemble)")
	}
	if len(seg.Samples) != s.Graph.SegLen {
		return Outcome{}, fmt.Errorf("xsystem: segment length %d, engine built for %d", len(seg.Samples), s.Graph.SegLen)
	}
	g := s.Graph
	tpl := tp.tiers
	pl := s.plan
	a := pl.take()
	defer pl.put(a)

	r := &trun{opt: opt}
	out := &r.out
	if books != nil {
		bindBooks(out, make([]int, 4*nh), make([]float64, 2*nh), make([]bool, nh))
		*books = *out
	} else {
		a.ints, a.air, a.outage = [4]int{}, [2]float64{}, [1]bool{}
		bindBooks(out, a.ints[:], a.air[:], a.outage[:])
	}
	state := opt.Plan.At(opt.now())

	// The compute schedule is the collapsed two-natured runtime's:
	// charge it up front, then add what the faulty hops actually cost.
	// Sensing runs regardless of how the event goes; compute and radio
	// energy accrue below as cells execute and attempts go on the air.
	out.SpentSeconds = pl.delay.FrontEnd + pl.delay.BackEnd
	out.SensorEnergy = s.problem.SensingEnergy

	// An aggregator stall preempts every upper-tier cell until the
	// window ends; the wait comes out of the shared deadline budget.
	if state.AggStall && tp.upperCells > 0 {
		wait := opt.Plan.Until(opt.now(), faults.AggStall) - opt.now()
		if r.overBudget(wait) {
			out.DeadlineExceeded = true
			return out.Outcome, &NoResultError{Outcome: out.Outcome}
		}
		out.SpentSeconds += wait
	}

	// Crossing payloads, memoized per (payload, hop): the raw segment
	// (when the source readers sit above tier 0), one span per crossing
	// transfer group, and the final result march below.
	if len(a.legs) < tp.legs {
		a.legs = make([]leg, tp.legs)
	}
	legs := a.legs[:tp.legs]
	clear(legs)
	srcTier := tp.srcTier
	// crossed sends every crossing group the in-edge at CSR slot k waits
	// on to tier t, and reports whether all of them arrived.
	crossed := func(k int, t partition.Tier) bool {
		ok := true
		for _, gi := range tp.pairGroups(k) {
			tg := &pl.groups[gi]
			if !r.ensureTo(hops, legs, tp.spans[gi], tg.Bits, tg.Values, t) {
				ok = false
			}
		}
		return ok
	}

	ev := &a.ev
	ev.load(seg.Samples)
	// output returns the value cell id computed this event.
	output := func(id topology.CellID) value { return a.output(id, s.Placement.OnSensor(id)) }

	// dirtyView reconstructs what a consumer on tier t received of a
	// producer's crossing output when any traversed hop damaged it —
	// undetected corruption, smeared slots or imputed losses. Nil means
	// the arrival was pristine and the consumer reads the producer
	// verbatim (quantization happens in the gather path as always).
	dirtyView := func(producer topology.CellID, t partition.Tier) []float64 {
		var view []float64
		for _, gi := range pl.producedGroups(producer) {
			if !dirtyTo(legs, tp.spans[gi], t) {
				continue
			}
			if view == nil {
				view = append([]float64(nil), output(producer).asFloat()...)
			}
			// The group's slice of the producer's full output.
			n, lay := pl.groups[gi].Values, pl.layout[gi]
			if lay.off >= len(view) {
				continue
			}
			if lay.off+n > len(view) {
				n = len(view) - lay.off
			}
			r.applyLegs(view[lay.off:lay.off+n], lay.per, legs, tp.spans[gi], t)
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
		relayed := makeEvent(g.SegLen)
		relayed.load(samples)
		evRx = &relayed
		return evRx
	}

	// fetch resolves one in-edge's producer value as the current cell
	// sees it: crossing edges whose payload arrived damaged read the
	// receiver's reconstruction instead of the producer verbatim.
	var id topology.CellID
	var ins []topology.Edge
	fetch := func(i int) value {
		e := ins[i]
		if e.From != topology.SourceID && tpl[e.From] != tpl[id] {
			if view := dirtyView(e.From, tpl[id]); view != nil {
				return value{fl: view}
			}
		}
		return output(e.From)
	}
	clear(a.flags)
	lost, availAll := a.flags[:len(g.Cells)], a.flags[len(g.Cells):]
	complete := true
	for _, id = range pl.order {
		c := g.Cells[id]
		if state.Brownout && tpl[id] == 0 {
			// The sensing tier's cell array is below its operating
			// threshold; sensing itself survives, so raw data can still
			// stream out.
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
				avail[i] = tpl[id] == 0 || srcTier > 0 && r.ensureTo(hops, legs, tp.raw, g.SourceBits, g.SegLen, tpl[id])
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
				out.SensorEnergy += tp.sensorEnergy[id]
			}
			t0 := spans.start()
			used := s.fusePartial(c, ins, avail, fetch, output(id))
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
			spans.cell(pl, c, t0, nil)
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
			out.SensorEnergy += tp.sensorEnergy[id]
		}
		cellEv := ev
		if tpl[id] > 0 && dirtyTo(legs, tp.raw, tpl[id]) {
			cellEv = rxEvent()
		}
		t0 := spans.start()
		err := s.evalCell(c, ins, fetch, cellEv, a, output(id))
		spans.cell(pl, c, t0, err)
		if err != nil {
			return out.Outcome, fmt.Errorf("xsystem: cell %s: %w", c.Name, err)
		}
	}

	if lost[g.Output] {
		return out.Outcome, &NoResultError{Cause: r.lastErr, Outcome: out.Outcome}
	}
	final := output(g.Output)
	if final.len() == 0 {
		return out.Outcome, &NoResultError{Cause: r.lastErr, Outcome: out.Outcome}
	}
	out.Score = final.at(0)
	if out.Score >= 0 {
		out.Label = 1
	}

	// March the result to its delivery tier, one hop at a time; failure
	// partway leaves a valid label local to the output's tier.
	out.Delivered = true
	ot, resT := tpl[g.Output], tp.result
	if ot != resT {
		lo, hi, up := ot, resT, true
		if ot > resT {
			lo, hi, up = resT, ot, false
		}
		sc := quantizeWire(out.Score, wireless.ValueBits)
		dirty := false
		ok := true
		for h := lo; h < hi && ok; h++ {
			rx, legOK := r.sendHop(hops, int(h), wireless.ValueBits, 1, up)
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
	return out.Outcome, nil
}
