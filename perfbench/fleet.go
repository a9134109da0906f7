package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"xpro"
)

// The fleet workload: an open loop through Network.Serve with
// DefaultOverload. 24 plain engines, 8 per case; seeded Poisson arrivals
// in two phases, a nominal one at about a third of capacity and an
// overload one above it. The end-to-end rates come from the nominal
// phase: the overload phase's rates moved 0.18 to 0.26 (quartile spread
// over median) between seeds on a shared 2-core machine, too wide to
// gate, so they are per-layer metrics.
const (
	fleetSubjects      = 24
	fleetNominalRate   = 4000.0  // events/s
	fleetOverloadRate  = 20000.0 // events/s
	fleetNominalShare  = 0.4     // of --seconds, measured
	fleetOverloadShare = 0.3     // of --seconds, measured
	// fleetWarmShare of --seconds opens each phase unmeasured: a fresh
	// fleet, and a fleet entering overload, take about a second to settle.
	fleetWarmShare = 0.15
	fleetWindows   = 6

	// fleetGoodWithin is the latency limit of goodput: the 50 ms
	// DefaultResilience deadline and DefaultOverload brownout entry delay.
	fleetGoodWithin = 50 * time.Millisecond
	// replayEvents bounds how many events a traced run replays.
	replayEvents = 3000
)

type fleetWL struct {
	o   options
	env *env
}

type fleetState struct {
	net     *xpro.Network
	fleet   *xpro.Fleet
	names   []string
	engines []*xpro.Engine
	cases   []string // case of each subject
}

func (s *fleetState) close() { s.fleet.Close() }

// cases returns the case of every subject; subject r's traffic weight
// is 1/(r+1), so a few subjects get most events.
func (w *fleetWL) cases() []string { return w.env.subjectCases(fleetSubjects, 1) }

func (w *fleetWL) setup() (state, error) {
	st := &fleetState{}
	byName := make(map[string]*xpro.Engine, fleetSubjects)
	for r, c := range w.cases() {
		e, err := xpro.New(xpro.Config{Case: c})
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("s%02d", r)
		byName[name] = e
		st.names = append(st.names, name)
		st.engines = append(st.engines, e)
		st.cases = append(st.cases, c)
	}
	net, err := xpro.NewNetwork(byName)
	if err != nil {
		return nil, err
	}
	f, err := net.Serve(xpro.ServeOptions{Workers: runtime.GOMAXPROCS(0), Overload: xpro.DefaultOverload()})
	if err != nil {
		return nil, err
	}
	st.net, st.fleet = net, f
	return st, nil
}

// fleetEvent is one generated arrival. due is nanoseconds from the
// phase start.
type fleetEvent struct {
	due  int64
	subj int32
	seg  int32
	prio xpro.Priority
}

// fleetInputs draws one phase's arrivals: Poisson at rate for seconds,
// subject by weight 1/(r+1), a uniform segment of the subject's case
// test set, and 5% alert, 25% batch, 70% interactive priority.
func (w *fleetWL) inputs(phase int, rate, seconds float64) []fleetEvent {
	rng := rand.New(rand.NewSource(mix(w.o.seed, phase)))
	cases := w.cases()
	n := len(cases)
	cum := make([]float64, n)
	total := 0.0
	for r := range cum {
		total += 1 / float64(r+1)
		cum[r] = total
	}
	var evs []fleetEvent
	for t := rng.ExpFloat64() / rate; t < seconds; t += rng.ExpFloat64() / rate {
		subj := sort.SearchFloat64s(cum, rng.Float64()*total)
		if subj >= n {
			subj = n - 1
		}
		segs := len(w.env.tests[cases[subj]])
		ev := fleetEvent{due: int64(t * 1e9), subj: int32(subj), seg: int32(rng.Intn(segs))}
		switch u := rng.Float64(); {
		case u < 0.05:
			ev.prio = xpro.PriorityAlert
		case u < 0.30:
			ev.prio = xpro.PriorityBatch
		default:
			ev.prio = xpro.PriorityInteractive
		}
		evs = append(evs, ev)
	}
	return evs
}

// fleetOutcome is what happened to one arrival. Times are nanoseconds
// from the phase start; done is -1 for a refused event.
type fleetOutcome struct {
	send, sendEnd, done int64
	label               int
	kind                string
}

// fleetPhase is one phase of the open loop. Events before first are
// due within the warm-up (before warmNs); the counters cover the rest.
type fleetPhase struct {
	evs     []fleetEvent
	out     []fleetOutcome
	warmNs  int64
	first   int
	cpuNs   int64
	alloc   uint64
	gc      gcWindow
	spans   uint64 // spans the program recorded during the phase
	records uint64 // event-log records the program appended
}

type fleetDetail struct {
	nominal, overload  *fleetPhase
	queueP50, queueP99 float64 // µs, read after the nominal phase
	// capacity and overloadGoodput are the overload phase's rates.
	capacity, overloadGoodput float64
	names                     []string
	cases                     []string
	engines                   []*xpro.Engine
}

func (w *fleetWL) pass(s state, rec *recorder) (*pass, error) {
	st := s.(*fleetState)
	sec := w.o.seconds
	warm := sec * fleetWarmShare
	d := &fleetDetail{names: st.names, cases: st.cases, engines: st.engines}
	d.nominal = w.phase(st, w.inputs(0, fleetNominalRate, warm+sec*fleetNominalShare), warm, rec)
	for _, m := range st.net.Observer().Metrics() {
		if m.Name != "xpro_fleet_queue_delay_seconds" {
			continue
		}
		for _, q := range m.Quantiles {
			switch q.Quantile {
			case 0.5:
				d.queueP50 = q.Value * 1e6
			case 0.99:
				d.queueP99 = q.Value * 1e6
			}
		}
	}
	d.overload = w.phase(st, w.inputs(1, fleetOverloadRate, warm+sec*fleetOverloadShare), warm, rec)

	p := &pass{detail: d}
	nom, ovl := d.nominal, d.overload
	p.attempted = len(nom.evs) + len(ovl.evs)
	// A refusal (ErrShed, ErrOverloaded) is a by-design outcome in either
	// phase; at nominal load it still misses every latency limit and
	// counts against goodput. Any other error is a failure.
	for _, ph := range []*fleetPhase{nom, ovl} {
		for _, o := range ph.out {
			switch o.kind {
			case "", "shed", "overloaded":
			default:
				p.failed++
			}
		}
	}
	p.events = len(nom.evs) - nom.first
	for i, o := range nom.out[nom.first:] {
		lat := math.Inf(1)
		if o.kind == "" {
			lat = float64(o.done-nom.evs[nom.first+i].due) / 1e3
		}
		p.lat = append(p.lat, lat)
	}
	p.p50 = windowed(p.lat, fleetWindows, 0.5)
	p.p90 = windowed(p.lat, fleetWindows, 0.9)
	p.allocPerEvent = float64(nom.alloc) / float64(p.events)
	p.wallNs = float64(nom.cpuNs) / float64(p.events)
	p.gc = nom.gc

	p.eventsPerS, p.goodput = nom.rates()
	d.capacity, d.overloadGoodput = ovl.rates()
	for _, ph := range []*fleetPhase{nom, ovl} {
		kinds := map[string]int{}
		for _, o := range ph.out {
			kinds[o.kind]++
		}
		fmt.Fprintf(os.Stderr, "fleet: %d arrivals, outcomes %v\n", len(ph.evs), kinds)
	}
	return p, nil
}

// rates returns the median over windows of the measured part of the
// phase of answered events per second and of events answered within
// fleetGoodWithin of their due time per second.
func (ph *fleetPhase) rates() (answered, good float64) {
	done := make([]float64, fleetWindows)
	ok := make([]float64, fleetWindows)
	winNs := float64(ph.evs[len(ph.evs)-1].due-ph.warmNs) / fleetWindows
	for i, o := range ph.out[ph.first:] {
		if o.kind != "" {
			continue
		}
		due := ph.evs[ph.first+i].due
		wi := min(int(float64(due-ph.warmNs)/winNs), fleetWindows-1)
		done[wi]++
		if time.Duration(o.done-due) <= fleetGoodWithin {
			ok[wi]++
		}
	}
	for i := range done {
		done[i] /= winNs / 1e9
		ok[i] /= winNs / 1e9
	}
	return median(done), median(ok)
}

type pendingResult struct {
	ch  <-chan xpro.FleetResult
	idx int
}

// phase runs one open-loop phase: a single generator submits each event
// at its due time, and one collector per subject receives that
// subject's results in submission order (the fleet serves one subject's
// events in order), stamping each on arrival. Events due before warmS
// seconds warm the fleet up; the phase's counters cover the rest.
func (w *fleetWL) phase(st *fleetState, evs []fleetEvent, warmS float64, rec *recorder) *fleetPhase {
	ph := &fleetPhase{evs: evs, out: make([]fleetOutcome, len(evs)), warmNs: int64(warmS * 1e9)}
	for ph.first < len(evs) && evs[ph.first].due < ph.warmNs {
		ph.first++
	}
	counts := make([]int, len(st.names))
	for _, ev := range evs {
		counts[ev.subj]++
	}
	queues := make([]chan pendingResult, len(st.names))
	var wg sync.WaitGroup
	base := time.Now()
	for s := range queues {
		// Sized to the subject's events, so the generator never blocks.
		queues[s] = make(chan pendingResult, counts[s])
		wg.Add(1)
		go func(q <-chan pendingResult) {
			defer wg.Done()
			for pr := range q {
				r := <-pr.ch
				o := &ph.out[pr.idx]
				o.done = int64(time.Since(base))
				o.label = r.Result.Label
				o.kind = errKind(r.Err)
			}
		}(queues[s])
	}
	obs := append(observers(st.engines), st.net.Observer())
	var spans0, records0 uint64
	var gc0 gcWindow
	var alloc0 uint64
	var cpu0 int64
	ctx := context.Background()
	for i, ev := range evs {
		if i == ph.first {
			spans0, records0 = engineTelemetry(obs...)
			gc0, alloc0, cpu0 = gcMark(), allocMark(), cpuNow()
		}
		if d := time.Duration(ev.due) - time.Since(base); d > 0 {
			time.Sleep(d)
		}
		o := &ph.out[i]
		o.send = int64(time.Since(base))
		ch, err := st.fleet.SubmitRequest(ctx, xpro.FleetRequest{
			Subject:  st.names[ev.subj],
			Samples:  w.env.tests[st.cases[ev.subj]][ev.seg].Samples,
			Priority: ev.prio,
		})
		if rec != nil {
			o.sendEnd = int64(time.Since(base))
		}
		if err != nil {
			o.done, o.kind = -1, errKind(err)
			continue
		}
		queues[ev.subj] <- pendingResult{ch: ch, idx: i}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	ph.cpuNs = cpuNow() - cpu0
	ph.alloc = allocMark() - alloc0
	ph.gc = gcMark().since(gc0)
	spans1, records1 := engineTelemetry(obs...)
	ph.spans, ph.records = spans1-spans0, records1-records0
	if rec != nil {
		off := int64(base.Sub(rec.base))
		for i, o := range ph.out {
			ev := int64(len(rec.spans) + 1)
			end := o.done
			if end < 0 {
				end = o.sendEnd
			}
			root := rec.add("event", 0, ev, off+evs[i].due, off+end)
			rec.add("submit", root, ev, off+o.send, off+o.sendEnd)
		}
	}
	return ph
}

// check asserts the pooled ≡ sequential contract of serve.go: every
// answered label equals the label the same engine gives that segment
// when called sequentially after the run.
func (w *fleetWL) check(p *pass, _ state) error {
	d := p.detail.(*fleetDetail)
	memo := make(map[[2]int32]int)
	bad, checked := 0, 0
	for _, ph := range []*fleetPhase{d.nominal, d.overload} {
		for i, o := range ph.out {
			if o.kind != "" {
				continue
			}
			ev := ph.evs[i]
			key := [2]int32{ev.subj, ev.seg}
			want, ok := memo[key]
			if !ok {
				r, err := d.engines[ev.subj].ClassifyResult(w.env.tests[d.cases[ev.subj]][ev.seg].Samples)
				if err != nil {
					return fmt.Errorf("sequential classify of %s: %w", d.names[ev.subj], err)
				}
				want = r.Label
				memo[key] = want
			}
			checked++
			if o.label != want {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d pooled labels differ from the sequential ones", bad, checked)
	}
	return nil
}
