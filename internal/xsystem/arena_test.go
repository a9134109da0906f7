package xsystem

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"xpro/internal/faults"
	"xpro/internal/partition"
)

// arenaSystems is the set of siblings the arena battery serves through:
// the generated cut, the trivial cut and a three-tier chain with every
// cell on the hub, so the raw segment crosses the body hop in several
// frames; all built from one base system and so sharing its compiled
// graph and arena pool.
type arenaSystems struct {
	cross, trivial *System
	ts             *TieredSystem
}

func newArenaSystems(t *testing.T, f *fixture, gen partition.Placement) arenaSystems {
	t.Helper()
	base := newSystem(t, f, partition.InAggregator(f.graph))
	cross, err := base.WithPlacement(gen)
	if err != nil {
		t.Fatal(err)
	}
	trivial, err := base.WithPlacement(partition.Trivial(f.graph))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := threeTier(t, cross).WithTierPlacement(partition.AllAt(f.graph, 1))
	if err != nil {
		t.Fatal(err)
	}
	return arenaSystems{cross: cross, trivial: trivial, ts: ts}
}

// arenaResult is everything one battery event returns; a plain
// Classify fills only the label.
type arenaResult struct {
	out TieredOutcome
	err string
}

// fingerprint digests every field of r, floats at full precision.
func (r arenaResult) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "score=%x;err=%s;", math.Float64bits(r.out.Score), r.err)
	digestValue(h, reflect.ValueOf(r.out))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// arenaEvent runs battery event i through sys. Kinds rotate: a plain
// Classify; the trivial cut over a lossy link, with the sensor's cells
// browned out on every other such event; an aggregator stall past the
// deadline; a framed 3-tier walk that loses frames to imputation; and
// lossy crossings that leave the fusion part of its votes. Each event
// has its own clock and links, seeded by i.
func arenaEvent(t *testing.T, f *fixture, sys arenaSystems, i int) arenaResult {
	seg := f.test.Segs[i%len(f.test.Segs)]
	clock := &faults.Clock{}
	clock.Advance(float64(i) / sys.cross.EventsPerSecond())
	pol := faults.DefaultPolicy()
	link := func(h int, loss float64, plan *faults.Plan) *faults.Link {
		m := sys.trivial.Link
		if h >= 0 {
			m = sys.ts.Tiered.Hops[h].Link
		}
		l, err := faults.NewLink(m, plan, clock, loss, 0, faults.HopSeed(int64(i), max(h, 0)))
		if err != nil {
			t.Error(err)
		}
		return l
	}
	var r arenaResult
	var err error
	switch i % 5 {
	case 0:
		r.out.Label, err = sys.cross.Classify(seg)
	case 1:
		plan := &faults.Plan{}
		if i/5%2 == 0 {
			plan.Windows = []faults.Window{{Kind: faults.Brownout, Start: 0, End: 1e9}}
		}
		r.out.Outcome, err = sys.trivial.ClassifyOver(seg, &ResilientOptions{Transport: link(-1, 0.2, plan), Plan: plan, Clock: clock, Policy: pol})
	case 2:
		plan := &faults.Plan{Windows: []faults.Window{{Kind: faults.AggStall, Start: 0, End: 1e9}}}
		r.out.Outcome, err = sys.trivial.ClassifyOver(seg, &ResilientOptions{Plan: plan, Clock: clock, Policy: pol})
	case 3:
		opt := &TieredOptions{Clock: clock, Policy: pol, Integrity: &faults.Framing{}}
		for h := range sys.ts.Tiered.Hops {
			opt.Hops = append(opt.Hops, HopTransport{Link: link(h, 0.15, nil)})
		}
		r.out, err = sys.ts.ClassifyOver(seg, opt)
	case 4:
		r.out.Outcome, err = sys.trivial.ClassifyOver(seg, &ResilientOptions{Transport: link(-1, 0.45, nil), Clock: clock, Policy: pol})
	}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// TestWalkArenaReuse serves interleaved events from four goroutines
// through siblings that share one arena pool, and checks every result
// against the same event on a freshly built system, whose new plan
// brings a fresh pool. State an arena carried from one event into the
// next, or a walk that shared one, shows as a difference. Per-hop books
// a tiered caller keeps must not change after later events.
func TestWalkArenaReuse(t *testing.T) {
	f := getFixture(t)
	base := newSystem(t, f, partition.InAggregator(f.graph))
	limit := min(base.DelayPerEvent().Total(), base.DelayOf(partition.InSensor(f.graph)).Total())
	gen, err := base.Problem().Generate(func(p partition.Placement) float64 { return base.DelayOf(p).Total() }, limit)
	if err != nil {
		t.Fatal(err)
	}
	shared := newArenaSystems(t, f, gen.Placement)

	const workers, perWorker = 4, 15
	got := make([]arenaResult, workers*perWorker)
	// atReturn fingerprints each result as it came back, so per-hop books
	// that later events overwrote would show.
	atReturn := make([]string, len(got))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(got); i += workers {
				got[i] = arenaEvent(t, f, shared, i)
				atReturn[i] = got[i].fingerprint()
			}
		}(w)
	}
	wg.Wait()

	var browned, stalled, imputed, partial int
	for i, r := range got {
		if r.fingerprint() != atReturn[i] {
			t.Errorf("event %d: its result changed after later events", i)
		}
		fresh := arenaEvent(t, f, newArenaSystems(t, f, gen.Placement), i)
		if r.fingerprint() != fresh.fingerprint() {
			t.Errorf("event %d (kind %d): pooled walk returned %+v (err %q), fresh system %+v (err %q)", i, i%5, r.out, r.err, fresh.out, fresh.err)
		}
		o := r.out
		switch {
		case i%5 == 1 && i/5%2 == 0 && r.err != "":
			browned++
		case i%5 == 2 && o.DeadlineExceeded:
			stalled++
		case i%5 == 3 && o.ImputedValues > 0:
			imputed++
		case i%5 == 4 && o.PartialFusion:
			partial++
		}
	}
	t.Logf("%d browned-out, %d stalled, %d imputing, %d partial-fusion events of %d", browned, stalled, imputed, partial, len(got))
	if browned == 0 || stalled == 0 || imputed == 0 || partial == 0 {
		t.Errorf("battery missed a path: %d browned-out, %d stalled, %d imputing, %d partial-fusion events", browned, stalled, imputed, partial)
	}
}
