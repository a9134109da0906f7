package xsystem

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"xpro/internal/aggregator"
	"xpro/internal/biosig"
	"xpro/internal/celllib"
	"xpro/internal/ensemble"
	"xpro/internal/faults"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/serve"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// The walk golden digests pin every observable result of the event
// walk through its three entry points — System.Classify (labels, the
// traced spans' modeled fields, and the labels of an ordered stream of
// per-event Classify calls), System.ClassifyOver and
// TieredSystem.ClassifyOver (every Outcome/TieredOutcome field and the
// error text) — over the six cases, a spread of placements and the
// fault plans the runtime meets. The digests were recorded from the
// separate walks the package had before the execution plan was
// compiled, when streams ran a goroutine-per-cell network; any ledger
// drift changes a digest. Re-record deliberately with
//
//	go test -run TestWalkGoldenDigests -update-walk-golden ./internal/xsystem/

var updateWalkGolden = flag.Bool("update-walk-golden", false, "rewrite testdata/walk_digests.json from the current walks")

// caseFixture is one Table 1 case trained with the fast protocol.
type caseFixture struct {
	sym   string
	graph *topology.Graph
	ens   *ensemble.Ensemble
	test  *biosig.Dataset
}

var (
	sixOnce  sync.Once
	sixCache []caseFixture
	sixErr   error
)

// sixCases trains the six Table 1 cases with a minimal protocol: the
// walk checks need each case's graph and a working classifier, not its
// accuracy.
func sixCases(t testing.TB) []caseFixture {
	t.Helper()
	sixOnce.Do(func() {
		for _, sym := range []string{"C1", "C2", "E1", "E2", "M1", "M2"} {
			spec, err := biosig.CaseBySymbol(sym)
			if err != nil {
				sixErr = err
				return
			}
			d := biosig.Generate(spec)
			train, test := d.Split(0.75, rand.New(rand.NewSource(spec.Seed)))
			cfg := ensemble.DefaultConfig(spec.Seed)
			cfg.Candidates = 8
			cfg.Folds = 2
			cfg.TopFrac = 0.4
			cfg.CandidateTrainCap = 160
			ens, err := ensemble.Train(train, cfg)
			if err != nil {
				sixErr = fmt.Errorf("training %s: %w", sym, err)
				return
			}
			g, err := topology.Build(ens, d.SegLen)
			if err != nil {
				sixErr = err
				return
			}
			sixCache = append(sixCache, caseFixture{sym: sym, graph: g, ens: ens, test: test})
		}
	})
	if sixErr != nil {
		t.Fatal(sixErr)
	}
	return sixCache
}

// randomGroupedPlacement draws a random 2-end placement with every
// source reader on one end.
func randomGroupedPlacement(rng *rand.Rand, g *topology.Graph) partition.Placement {
	p := make(partition.Placement, len(g.Cells))
	for i := range p {
		p[i] = partition.End(rng.Intn(2))
	}
	readers := g.SourceReaders()
	for _, id := range readers {
		p[id] = p[readers[0]]
	}
	return p
}

// randomTierPlacement draws a random tier-monotone k-way placement with
// the source readers grouped on one tier.
func randomTierPlacement(rng *rand.Rand, g *topology.Graph, k int) partition.TierPlacement {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	p := make(partition.TierPlacement, len(g.Cells))
	readerTier := partition.Tier(rng.Intn(k))
	isReader := make([]bool, len(g.Cells))
	for _, id := range g.SourceReaders() {
		isReader[id] = true
	}
	for _, id := range order {
		lo := partition.Tier(0)
		for _, e := range g.InEdges(id) {
			if e.From != topology.SourceID && p[e.From] > lo {
				lo = p[e.From]
			}
		}
		if isReader[id] && readerTier > lo {
			lo = readerTier
		}
		p[id] = lo + partition.Tier(rng.Intn(k-int(lo)))
		if isReader[id] {
			p[id] = lo
		}
	}
	return p
}

// digestValue writes v's every field to h: floats at %.17g, slices
// element by element, nested structs recursively.
func digestValue(h hash.Hash, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(h, "%s=", v.Type().Field(i).Name)
			digestValue(h, v.Field(i))
			fmt.Fprint(h, ";")
		}
	case reflect.Slice:
		fmt.Fprintf(h, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
			fmt.Fprint(h, ",")
		}
		fmt.Fprint(h, "]")
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(h, "%.17g", v.Float())
	default:
		fmt.Fprintf(h, "%v", v.Interface())
	}
}

func digestErr(h hash.Hash, err error) {
	if err != nil {
		fmt.Fprintf(h, "err=%s;", err.Error())
	}
}

// walkPlan is one fault scenario of the digest battery: how to build
// the link-level transport, whether framing and a breaker are armed.
type walkPlan struct {
	name     string
	scenario string // faults.Scenario name; "" for no node-level plan
	channel  bool   // an opaque lossy wireless.Channel instead of faults.Link
	framed   bool
	breaker  bool
	nilLink  bool // the infallible link
}

var walkPlans = []walkPlan{
	{name: "nil", nilLink: true},
	{name: "nil-framed", nilLink: true, framed: true},
	{name: "channel", channel: true},
	{name: "lossy", scenario: "bursty", breaker: true},
	{name: "garbled-bare", scenario: "garbled"},
	{name: "garbled-framed", scenario: "garbled", framed: true},
	{name: "reboot-storm", scenario: "reboot-storm", framed: true, breaker: true},
	{name: "hub-storm", scenario: "hub-storm", breaker: true},
	{name: "flaky", scenario: "flaky", breaker: true},
}

const goldenEvents = 12

// twoEndPlacements returns the named 2-end placements of the battery.
func twoEndPlacements(t testing.TB, cf caseFixture, rng *rand.Rand) ([]string, []partition.Placement) {
	t.Helper()
	g := cf.graph
	sys, err := New(g, cf.ens, celllib.P90, wireless.Model2(), aggregator.CortexA8(), partition.InAggregator(g), sensornode.DefaultSampleRateHz)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sys.WithPlacement(partition.InSensor(g))
	if err != nil {
		t.Fatal(err)
	}
	limit := sys.DelayPerEvent().Total()
	if d := s.DelayPerEvent().Total(); d < limit {
		limit = d
	}
	gen, err := sys.Problem().Generate(func(p partition.Placement) float64 { return sys.DelayOf(p).Total() }, limit)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"in-sensor", "in-aggregator", "generated", "trivial"}
	pls := []partition.Placement{partition.InSensor(g), partition.InAggregator(g), gen.Placement, partition.Trivial(g)}
	for i := 0; i < 3; i++ {
		names = append(names, fmt.Sprintf("random-%d", i))
		pls = append(pls, randomGroupedPlacement(rng, g))
	}
	return names, pls
}

// walkGoldenDigests runs the whole battery and returns one digest per
// (case, walk, placement[, plan]).
func walkGoldenDigests(t testing.TB) map[string]string {
	t.Helper()
	out := map[string]string{}
	for ci, cf := range sixCases(t) {
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		g := cf.graph
		segs := cf.test.Segs
		if len(segs) > goldenEvents {
			segs = segs[:goldenEvents]
		}
		link := wireless.Models()[ci%3]
		base, err := New(g, cf.ens, celllib.P90, link, aggregator.CortexA8(), partition.InAggregator(g), sensornode.DefaultSampleRateHz)
		if err != nil {
			t.Fatal(err)
		}
		period := 1 / base.EventsPerSecond()
		horizon := float64(len(segs)) * period
		names, pls := twoEndPlacements(t, cf, rng)
		for pi, pl := range pls {
			sys, err := New(g, cf.ens, celllib.P90, link, aggregator.CortexA8(), pl, sensornode.DefaultSampleRateHz)
			if err != nil {
				t.Fatal(err)
			}
			key := cf.sym + "/" + names[pi]

			// The infallible walk: labels, then the traced spans' modeled
			// fields, then the labels of an ordered stream.
			h := sha256.New()
			tr := telemetry.NewTracer(len(segs) * (len(g.Cells) + 1))
			traced := *sys
			traced.Tracer = tr
			traced.Metrics = telemetry.NewRegistry()
			for _, seg := range segs {
				label, err := traced.Classify(seg)
				fmt.Fprintf(h, "label=%d;", label)
				digestErr(h, err)
			}
			for _, sp := range tr.Spans() {
				fmt.Fprintf(h, "span=%d/%s/%s/%.17g/%.17g/%s;", sp.Event, sp.Name, sp.End, sp.EnergyJoules, sp.DelaySeconds, sp.Err)
			}
			jobs := make(chan func() string)
			go func() {
				defer close(jobs)
				for i, seg := range segs {
					jobs <- func() string {
						label, err := traced.Classify(seg)
						row := fmt.Sprintf("stream=%d/%d;", i, label)
						if err != nil {
							row += fmt.Sprintf("err=%s;", err.Error())
						}
						return row
					}
				}
			}()
			for row := range serve.Ordered(jobs, 2, 4) {
				fmt.Fprint(h, row)
			}
			out[key+"/classify"] = hex.EncodeToString(h.Sum(nil))

			for wi, wp := range walkPlans {
				h := sha256.New()
				clock := &faults.Clock{}
				opt := &ResilientOptions{Clock: clock, Policy: faults.DefaultPolicy()}
				seed := int64(7919*ci + 31*pi + wi)
				if wp.scenario != "" {
					plan, err := faults.Scenario(wp.scenario, seed, horizon)
					if err != nil {
						t.Fatal(err)
					}
					opt.Plan = plan
				}
				switch {
				case wp.nilLink:
				case wp.channel:
					ch, err := wireless.NewChannel(link, 0.2, 1, seed)
					if err != nil {
						t.Fatal(err)
					}
					opt.Transport = ch
				default:
					fl, err := faults.NewLink(link, opt.Plan, clock, 0.05, 1, seed)
					if err != nil {
						t.Fatal(err)
					}
					opt.Transport = fl
				}
				if wp.framed {
					opt.Integrity = &faults.Framing{}
				}
				if wp.breaker {
					br, err := faults.NewBreaker(opt.Policy.BreakerThreshold, opt.Policy.BreakerCooldown, clock)
					if err != nil {
						t.Fatal(err)
					}
					opt.Breaker = br
				}
				for _, seg := range segs {
					o, err := sys.ClassifyOver(seg, opt)
					digestValue(h, reflect.ValueOf(o))
					digestErr(h, err)
					clock.Advance(period)
				}
				out[key+"/over/"+wp.name] = hex.EncodeToString(h.Sum(nil))
			}
		}

		// The tiered walk over the default three-tier chain.
		cross, err := base.WithPlacement(pls[2])
		if err != nil {
			t.Fatal(err)
		}
		ts := threeTier(t, cross)
		tnames := []string{"solved", "all-sensor", "all-hub", "all-cloud", "cap-1", "cap-0-home-0", "random-0", "random-1", "random-2"}
		var tsys []*TieredSystem
		for _, pl := range []partition.TierPlacement{ts.TierPlacement, partition.AllAt(g, 0), partition.AllAt(g, 1), partition.AllAt(g, 2)} {
			s, err := ts.WithTierPlacement(pl)
			if err != nil {
				t.Fatal(err)
			}
			tsys = append(tsys, s)
		}
		capped, err := ts.WithTierPlacement(ts.TierPlacement.CapAt(1))
		if err != nil {
			t.Fatal(err)
		}
		homed, err := ts.WithResultDelivery(ts.TierPlacement.CapAt(0), 0)
		if err != nil {
			t.Fatal(err)
		}
		tsys = append(tsys, capped, homed)
		for i := 0; i < 3; i++ {
			s, err := ts.WithTierPlacement(randomTierPlacement(rng, g, 3))
			if err != nil {
				t.Fatal(err)
			}
			tsys = append(tsys, s)
		}
		for si, s := range tsys {
			for wi, wp := range walkPlans {
				if wp.channel {
					continue // hops carry faults.Links only
				}
				h := sha256.New()
				clock := &faults.Clock{}
				opt := &TieredOptions{Clock: clock, Policy: faults.DefaultPolicy()}
				seed := int64(104729*ci + 37*si + wi)
				if wp.framed {
					opt.Integrity = &faults.Framing{}
				}
				if !wp.nilLink {
					var plan *faults.Plan
					if wp.scenario != "" {
						p, err := faults.Scenario(wp.scenario, seed, horizon)
						if err != nil {
							t.Fatal(err)
						}
						plan = p
						opt.Plan = p
					}
					storm := faults.HubStormPlan(seed, faults.PlanConfig{Horizon: horizon, MeanDuration: horizon / 20, HubStorms: 2})
					for hop := range s.Tiered.Hops {
						hp := plan
						if wp.scenario == "hub-storm" {
							hp = faults.MergePlans(plan, storm)
						}
						fl, err := faults.NewLink(s.Tiered.Hops[hop].Link, hp, clock, 0.05, 1, faults.HopSeed(seed, hop))
						if err != nil {
							t.Fatal(err)
						}
						ht := HopTransport{Link: fl}
						if wp.breaker {
							br, err := faults.NewBreaker(opt.Policy.BreakerThreshold, opt.Policy.BreakerCooldown, clock)
							if err != nil {
								t.Fatal(err)
							}
							ht.Breaker = br
						}
						opt.Hops = append(opt.Hops, ht)
					}
				}
				for _, seg := range segs {
					o, err := s.ClassifyOver(seg, opt)
					digestValue(h, reflect.ValueOf(o))
					digestErr(h, err)
					clock.Advance(period)
				}
				out[cf.sym+"/tiered/"+tnames[si]+"/"+wp.name] = hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	return out
}

func TestWalkGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the six cases")
	}
	path := filepath.Join("testdata", "walk_digests.json")
	got := walkGoldenDigests(t)
	if *updateWalkGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(keys), path)
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d digests, golden has %d", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		if got[k] != want[k] {
			bad++
			if bad <= 10 {
				t.Errorf("%s: digest %s, golden %s", k, got[k], want[k])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d digests differ in all", bad)
	}
}
