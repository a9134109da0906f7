package xsystem

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"xpro/internal/aggregator"
	"xpro/internal/celllib"
	"xpro/internal/faults"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/wireless"
)

// errKind names what a walk returned as its error: nothing, a
// *NoResultError (and whether a hard link-down lies underneath), or
// another error by its text.
func errKind(err error) string {
	var nre *NoResultError
	switch {
	case err == nil:
		return "nil"
	case errors.As(err, &nre):
		return fmt.Sprintf("no-result(link-down=%v)", faults.IsLinkDown(err))
	}
	return "error: " + err.Error()
}

// TestOneHopChainMatchesTwoEnd is the metamorphic check that a 1-hop
// chain walks like the 2-end system. Each tier-monotone 2-end placement
// of the golden battery, lifted onto partition.DefaultChain(2, link,
// link), must return from TieredSystem.ClassifyOver the same Outcome
// and the same kind of error as System.ClassifyOver: with no faults,
// and under seeded bursty, garbled and reboot-storm links, bare and
// framed, without a breaker. Both entry points run one walk, so what
// this pins is the k-tier compile and pricing path — the
// TieredProblem's hop link and tier-0 ComputeScale — against the
// 2-end one.
func TestOneHopChainMatchesTwoEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the six cases")
	}
	placements, retries, failed := 0, 0, 0
	for ci, cf := range sixCases(t) {
		g := cf.graph
		segs := cf.test.Segs
		if len(segs) > goldenEvents {
			segs = segs[:goldenEvents]
		}
		link := wireless.Models()[ci%3]
		names, pls := twoEndPlacements(t, cf, rand.New(rand.NewSource(int64(1000+ci))))
		// The named placements: in-sensor, in-aggregator, generated and
		// trivial. The random ones are rarely tier-monotone.
		for pi, p := range pls[:4] {
			key := cf.sym + "/" + names[pi]
			sys, err := New(g, cf.ens, celllib.P90, link, aggregator.CortexA8(), p, sensornode.DefaultSampleRateHz)
			if err != nil {
				t.Fatal(err)
			}
			tiers, hops := partition.DefaultChain(2, link, link)
			chain, err := NewTiered(sys, tiers, hops)
			if err != nil {
				t.Fatal(err)
			}
			lifted := make(partition.TierPlacement, len(p))
			for i, e := range p {
				lifted[i] = partition.Tier(e)
			}
			ts, err := chain.WithTierPlacement(lifted)
			if err != nil {
				t.Fatalf("%s: lifting onto the 1-hop chain: %v", key, err)
			}
			placements++
			period := 1 / sys.EventsPerSecond()
			horizon := float64(len(segs)) * period
			for si, scenario := range []string{"", "bursty", "garbled", "reboot-storm"} {
				for _, framed := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/framed=%v", key, scenario, framed)
					seed := int64(7919*ci + 31*pi + si)
					rclock, tclock := &faults.Clock{}, &faults.Clock{}
					ropt := &ResilientOptions{Clock: rclock, Policy: faults.DefaultPolicy()}
					topt := &TieredOptions{Clock: tclock, Policy: faults.DefaultPolicy()}
					if framed {
						ropt.Integrity, topt.Integrity = &faults.Framing{}, &faults.Framing{}
					}
					if scenario != "" {
						plan, err := faults.Scenario(scenario, seed, horizon)
						if err != nil {
							t.Fatal(err)
						}
						ropt.Plan, topt.Plan = plan, plan
						rl, err := faults.NewLink(link, plan, rclock, 0.05, 1, seed)
						if err != nil {
							t.Fatal(err)
						}
						tl, err := faults.NewLink(ts.Tiered.Hops[0].Link, plan, tclock, 0.05, 1, seed)
						if err != nil {
							t.Fatal(err)
						}
						ropt.Transport = rl
						topt.Hops = []HopTransport{{Link: tl}}
					}
					for i, seg := range segs {
						want, werr := sys.ClassifyOver(seg, ropt)
						got, gerr := ts.ClassifyOver(seg, topt)
						if got.Outcome != want {
							t.Fatalf("%s event %d: 1-hop chain %+v, 2-end %+v", name, i, got.Outcome, want)
						}
						if gk, wk := errKind(gerr), errKind(werr); gk != wk {
							t.Fatalf("%s event %d: 1-hop chain error %s (%v), 2-end %s (%v)", name, i, gk, gerr, wk, werr)
						}
						retries += want.Retries
						if werr != nil {
							failed++
						}
						rclock.Advance(period)
						tclock.Advance(period)
					}
				}
			}
		}
	}
	t.Logf("%d placements: %d retries and %d failed events, all equal", placements, retries, failed)
	if retries == 0 || failed == 0 {
		t.Fatalf("the battery exercised %d retries and %d failed events; it must reach both", retries, failed)
	}
}
