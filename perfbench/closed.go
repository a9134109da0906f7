package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"
)

// The two closed-loop workloads share one driver: a single caller runs
// events round-robin over the subjects, one call after the other. The
// run is cut into episodes of a fixed number of events per subject, and
// each episode starts from freshly built program state with its own
// fault seeds, so the mix of faults a run sees does not depend on how
// many events the program manages per second. Building an episode is
// not measured.

// outcome is one event's modeled outcome: everything the digest covers.
type outcome struct {
	label, tier, retries, lost, imputed int
	mode, kind                          string
	spent, energy                       float64
}

// line renders the outcome canonically, floats at %.17g.
func (o outcome) line() string {
	return fmt.Sprintf("%d|%s|%d|%d|%d|%d|%s|%.17g|%.17g",
		o.label, o.mode, o.tier, o.retries, o.lost, o.imputed, o.kind, o.spent, o.energy)
}

// closedEvent is one event of a closed-loop stream.
type closedEvent struct {
	ep, subj, seg int
}

// episode is one episode's program state.
type episode interface {
	// call runs one event for subject subj.
	call(subj int, samples []float64) outcome
	// after runs the workload's periodic work once subject subj has
	// completed n events of the episode; it is measured, and traced as a
	// child of the event's span.
	after(subj, n int, rec *recorder, parent, ev int64)
	// end is called once the episode's last event ran.
	end()
}

// closedSpec describes one closed-loop workload.
type closedSpec struct {
	o        options
	env      *env
	subjects []string // case of each subject
	// perEpisode is each subject's event count per episode; the run
	// always completes digestEpisodes episodes.
	perEpisode, digestEpisodes int
	// begin returns episode ep's state. Episode 0's comes from the
	// workload's set-up.
	begin func(ep int) (episode, error)
}

type closedDetail struct {
	events    []closedEvent
	outs      []outcome
	epDigests []string
	// digest covers the first digestEpisodes episodes.
	digest       string
	prefixEvents int
	// extra is what the workload's episodes collected.
	extra any
}

// runClosed runs episodes until --seconds of measured time have passed
// and the digest prefix is complete.
func runClosed(cs closedSpec, rec *recorder) (*pass, *closedDetail, error) {
	d := &closedDetail{}
	p := &pass{detail: d}
	nsubj := len(cs.subjects)
	limit := time.Duration(cs.o.seconds * float64(time.Second))
	var measured time.Duration
	var allocs uint64
	prefix := newDigest()
	// lat is each call's wall (µs); loop each event's wall including the
	// workload's periodic work (s).
	var lat, loop []float64
	for ep := 0; ; ep++ {
		epis, err := cs.begin(ep)
		if err != nil {
			return nil, nil, fmt.Errorf("episode %d: %w", ep, err)
		}
		rng := rand.New(rand.NewSource(mix(cs.o.seed, 2, ep)))
		segs := make([]int, cs.perEpisode*nsubj)
		for k := range segs {
			segs[k] = rng.Intn(len(cs.env.tests[cs.subjects[k%nsubj]]))
		}
		epDigest := newDigest()
		done := make([]int, nsubj)
		stop := false
		gc0, alloc0 := gcMark(), allocMark()
		t0 := time.Now()
		for k, seg := range segs {
			subj := k % nsubj
			samples := cs.env.tests[cs.subjects[subj]][seg].Samples
			c0 := time.Now()
			o := epis.call(subj, samples)
			c1 := time.Now()
			done[subj]++
			var root, ev int64
			if rec != nil {
				ev = int64(len(d.events) + 1)
				root = rec.add("event", 0, ev, int64(c0.Sub(rec.base)), int64(c1.Sub(rec.base)))
				rec.add("classify", root, ev, int64(c0.Sub(rec.base)), int64(c1.Sub(rec.base)))
			}
			epis.after(subj, done[subj], rec, root, ev)
			c2 := time.Now()
			if rec != nil {
				rec.spans[root-1].End = int64(c2.Sub(rec.base))
			}
			lat = append(lat, float64(c1.Sub(c0))/1e3)
			loop = append(loop, c2.Sub(c0).Seconds())
			d.events = append(d.events, closedEvent{ep: ep, subj: subj, seg: seg})
			d.outs = append(d.outs, o)
			if o.kind != "" && o.kind != "tier-degraded" && o.kind != "suspect-data" && o.kind != "node-down" {
				p.failed++
			}
			epDigest.add(o.line())
			if ep < cs.digestEpisodes {
				prefix.add(o.line())
			}
			if ep >= cs.digestEpisodes && measured+time.Since(t0) >= limit {
				stop = true
				break
			}
		}
		measured += time.Since(t0)
		allocs += allocMark() - alloc0
		p.gc = p.gc.add(gcMark().since(gc0))
		epis.end()
		d.epDigests = append(d.epDigests, epDigest.sum())
		if ep == cs.digestEpisodes-1 {
			d.digest, d.prefixEvents = prefix.sum(), prefix.n
		}
		if stop || (ep >= cs.digestEpisodes-1 && measured >= limit) {
			break
		}
	}
	n := len(d.events)
	p.events, p.attempted = n, n
	p.lat = lat
	p.wallNs = float64(measured.Nanoseconds()) / float64(n)
	p.allocPerEvent = float64(allocs) / float64(n)
	// Throughput is the median over windows of events per second of
	// loop time. Goodput counts events answered with a label within the
	// 50 ms budget of their call; a quarantine or a down node is no
	// answer.
	windows := closedWindows(n)
	done := make([]float64, windows)
	good := make([]float64, windows)
	dur := make([]float64, windows)
	for i, o := range d.outs {
		w := min(i*windows/n, windows-1)
		dur[w] += loop[i]
		done[w]++
		if (o.kind == "" || o.kind == "tier-degraded") && lat[i] <= 50e3 {
			good[w]++
		}
	}
	for i := range good {
		done[i] /= dur[i]
		good[i] /= dur[i]
	}
	p.eventsPerS = median(done)
	p.goodput = median(good)
	// The latency percentiles are over round-robin rounds (one call per
	// subject) of each round's mean call wall. A single call's wall is
	// bimodal on adaptive-chaos — about 0.2 ms, or 2.5 to 4 ms when the
	// re-cut controller re-prices — and its median sat at the edge of
	// the slow mode, jumping between 2.6 and 3.4 ms from seed to seed.
	// Episodes hold whole rounds; only the last may end mid-round.
	var rounds []float64
	for k := 0; k+nsubj <= n; k += nsubj {
		sum := 0.0
		for _, us := range lat[k : k+nsubj] {
			sum += us
		}
		rounds = append(rounds, sum/float64(nsubj))
	}
	p.p50 = windowed(rounds, windows, 0.5)
	p.p90 = windowed(rounds, windows, 0.9)
	return p, d, nil
}

// closedWindows is how many windows the medians of a closed loop use.
func closedWindows(n int) int { return max(1, min(8, n/500)) }

//go:embed digests.json
var digestsJSON []byte

// recordedDigest returns the digest recorded for a workload and seed.
func recordedDigest(workload string, seed int64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", false
	}
	d, ok := all[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// checkClosed verifies a closed-loop pass: the digest of the prefix
// must equal the one recorded for the seed (a seed without one prints
// its digest instead), and the first episode replayed on a fresh
// set-up must reproduce the pass's first episode exactly.
func checkClosed(o options, d *closedDetail, replay *closedDetail) error {
	if want, ok := recordedDigest(o.workload, o.seed); ok {
		if d.digest != want {
			return fmt.Errorf("outcome digest %s over %d events differs from the recorded %s", d.digest, d.prefixEvents, want)
		}
		fmt.Printf("outcome digest %s over %d events matches the recorded one\n", d.digest, d.prefixEvents)
	} else {
		fmt.Printf("outcome digest %s over %d events (no digest recorded for seed %d)\n", d.digest, d.prefixEvents, o.seed)
	}
	if replay.epDigests[0] != d.epDigests[0] {
		return fmt.Errorf("first episode replayed on a fresh set-up gave digest %s, the run gave %s", replay.epDigests[0], d.epDigests[0])
	}
	return nil
}

// recordDigests prints the prefix digests of seeds 0..n as JSON.
func recordDigests(o options, n int) error {
	if o.workload == "fleet" {
		return fmt.Errorf("the fleet workload is checked against sequential labels, not digests")
	}
	e, err := train(benchCases)
	if err != nil {
		return err
	}
	out := map[string]string{}
	for seed := int64(0); seed <= int64(n); seed++ {
		so := o
		so.seed, so.seconds = seed, 1e-9
		w, err := newWorkload(so, e)
		if err != nil {
			return err
		}
		st, err := w.setup()
		if err != nil {
			return err
		}
		p, err := w.pass(st, nil)
		st.close()
		if err != nil {
			return err
		}
		out[strconv.FormatInt(seed, 10)] = p.detail.(*closedDetail).digest
	}
	b, err := json.MarshalIndent(map[string]map[string]string{o.workload: out}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
