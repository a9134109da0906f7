package main

import (
	"time"

	"xpro"
)

// The adaptive-chaos workload: one caller, events round-robin over 12
// resilient 2-end engines, two per case under each of the garbled and
// reboot-storm fault scenarios, each with DefaultIntegrity,
// DefaultAdaptive and crash recovery into a DurableStore, checkpointed
// every chaosCheckpointEvery events of its subject. An episode is
// chaosPerEpisode events per subject on freshly built engines whose
// fault plans span exactly the episode's modeled time.
const (
	chaosSubjects        = 12
	chaosPerEpisode      = 60
	chaosCheckpointEvery = 20
	chaosDigestEpisodes  = 2
)

var chaosScenarios = []string{"garbled", "reboot-storm"}

type chaosWL struct {
	o   options
	env *env
}

// chaosState is one episode's engines and their durable stores.
type chaosState struct {
	engines []*xpro.Engine
	stores  []*xpro.DurableStore
}

func (s *chaosState) close() {}

// subjectCases returns the case of every subject; subject i runs fault
// scenario i mod 2.
func (w *chaosWL) subjectCases() []string {
	return w.env.subjectCases(chaosSubjects, len(chaosScenarios))
}

// faultSeed is the fault-plan seed of one subject in one episode.
func (w *chaosWL) faultSeed(subj, ep int) int64 { return mix(w.o.seed, 3, subj, ep) }

// plan returns the fault plan of one subject in one episode.
func (w *chaosWL) plan(subj, ep int) (*xpro.FaultPlan, string, error) {
	c := w.subjectCases()[subj]
	scn := chaosScenarios[subj%len(chaosScenarios)]
	fp, err := xpro.FaultScenario(scn, w.faultSeed(subj, ep), float64(chaosPerEpisode)/w.env.rate[c])
	return fp, scn, err
}

func (w *chaosWL) build(ep int) (*chaosState, error) {
	st := &chaosState{}
	for i, c := range w.subjectCases() {
		fp, _, err := w.plan(i, ep)
		if err != nil {
			return nil, err
		}
		e, err := xpro.New(xpro.Config{
			Case: c, FaultPlan: fp, Integrity: xpro.DefaultIntegrity(), Adaptive: xpro.DefaultAdaptive(),
		})
		if err != nil {
			return nil, err
		}
		s := xpro.NewDurableStore()
		if err := e.EnableRecovery(s); err != nil {
			return nil, err
		}
		st.engines = append(st.engines, e)
		st.stores = append(st.stores, s)
	}
	return st, nil
}

func (w *chaosWL) setup() (state, error) { return w.build(0) }

// chaosCounters accumulates what the program's own counters say about
// the episodes of one pass.
type chaosCounters struct {
	evals, repricings float64
	repriceSumS       float64
	repriceP50S       []float64 // one windowed p50 per engine that re-priced
	useful            int       // swaps + rollbacks
	spans, records    uint64
	journalBytes      int64
	checkpoints       int
	checkpointNs      []float64
}

type chaosEpisode struct {
	st       *chaosState
	lastSize []int
	c        *chaosCounters
	spans0   []uint64
	records0 []uint64
}

func (w *chaosWL) episode(st *chaosState, c *chaosCounters) *chaosEpisode {
	ce := &chaosEpisode{st: st, c: c}
	for i, e := range st.engines {
		ce.lastSize = append(ce.lastSize, st.stores[i].SizeBytes())
		_, s, _ := e.Observer().TraceStats()
		_, r, _ := e.Observer().EventLogStats()
		ce.spans0 = append(ce.spans0, s)
		ce.records0 = append(ce.records0, r)
	}
	return ce
}

func (ce *chaosEpisode) call(subj int, samples []float64) outcome {
	r, err := ce.st.engines[subj].ClassifyResult(samples)
	return outcome{
		label: r.Label, retries: r.Retries, lost: r.LostTransfers, imputed: r.ImputedValues,
		mode: r.Mode.String(), kind: errKind(err), spent: r.SpentSeconds, energy: r.SensorEnergyJoules,
	}
}

// after checkpoints a subject every chaosCheckpointEvery of its events;
// the store's growth since the previous checkpoint is journal.
func (ce *chaosEpisode) after(subj, n int, rec *recorder, parent, ev int64) {
	if n%chaosCheckpointEvery != 0 {
		return
	}
	s := ce.st.stores[subj]
	ce.c.journalBytes += int64(s.SizeBytes() - ce.lastSize[subj])
	t0 := time.Now()
	err := ce.st.engines[subj].Checkpoint(s)
	t1 := time.Now()
	if err == nil {
		ce.c.checkpoints++
		ce.c.checkpointNs = append(ce.c.checkpointNs, float64(t1.Sub(t0)))
	}
	if rec != nil {
		rec.add("checkpoint", parent, ev, int64(t0.Sub(rec.base)), int64(t1.Sub(rec.base)))
	}
	ce.lastSize[subj] = s.SizeBytes()
}

func (ce *chaosEpisode) end() {
	for i, e := range ce.st.engines {
		ce.c.journalBytes += int64(ce.st.stores[i].SizeBytes() - ce.lastSize[i])
		_, s, _ := e.Observer().TraceStats()
		_, r, _ := e.Observer().EventLogStats()
		ce.c.spans += s - ce.spans0[i]
		ce.c.records += r - ce.records0[i]
		for _, m := range e.Observer().Metrics() {
			switch m.Name {
			case "xpro_recut_evals_total":
				ce.c.evals += m.Value
			case "xpro_recut_eval_wall_seconds":
				ce.c.repricings += float64(m.Count)
				ce.c.repriceSumS += m.Sum
				for _, q := range m.Quantiles {
					if q.Quantile == 0.5 && m.Count > 0 {
						ce.c.repriceP50S = append(ce.c.repriceP50S, q.Value)
					}
				}
			}
		}
		ce.c.useful += len(e.RecutLog())
	}
}

func (w *chaosWL) spec(st *chaosState, o options, digestEpisodes int, c *chaosCounters) closedSpec {
	return closedSpec{
		o: o, env: w.env, subjects: w.subjectCases(),
		perEpisode: chaosPerEpisode, digestEpisodes: digestEpisodes,
		begin: func(ep int) (episode, error) {
			if ep == 0 {
				return w.episode(st, c), nil
			}
			next, err := w.build(ep)
			if err != nil {
				return nil, err
			}
			return w.episode(next, c), nil
		},
	}
}

func (w *chaosWL) pass(s state, rec *recorder) (*pass, error) {
	c := &chaosCounters{}
	p, d, err := runClosed(w.spec(s.(*chaosState), w.o, chaosDigestEpisodes, c), rec)
	if err != nil {
		return nil, err
	}
	d.extra = c
	return p, nil
}

// check compares the outcome digests and replays the first episode on
// spare.
func (w *chaosWL) check(p *pass, spare state) error {
	o := w.o
	o.seconds = 1e-9
	_, replay, err := runClosed(w.spec(spare.(*chaosState), o, 1, &chaosCounters{}), nil)
	if err != nil {
		return err
	}
	return checkClosed(w.o, p.detail.(*closedDetail), replay)
}
