package main

import (
	"xpro"
)

// The tiered-storm workload: one caller, events round-robin over six
// subjects (two per case), each through an armed 3-tier plan from
// Engine.PlanTiers(3) under its own seeded hub storms with framed
// transport. An episode is tieredPerEpisode events per subject; every
// episode plans and arms fresh, with a storm schedule spanning exactly
// the episode's modeled time.
const (
	tieredSubjects       = 6
	tieredTiers          = 3
	tieredPerEpisode     = 400
	tieredStorms         = 4
	tieredDigestEpisodes = 2
)

type tieredWL struct {
	o   options
	env *env
}

type tieredState struct {
	engines []*xpro.Engine
	plans   []*xpro.TierPlan // episode 0, armed at set-up
}

func (s *tieredState) close() {}

func (w *tieredWL) setup() (state, error) {
	st := &tieredState{}
	for _, c := range w.cases() {
		e, err := xpro.New(xpro.Config{Case: c})
		if err != nil {
			return nil, err
		}
		st.engines = append(st.engines, e)
	}
	plans, err := w.arm(st.engines, 0)
	if err != nil {
		return nil, err
	}
	st.plans = plans
	return st, nil
}

// stormSeed is the hub-storm and hop-fault seed of one subject's plan
// in one episode.
func (w *tieredWL) stormSeed(subj, ep int) int64 { return mix(w.o.seed, 1, subj, ep) }

// horizon is one episode's modeled length for a subject: the plan's
// clock advances one event period per event.
func (w *tieredWL) horizon(subj int) float64 {
	return float64(tieredPerEpisode) / w.env.rate[w.cases()[subj]]
}

// cases returns the case of every subject.
func (w *tieredWL) cases() []string { return w.env.subjectCases(tieredSubjects, 1) }

func (w *tieredWL) arm(engines []*xpro.Engine, ep int) ([]*xpro.TierPlan, error) {
	plans := make([]*xpro.TierPlan, len(engines))
	for i, e := range engines {
		p, err := e.PlanTiers(tieredTiers)
		if err != nil {
			return nil, err
		}
		if err := p.Arm(&xpro.TierResilience{
			HubStorms: tieredStorms, Seed: w.stormSeed(i, ep), Framed: true, HorizonSeconds: w.horizon(i),
		}); err != nil {
			return nil, err
		}
		plans[i] = p
	}
	return plans, nil
}

type tieredEpisode struct{ plans []*xpro.TierPlan }

func (t *tieredEpisode) call(subj int, samples []float64) outcome {
	r, err := t.plans[subj].ClassifyResult(samples)
	return outcome{
		label: r.Label, tier: r.Tier, retries: r.Retries, lost: r.LostTransfers, imputed: r.ImputedValues,
		mode: r.Mode.String(), kind: errKind(err), spent: r.SpentSeconds, energy: r.SensorEnergyJoules,
	}
}

func (t *tieredEpisode) after(int, int, *recorder, int64, int64) {}
func (t *tieredEpisode) end()                                    {}

func (w *tieredWL) spec(st *tieredState, o options, digestEpisodes int) closedSpec {
	return closedSpec{
		o: o, env: w.env, subjects: w.cases(),
		perEpisode: tieredPerEpisode, digestEpisodes: digestEpisodes,
		begin: func(ep int) (episode, error) {
			if ep == 0 {
				return &tieredEpisode{plans: st.plans}, nil
			}
			plans, err := w.arm(st.engines, ep)
			return &tieredEpisode{plans: plans}, err
		},
	}
}

func (w *tieredWL) pass(s state, rec *recorder) (*pass, error) {
	st := s.(*tieredState)
	obs := observers(st.engines)
	spans0, records0 := engineTelemetry(obs...)
	p, d, err := runClosed(w.spec(st, w.o, tieredDigestEpisodes), rec)
	if err != nil {
		return nil, err
	}
	spans1, records1 := engineTelemetry(obs...)
	d.extra = &telemetryCounts{spans: spans1 - spans0, records: records1 - records0}
	return p, nil
}

// check compares the outcome digests and replays the first episode on
// spare.
func (w *tieredWL) check(p *pass, spare state) error {
	o := w.o
	o.seconds = 1e-9
	_, replay, err := runClosed(w.spec(spare.(*tieredState), o, 1), nil)
	if err != nil {
		return err
	}
	return checkClosed(w.o, p.detail.(*closedDetail), replay)
}
