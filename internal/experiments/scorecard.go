package experiments

import (
	"fmt"

	"xpro/internal/celllib"
	"xpro/internal/stats"
	"xpro/internal/wireless"
)

// Scorecard condenses the whole reproduction into machine-checked shape
// claims: for every headline statement of the paper's evaluation it
// reports the measured value, the paper's value, and a pass/fail against
// an explicit shape criterion (who wins / direction / bound — not
// absolute equality, per DESIGN.md §2). The experiments tests assert
// that every claim passes, so a calibration regression fails CI rather
// than silently drifting the tables.
func Scorecard(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "scorecard",
		Title:  "Reproduction scorecard: paper claims vs measured, shape-checked",
		Header: []string{"Claim", "Paper", "Measured", "Criterion", "Pass"},
	}
	add := func(claim, paper string, measured string, criterion string, pass bool) {
		p := "PASS"
		if !pass {
			p = "FAIL"
		}
		t.AddRow(claim, paper, measured, criterion, p)
	}

	// --- Figure 4 claims (no training needed). ---
	serialBest := true
	for _, f := range []stats.Feature{stats.Max, stats.Min, stats.Mean, stats.Var, stats.CZero, stats.Skew, stats.Kurt} {
		if m, _ := celllib.BestMode(celllib.Spec{Kind: celllib.KindFeature, Feat: f, N: 128}, celllib.P90); m != celllib.Serial {
			serialBest = false
		}
	}
	for _, s := range []celllib.Spec{{Kind: celllib.KindSVM, SVs: 120, Dim: 12}, {Kind: celllib.KindFusion, Bases: 10}} {
		if m, _ := celllib.BestMode(s, celllib.P90); m != celllib.Serial {
			serialBest = false
		}
	}
	add("Fig4: serial optimal for most modules", "serial", boolWord(serialBest, "serial", "violated"), "all non-Std/DWT modules serial", serialBest)

	stdMode, _ := celllib.BestMode(celllib.Spec{Kind: celllib.KindFeature, Feat: stats.Std, N: 128}, celllib.P90)
	dwtMode, _ := celllib.BestMode(celllib.Spec{Kind: celllib.KindDWT, N: 128}, celllib.P90)
	pipeOK := stdMode == celllib.Pipeline && dwtMode == celllib.Pipeline
	add("Fig4: Std & DWT pipeline-optimal", "pipeline", fmt.Sprintf("%v/%v", stdMode, dwtMode), "both pipeline", pipeOK)

	dwt := celllib.Spec{Kind: celllib.KindDWT, N: 128}
	ratio := celllib.Characterize(dwt, celllib.Parallel, celllib.P90).Energy() /
		celllib.Characterize(dwt, celllib.Serial, celllib.P90).Energy()
	add("Fig4: parallel DWT ≈ two orders above serial", "~100x", fmt.Sprintf("%.0fx", ratio), "20x ≤ ratio ≤ 500x", ratio >= 20 && ratio <= 500)

	// --- System-level claims (trained engines). ---
	type agg struct {
		sumCA, sumCS, sumDA, sumDS float64
		worstDelay                 float64
		crossAlwaysBest            bool
		n                          int
	}
	a := agg{crossAlwaysBest: true}
	var aggRatioSum float64
	var m3CA, m3AS float64
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, evalLink)
		if err != nil {
			return nil, err
		}
		la, ls, lc := lifetime(es.InAggregator), lifetime(es.InSensor), lifetime(es.CrossEnd)
		lt := lifetime(es.Trivial)
		a.sumCA += lc / la
		a.sumCS += lc / ls
		da := es.InAggregator.DelayPerEvent().Total()
		ds := es.InSensor.DelayPerEvent().Total()
		dc := es.CrossEnd.DelayPerEvent().Total()
		a.sumDA += 1 - dc/da
		a.sumDS += 1 - dc/ds
		for _, d := range []float64{da, ds, dc} {
			if d > a.worstDelay {
				a.worstDelay = d
			}
		}
		if lc < la*(1-1e-9) || lc < ls*(1-1e-9) || lc < lt*(1-1e-9) {
			a.crossAlwaysBest = false
		}
		aggRatioSum += es.CrossEnd.EnergyPerEvent().AggregatorTotal() / es.InAggregator.EnergyPerEvent().AggregatorTotal()

		es3, err := l.Engines(sym, evalProc, wireless.Model3())
		if err != nil {
			return nil, err
		}
		m3CA += lifetime(es3.CrossEnd) / lifetime(es3.InAggregator)
		m3AS += lifetime(es3.InAggregator) / lifetime(es3.InSensor)
		a.n++
	}
	n := float64(a.n)

	add("Fig8/abstract: battery life vs aggregator engine", "2.4x",
		fmt.Sprintf("%.2fx", a.sumCA/n), "≥ 1.5x", a.sumCA/n >= 1.5)
	add("Fig8/abstract: battery life vs sensor engine", "1.6x",
		fmt.Sprintf("%.2fx", a.sumCS/n), "≥ 1.1x", a.sumCS/n >= 1.1)
	add("Fig9: Model 3 crossover (aggregator overtakes sensor)", "+74.6%",
		fmt.Sprintf("%+.1f%%", (m3AS/n-1)*100), "aggregator ahead on average", m3AS/n > 1)
	add("Fig9: Model 3 cross-end beats the aggregator engine", "+73.7%",
		fmt.Sprintf("%+.1f%%", (m3CA/n-1)*100), "≥ +15%", m3CA/n >= 1.15)
	add("Fig10: all engines within 4 ms", "<4 ms",
		fmt.Sprintf("%.2f ms", a.worstDelay*1e3), "worst < 4 ms", a.worstDelay < 4e-3)
	add("Fig10: delay reduction vs aggregator engine", "-60.8%",
		fmt.Sprintf("-%.1f%%", a.sumDA/n*100), "≥ 25%", a.sumDA/n >= 0.25)
	add("Fig10: delay reduction vs sensor engine", "-15.6%",
		fmt.Sprintf("-%.1f%%", a.sumDS/n*100), "≥ 0 (never slower)", a.sumDS/n >= -1e-9)
	add("Fig12: generated cut never worse than any named cut", "consistent",
		boolWord(a.crossAlwaysBest, "consistent", "violated"), "all cases", a.crossAlwaysBest)
	add("Fig13: aggregator overhead below the aggregator engine's", "<0.5x",
		fmt.Sprintf("%.2fx", aggRatioSum/n), "< 1x (≤0.5x target)", aggRatioSum/n < 1)

	return t, nil
}

func boolWord(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}
