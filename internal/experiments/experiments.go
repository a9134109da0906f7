package experiments

import (
	"fmt"
	"io"

	"xpro/internal/celllib"
	"xpro/internal/stats"
	"xpro/internal/wireless"
)

// evalProc and evalLink are the defaults of §5: "unless otherwise
// stated, we use the medium-energy wireless Model 2 and the TSMC 90nm
// process technology".
var (
	evalProc = celllib.P90
	evalLink = wireless.Model2()
)

// Table1 reproduces Table 1: the attributes of the six test cases, plus
// the trained classifier accuracy of each generated substitute dataset.
func Table1(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "table1",
		Title:  "Attributes of 6 test cases from 5 biosignal datasets",
		Header: []string{"Dataset", "Symbol", "SegmentLength", "SegmentNumber", "EnsembleAccuracy"},
	}
	for _, sym := range l.Symbols() {
		inst, err := l.Instance(sym)
		if err != nil {
			return nil, err
		}
		t.AddRow(inst.Spec.Name, inst.Spec.Symbol,
			fmt.Sprint(inst.Spec.SegLen), fmt.Sprint(inst.Spec.Count), f3(inst.Accuracy))
	}
	t.AddNote("segment lengths and counts match Table 1 exactly; datasets are synthetic substitutes (DESIGN.md §2)")
	return t, nil
}

// Fig4 reproduces Figure 4: energy characterization (pJ/event) of the
// three ALU modes for each module, with the energy-optimal mode starred.
func Fig4() *Table {
	t := &Table{
		ID:     "fig4",
		Title:  "Energy of ALU modes per module (pJ/event, 90nm, 128-sample input)",
		Header: []string{"Module", "Serial", "Parallel", "Pipeline", "Optimal"},
	}
	specs := []celllib.Spec{}
	for _, f := range stats.AllFeatures {
		specs = append(specs, celllib.Spec{Kind: celllib.KindFeature, Feat: f, N: 128})
	}
	specs = append(specs,
		celllib.Spec{Kind: celllib.KindDWT, N: 128},
		celllib.Spec{Kind: celllib.KindSVM, SVs: 120, Dim: 12},
		celllib.Spec{Kind: celllib.KindFusion, Bases: 10},
	)
	for _, s := range specs {
		best, _ := celllib.BestMode(s, evalProc)
		t.AddRow(s.Name(),
			pj(celllib.Characterize(s, celllib.Serial, evalProc).Energy()),
			pj(celllib.Characterize(s, celllib.Parallel, evalProc).Energy()),
			pj(celllib.Characterize(s, celllib.Pipeline, evalProc).Energy()),
			best.String())
	}
	dwt := celllib.Spec{Kind: celllib.KindDWT, N: 128}
	ratio := celllib.Characterize(dwt, celllib.Parallel, evalProc).Energy() /
		celllib.Characterize(dwt, celllib.Serial, evalProc).Energy()
	t.AddNote("paper: serial optimal for most modules; Std and DWT pipeline-optimal; measured parallel/serial DWT ratio %.0fx (paper: ~two orders of magnitude)", ratio)
	return t
}

// Fig8 reproduces Figure 8: sensor battery life under 130/90/45 nm with
// wireless Model 2, normalized to the aggregator engine of each case.
func Fig8(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "Normalized sensor battery life vs process technology (wireless Model 2)",
		Header: []string{"Case", "Process", "Aggregator", "SensorNode", "CrossEnd"},
	}
	var sumCA, sumCS float64
	var n int
	for _, proc := range celllib.Processes {
		for _, sym := range l.Symbols() {
			es, err := l.Engines(sym, proc, evalLink)
			if err != nil {
				return nil, err
			}
			la, ls, lc := lifetime(es.InAggregator), lifetime(es.InSensor), lifetime(es.CrossEnd)
			t.AddRow(sym, proc.String(), f2(1), f2(ls/la), f2(lc/la))
			sumCA += lc / la
			sumCS += lc / ls
			n++
		}
	}
	t.AddNote("average cross-end lifetime: %.2fx aggregator engine (paper: 2.4x), %.2fx sensor node engine (paper: 1.6x)",
		sumCA/float64(n), sumCS/float64(n))
	return t, nil
}

// Fig9 reproduces Figure 9: sensor battery life under the three wireless
// models at 90 nm, normalized to the aggregator engine under Model 1.
func Fig9(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "Normalized sensor battery life vs wireless model (90nm)",
		Header: []string{"Case", "Model", "Aggregator", "SensorNode", "CrossEnd"},
	}
	type agg struct{ cs, ca, as float64 }
	perModel := make(map[int]*agg)
	for _, link := range wireless.Models() {
		perModel[link.Index] = &agg{}
		for _, sym := range l.Symbols() {
			es, err := l.Engines(sym, evalProc, link)
			if err != nil {
				return nil, err
			}
			ref, err := l.Engines(sym, evalProc, wireless.Model1())
			if err != nil {
				return nil, err
			}
			base := lifetime(ref.InAggregator)
			la, ls, lc := lifetime(es.InAggregator), lifetime(es.InSensor), lifetime(es.CrossEnd)
			t.AddRow(sym, fmt.Sprintf("model%d", link.Index), f2(la/base), f2(ls/base), f2(lc/base))
			a := perModel[link.Index]
			a.cs += lc / ls
			a.ca += lc / la
			a.as += la / ls
		}
	}
	n := float64(len(l.Symbols()))
	t.AddNote("model 1: cross-end vs sensor engine +%s (paper: +26.6%%)", pct(perModel[1].cs/n-1))
	t.AddNote("model 3: aggregator vs sensor engine %+.1f%% (paper: +74.6%%); cross-end vs aggregator +%s (paper: +73.7%%); cross-end vs sensor +%s (paper: +302%%)",
		(perModel[3].as/n-1)*100, pct(perModel[3].ca/n-1), pct(perModel[3].cs/n-1))
	return t, nil
}

// Fig10 reproduces Figure 10: per-event delay breakdown (front-end
// compute / wireless / back-end compute) of the three engines.
func Fig10(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "Delay breakdown per event (ms, 90nm, wireless Model 2)",
		Header: []string{"Case", "Engine", "FrontEnd", "Wireless", "BackEnd", "Total"},
	}
	var sumCA, sumCS float64
	var worst float64
	n := 0
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, evalLink)
		if err != nil {
			return nil, err
		}
		da := es.InAggregator.DelayPerEvent()
		ds := es.InSensor.DelayPerEvent()
		dc := es.CrossEnd.DelayPerEvent()
		for _, row := range []struct {
			tag string
			d   struct{ fe, w, be float64 }
		}{
			{"A", struct{ fe, w, be float64 }{da.FrontEnd, da.Wireless, da.BackEnd}},
			{"S", struct{ fe, w, be float64 }{ds.FrontEnd, ds.Wireless, ds.BackEnd}},
			{"C", struct{ fe, w, be float64 }{dc.FrontEnd, dc.Wireless, dc.BackEnd}},
		} {
			total := row.d.fe + row.d.w + row.d.be
			t.AddRow(sym, row.tag, ms(row.d.fe), ms(row.d.w), ms(row.d.be), ms(total))
			if total > worst {
				worst = total
			}
		}
		sumCA += 1 - dc.Total()/da.Total()
		sumCS += 1 - dc.Total()/ds.Total()
		n++
	}
	t.AddNote("all delays %.2f ms ≤ 4 ms real-time bound (paper: 'less than 4 ms')", worst*1e3)
	t.AddNote("cross-end delay reduction: %s vs aggregator engine (paper: 60.8%%), %s vs sensor engine (paper: 15.6%%)",
		pct(sumCA/float64(n)), pct(sumCS/float64(n)))
	return t, nil
}

// Fig11 reproduces Figure 11: sensor-node energy breakdown (computation
// vs wireless) per engine.
func Fig11(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "Sensor-node energy breakdown per event (µJ, 90nm, wireless Model 2)",
		Header: []string{"Case", "Engine", "Compute", "Wireless", "Total"},
	}
	var sumSA, sumCS, sumCA float64
	n := 0
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, evalLink)
		if err != nil {
			return nil, err
		}
		ea := es.InAggregator.EnergyPerEvent()
		esn := es.InSensor.EnergyPerEvent()
		ec := es.CrossEnd.EnergyPerEvent()
		for _, row := range []struct {
			tag string
			e   struct{ c, w, tot float64 }
		}{
			{"A", struct{ c, w, tot float64 }{ea.SensorCompute, ea.SensorWireless(), ea.SensorTotal()}},
			{"S", struct{ c, w, tot float64 }{esn.SensorCompute, esn.SensorWireless(), esn.SensorTotal()}},
			{"C", struct{ c, w, tot float64 }{ec.SensorCompute, ec.SensorWireless(), ec.SensorTotal()}},
		} {
			t.AddRow(sym, row.tag, uj(row.e.c), uj(row.e.w), uj(row.e.tot))
		}
		sumSA += 1 - esn.SensorTotal()/ea.SensorTotal()
		sumCS += 1 - ec.SensorTotal()/esn.SensorTotal()
		sumCA += 1 - ec.SensorTotal()/ea.SensorTotal()
		n++
	}
	t.AddNote("sensor engine saves %s vs aggregator engine (paper: 36.6%%)", pct(sumSA/float64(n)))
	t.AddNote("cross-end saves %s vs sensor engine (paper: 31.7%%) and %s vs aggregator engine (paper: 56.9%%)",
		pct(sumCS/float64(n)), pct(sumCA/float64(n)))
	return t, nil
}

// Fig12 reproduces Figure 12: sensor battery life of the four cuts —
// aggregator engine, trivial cut, sensor node engine, and the cut found
// by the Automatic XPro Generator.
func Fig12(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "fig12",
		Title:  "Normalized lifetime of four cuts (90nm, wireless Model 2)",
		Header: []string{"Case", "Aggregator", "Trivial", "SensorNode", "Cross", "CrossCells(sensor/agg)"},
	}
	crossBest := true
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, evalLink)
		if err != nil {
			return nil, err
		}
		la := lifetime(es.InAggregator)
		lt := lifetime(es.Trivial)
		ls := lifetime(es.InSensor)
		lc := lifetime(es.CrossEnd)
		ns, na := es.Gen.Placement.Counts()
		t.AddRow(sym, f2(1), f2(lt/la), f2(ls/la), f2(lc/la), fmt.Sprintf("%d/%d", ns, na))
		if lc < ls-1e-9 || lc < la-1e-9 || lc < lt-1e-9 {
			crossBest = false
		}
	}
	if crossBest {
		t.AddNote("the generated cut is never worse than any other cut (paper: 'significant and consistent improvement')")
	} else {
		t.AddNote("WARNING: a named cut beat the generated cut — optimality violated")
	}
	t.AddNote("the trivial cut is inconsistent across cases (paper: wins some cases, loses others)")
	return t, nil
}

// Fig13 reproduces Figure 13: energy overhead on the aggregator for the
// aggregator engine vs the cross-end engine.
func Fig13(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "Aggregator energy per event (µJ, 90nm, wireless Model 2)",
		Header: []string{"Case", "AggregatorEngine", "CrossEnd", "Ratio", "CrossLifetime(h)"},
	}
	var sumRatio float64
	minLife := 1e18
	n := 0
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, evalLink)
		if err != nil {
			return nil, err
		}
		ea := es.InAggregator.EnergyPerEvent().AggregatorTotal()
		ec := es.CrossEnd.EnergyPerEvent().AggregatorTotal()
		life, err := es.CrossEnd.AggregatorLifetimeHours()
		if err != nil {
			return nil, err
		}
		t.AddRow(sym, uj(ea), uj(ec), f2(ec/ea), fmt.Sprintf("%.0f", life))
		sumRatio += ec / ea
		if life < minLife {
			minLife = life
		}
		n++
	}
	t.AddNote("cross-end aggregator energy is %.2fx the aggregator engine's (paper: 'less than half')", sumRatio/float64(n))
	t.AddNote("minimum aggregator lifetime %.0f h on a 2900 mAh battery (paper: 'more than 52 hours')", minLife)
	return t, nil
}

// Headline reproduces the abstract's summary: battery life 1.6–2.4X and
// delay reduction 15.6–60.8% versus the single-end engines.
func Headline(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "headline",
		Title:  "Headline result: cross-end vs single-end engines (90nm, wireless Model 2)",
		Header: []string{"Case", "Life C/A", "Life C/S", "Delay -vs A", "Delay -vs S"},
	}
	var sCA, sCS, sDA, sDS float64
	n := 0
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, evalLink)
		if err != nil {
			return nil, err
		}
		la, ls, lc := lifetime(es.InAggregator), lifetime(es.InSensor), lifetime(es.CrossEnd)
		da := es.InAggregator.DelayPerEvent().Total()
		ds := es.InSensor.DelayPerEvent().Total()
		dc := es.CrossEnd.DelayPerEvent().Total()
		t.AddRow(sym, f2(lc/la), f2(lc/ls), pct(1-dc/da), pct(1-dc/ds))
		sCA += lc / la
		sCS += lc / ls
		sDA += 1 - dc/da
		sDS += 1 - dc/ds
		n++
	}
	fn := float64(n)
	t.AddNote("averages: battery life %.2fx / %.2fx (paper: 2.4X / 1.6X); delay -%s / -%s (paper: -60.8%% / -15.6%%)",
		sCA/fn, sCS/fn, pct(sDA/fn), pct(sDS/fn))
	return t, nil
}

// runner is one named experiment.
type runner struct {
	ID  string
	Run func(*Lab) (*Table, error)
}

// Runners lists every experiment in paper order.
func Runners() []runner {
	return []runner{
		{"table1", Table1},
		{"fig4", func(*Lab) (*Table, error) { return Fig4(), nil }},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"fig12", Fig12},
		{"fig13", Fig13},
		{"headline", Headline},
		{"ext-lossy", ExtLossy},
		{"ext-frontier", ExtFrontier},
		{"ext-multiclass", ExtMulticlass},
		{"ext-bsn", ExtBSN},
		{"ext-robustness", ExtRobustness},
		{"ext-wirebits", ExtWireBits},
		{"ext-importance", ExtImportance},
		{"ext-faults", ExtFaults},
		{"ext-adaptive", ExtAdaptive},
		{"ext-parallel", ExtParallel},
		{"ext-corruption", ExtCorruption},
		{"ext-overload", ExtOverload},
		{"ext-multiway", ExtMultiway},
		{"ext-tiered-faults", ExtTieredFaults},
		{"scorecard", Scorecard},
	}
}

// Run executes the experiment with the given id and writes its table as
// aligned text.
func Run(l *Lab, id string, w io.Writer) error {
	return RunFormat(l, id, w, FormatText)
}

// RunFormat executes one experiment and renders it in the given format.
func RunFormat(l *Lab, id string, w io.Writer, f Format) error {
	for _, r := range Runners() {
		if r.ID == id {
			t, err := r.Run(l)
			if err != nil {
				return err
			}
			return t.Write(w, f)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q", id)
}

// All executes every experiment in order as aligned text.
func All(l *Lab, w io.Writer) error {
	return AllFormat(l, w, FormatText)
}

// AllFormat executes every experiment in the given format.
func AllFormat(l *Lab, w io.Writer, f Format) error {
	for _, r := range Runners() {
		if err := RunFormat(l, r.ID, w, f); err != nil {
			return err
		}
	}
	return nil
}
