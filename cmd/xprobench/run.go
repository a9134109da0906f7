package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xpro/internal/ensemble"
	"xpro/internal/experiments"
	"xpro/internal/telemetry"
)

// run executes the tool against args, writing results to stdout and
// diagnostics to stderr. It returns the process exit code, which main
// passes to os.Exit — keeping the whole tool testable in-process.
//
// Experiment harnesses build their systems internally, so their runtime
// counters land on the process-global telemetry registry
// (telemetry.Default()); -metrics-addr serves that registry, and
// -trace-out installs the process-global span tracer before anything
// runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xprobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id: all, "+experimentIDs())
	parallel := fs.Int("parallel", 0, "worker-pool width for the ext-parallel experiment; with no -exp it is shorthand for -exp ext-parallel (0 = GOMAXPROCS, sequential comparison always included)")
	tiers := fs.Int("tiers", 0, "tier-chain depth for the ext-multiway experiment; with no -exp it is shorthand for -exp ext-multiway (0 = the canonical 3: sensor - hub - cloud)")
	cases := fs.String("cases", "", "comma-separated case symbols (default: all six)")
	protocol := fs.String("protocol", "fast", "training protocol: fast or paper")
	rate := fs.Float64("rate", 2048, "biosignal sampling rate in Hz")
	format := fs.String("format", "text", "output format: text, md or csv")
	metricsAddr := fs.String("metrics-addr", "", "serve the process-global /metrics, /trace and pprof on this address during the run (e.g. :9090)")
	traceOut := fs.String("trace-out", "", "record per-cell spans process-wide and write them as JSON to this file")
	record := fs.String("record", "", "append one benchmark trajectory point to this BENCH_*.json file (parses `go test -bench` output from -record-in) and exit")
	recordIn := fs.String("record-in", "-", "benchmark output to parse in -record mode (- = stdin)")
	recordNote := fs.String("record-note", "", "free-form note stored on the recorded trajectory point")
	logJSON := fs.String("log-json", "", "stream every engine's structured event log (one JSON record per classify / re-cut / breaker transition / quarantine) to this file during the run")
	sloFlag := fs.Bool("slo", false, "print the run's final SLO table: every windowed quantile series on the process-global registry")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *record != "" {
		in := io.Reader(os.Stdin)
		if *recordIn != "-" {
			f, err := os.Open(*recordIn)
			if err != nil {
				fmt.Fprintf(stderr, "xprobench: %v\n", err)
				return 1
			}
			defer f.Close()
			in = f
		}
		if err := recordBench(*record, in, *recordNote, stdout); err != nil {
			fmt.Fprintf(stderr, "xprobench: %v\n", err)
			return 1
		}
		return 0
	}

	of, err := experiments.ParseFormat(*format)
	if err != nil {
		fmt.Fprintf(stderr, "xprobench: %v\n", err)
		return 2
	}

	if *logJSON != "" {
		f, err := os.Create(*logJSON)
		if err != nil {
			fmt.Fprintf(stderr, "xprobench: %v\n", err)
			return 1
		}
		defer f.Close()
		// Every engine's event log mirrors its records to the
		// process-default sink, so one file collects the whole run.
		telemetry.SetDefaultEventSink(f)
		defer telemetry.SetDefaultEventSink(nil)
	}

	var tracer *telemetry.Tracer
	if *traceOut != "" {
		// Install before any experiment runs so every Classify records.
		tracer = telemetry.NewTracer(2 * telemetry.DefaultTraceCapacity)
		telemetry.SetDefaultTracer(tracer)
		defer telemetry.SetDefaultTracer(nil)
	}
	if *metricsAddr != "" {
		srv := telemetry.NewServer(telemetry.Default(), tracer)
		addr, err := srv.Start(*metricsAddr)
		if err != nil {
			fmt.Fprintf(stderr, "xprobench: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "introspection: http://%s/ (/metrics /trace /debug/pprof)\n", addr)
	}

	lab := experiments.NewLab()
	lab.SampleRateHz = *rate
	switch *protocol {
	case "fast":
		lab.Config = ensemble.DefaultConfig
	case "paper":
		lab.Config = ensemble.PaperConfig
	default:
		fmt.Fprintf(stderr, "xprobench: unknown protocol %q\n", *protocol)
		return 2
	}
	if *cases != "" {
		lab.Cases = strings.Split(*cases, ",")
	}

	if *parallel != 0 {
		if *parallel < 0 {
			fmt.Fprintf(stderr, "xprobench: -parallel must be >= 0, got %d\n", *parallel)
			return 2
		}
		lab.ParallelWorkers = *parallel
		if *exp == "all" {
			*exp = "ext-parallel"
		}
	}
	if *tiers != 0 {
		if *tiers < 2 {
			fmt.Fprintf(stderr, "xprobench: -tiers must be >= 2, got %d\n", *tiers)
			return 2
		}
		lab.TierCount = *tiers
		if *exp == "all" {
			*exp = "ext-multiway"
		}
	}
	if *exp == "all" {
		err = experiments.AllFormat(lab, stdout, of)
	} else {
		err = experiments.RunFormat(lab, *exp, stdout, of)
	}
	if err != nil {
		fmt.Fprintf(stderr, "xprobench: %v\n", err)
		return 1
	}

	if *traceOut != "" {
		if err := writeTrace(tracer, *traceOut); err != nil {
			fmt.Fprintf(stderr, "xprobench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s (%d recorded, %d dropped)\n",
			tracer.Len(), *traceOut, tracer.Recorded(), tracer.Dropped())
	}
	if *sloFlag {
		printSLOTable(stdout)
	}
	return 0
}

// experimentIDs lists the registered experiment ids, comma-separated.
func experimentIDs() string {
	var ids []string
	for _, r := range experiments.Runners() {
		ids = append(ids, r.ID)
	}
	return strings.Join(ids, ", ")
}

// printSLOTable renders every windowed quantile series that landed on
// the process-global registry during the run — the wall-time SLO view
// of the experiments just executed.
func printSLOTable(stdout io.Writer) {
	fmt.Fprintf(stdout, "\nSLO quantiles (process-global registry):\n")
	printed := 0
	for _, m := range telemetry.Default().Snapshot() {
		if m.Kind != telemetry.KindQuantile || m.Count == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  %-40s n=%d", m.Name, m.Count)
		for _, q := range m.Quantiles {
			fmt.Fprintf(stdout, "  p%g=%.6g", q.Quantile*100, q.Value)
		}
		fmt.Fprintln(stdout)
		printed++
	}
	if printed == 0 {
		fmt.Fprintf(stdout, "  (no quantile series observed)\n")
	}
}

func writeTrace(tr *telemetry.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
