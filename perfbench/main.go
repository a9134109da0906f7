// Command perfbench is the xpro repository benchmark. It runs one named
// workload through the public xpro API with inputs generated from a
// seed, checks the program's outputs, and prints its metrics as one JSON
// object on the last line of standard output:
//
//	perfbench --workload fleet --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of the measured run;
// with --trace 1 it runs the same workload and seed untraced and traced,
// replays the events through each layer's exported functions and prints
// the per-layer metrics. See README.md for every metric and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"xpro"
)

// setupRuns is how many times a run builds the workload's program
// state; setup_s is the median.
const setupRuns = 5

// report is the JSON object printed on the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// state is a workload's built program state.
type state interface{ close() }

// workload is one benchmark workload.
type workload interface {
	// setup builds the program state one pass measures.
	setup() (state, error)
	// pass runs the workload once on st for the run's duration; rec,
	// when non-nil, records spans around every call into the program.
	pass(st state, rec *recorder) (*pass, error)
	// check verifies the outputs of p, using spare (a fresh set-up)
	// where the check needs a second copy of the program.
	check(p *pass, spare state) error
	// layers returns the per-layer metrics of a traced run.
	layers(t *traced) (map[string]float64, error)
}

// pass is what one pass of a workload measured.
type pass struct {
	attempted, failed int
	// events is the denominator of every per-event figure.
	events     int
	eventsPerS float64
	goodput    float64
	p50, p90   float64 // µs
	// lat holds every latency sample (µs, refusals +Inf) for the tail.
	lat           []float64
	allocPerEvent float64
	// wallNs is the measured per-event wall the layer attribution sums
	// to: wall per call for a closed loop, process CPU per event for the
	// open-loop fleet.
	wallNs float64
	gc     gcWindow
	// detail is workload-specific: the event stream, outcomes, and what
	// the checks and replays need.
	detail any
}

// traced is everything a traced run hands to a workload's layers.
type traced struct {
	env      *env
	untraced *pass
	rec      *recorder
	spare    state
	lab      *replayLab
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	var o options
	var trace int
	var digestSeeds int
	flag.StringVar(&o.workload, "workload", "fleet", "workload: fleet, tiered-storm or adaptive-chaos")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run printing per-layer metrics")
	flag.IntVar(&digestSeeds, "record-digests", 0, "print the outcome digests of seeds 0..n and exit")
	flag.Parse()
	o.trace = trace == 1
	if !(o.seconds > 0) || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	if digestSeeds > 0 {
		if err := recordDigests(o, digestSeeds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func newWorkload(o options, e *env) (workload, error) {
	switch o.workload {
	case "fleet":
		return &fleetWL{o: o, env: e}, nil
	case "tiered-storm":
		return &tieredWL{o: o, env: e}, nil
	case "adaptive-chaos":
		return &chaosWL{o: o, env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

func run(o options) (*report, error) {
	if _, err := newWorkload(o, nil); err != nil {
		return nil, err
	}
	e, err := train(benchCases)
	if err != nil {
		return nil, err
	}
	w, _ := newWorkload(o, e)
	st, setupS, err := setupMedian(w)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveMB := float64(ms.HeapAlloc) / 1e6

	p, err := w.pass(st, nil)
	st.close()
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: true, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	spare, err := w.setup()
	if err != nil {
		return nil, err
	}
	if err := w.check(p, spare); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", err)
		rep.Correct = false
	}
	spare.close()
	fmt.Printf("workload %s seed %d: %d events, %d attempted, %d failed\n", o.workload, o.seed, p.events, p.attempted, p.failed)

	values := map[string]float64{
		"setup_s":               setupS,
		"events_per_s":          p.eventsPerS,
		"goodput_eps":           p.goodput,
		"p50_us":                p.p50,
		"p90_us":                p.p90,
		"alloc_bytes_per_event": p.allocPerEvent,
		"live_heap_mb":          liveMB,
	}
	specs := endToEnd
	if o.trace {
		values, err = tracedRun(o, e, w, p)
		if err != nil {
			return nil, err
		}
		values["ensemble.train_s"] = e.trainS
		specs = perLayer
	}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		rep.Metrics[s.Name] = metric{Value: finite(v), Unit: s.Unit}
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	return rep, nil
}

// setupMedian builds the workload's state setupRuns times and returns
// the last build with the median build time. The first build after
// training already finds every ensemble in the program's cache, so each
// timed build covers engine construction, the generator, tier plans and
// fleet start; ensemble training is ensemble.train_s.
func setupMedian(w workload) (state, float64, error) {
	var times []float64
	var st state
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err := w.setup()
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	return st, median(times), nil
}

// tracedRun is the --trace 1 run: the measured pass p already ran
// untraced; the same workload and seed now run again on a fresh set-up
// with spans recorded, then every layer is replayed.
func tracedRun(o options, e *env, w workload, p *pass) (map[string]float64, error) {
	st, err := w.setup()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	tp, err := w.pass(st, rec)
	st.close()
	if err != nil {
		return nil, err
	}
	path := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", o.workload, o.seed)
	if err := rec.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	self := selfTimes(rec.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		count := len(rec.durations(n))
		fmt.Printf("span %-10s %8d spans, mean self %10.0f ns\n", n, count, float64(self[n])/float64(count))
	}
	lab, err := newReplayLab(e.cases)
	if err != nil {
		return nil, err
	}
	spare, err := w.setup()
	if err != nil {
		return nil, err
	}
	defer spare.close()
	t := &traced{env: e, untraced: p, rec: rec, spare: spare, lab: lab}
	measured, err := w.layers(t)
	if err != nil {
		return nil, err
	}
	// A layer the workload does not run reports 0.
	v := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		v[s.Name] = 0
	}
	for k, x := range measured {
		v[k] = x
	}
	v["wall_ns_per_event"] = p.wallNs
	v["trace.overhead_ratio"] = tp.wallNs / p.wallNs
	v["runtime.gc_per_kevent"] = float64(p.gc.cycles) * 1000 / float64(p.events)
	v["runtime.gc_cpu_fraction"] = p.gc.cpuFraction()
	tq, tv, tn, ok := highestTail(p.lat)
	if !ok || tq < 0.99 {
		fmt.Fprintf(os.Stderr, "perfbench: tail: only p%g has ten samples beyond it\n", tq*100)
	}
	v["tail.p99_us"] = quantile(p.lat, 0.99)
	v["tail.p99_beyond"] = float64(beyond(len(p.lat), 0.99))
	fmt.Printf("tail: p%g = %.1f us with %d samples beyond\n", tq*100, tv, tn)
	return v, nil
}

// gcWindow brackets a measured window with the runtime's GC and CPU
// counters.
type gcWindow struct {
	cycles          uint32
	gcCPU, totalCPU float64
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// gcMark reads the counters at one end of a window.
func gcMark() gcWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	w := gcWindow{cycles: ms.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		w.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		w.totalCPU = s[1].Value.Float64()
	}
	return w
}

func (w gcWindow) since(start gcWindow) gcWindow {
	return gcWindow{cycles: w.cycles - start.cycles, gcCPU: w.gcCPU - start.gcCPU, totalCPU: w.totalCPU - start.totalCPU}
}

func (w gcWindow) add(o gcWindow) gcWindow {
	return gcWindow{cycles: w.cycles + o.cycles, gcCPU: w.gcCPU + o.gcCPU, totalCPU: w.totalCPU + o.totalCPU}
}

func (w gcWindow) cpuFraction() float64 {
	if w.totalCPU <= 0 {
		return 0
	}
	return w.gcCPU / w.totalCPU
}

// allocMark returns the bytes the process has allocated so far.
func allocMark() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// cpuNow returns the process's user+system CPU time in nanoseconds.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// benchCases are the Table 1 cases the workloads run, one per signal
// family. Each run trains them from scratch (about ten seconds on two
// cores); all six would take twenty and leave no room in the driver's
// time budget.
var benchCases = []string{"C1", "E1", "M2"}

// env is what every workload shares: the trained cases and their
// held-out test segments.
type env struct {
	cases  []string
	tests  map[string][]xpro.Segment
	rate   map[string]float64 // modeled events per second of each case
	trainS float64
}

// train builds one engine per case with a cold training cache, then
// once more warm; the difference is the case's ensemble training time.
func train(cases []string) (*env, error) {
	e := &env{cases: cases, tests: map[string][]xpro.Segment{}, rate: map[string]float64{}}
	for _, c := range e.cases {
		t0 := time.Now()
		eng, err := xpro.New(xpro.Config{Case: c})
		if err != nil {
			return nil, err
		}
		cold := time.Since(t0)
		t1 := time.Now()
		if _, err := xpro.New(xpro.Config{Case: c}); err != nil {
			return nil, err
		}
		e.trainS += (cold - time.Since(t1)).Seconds()
		e.tests[c] = eng.TestSet()
		e.rate[c] = eng.Report().EventsPerSecond
		if len(e.tests[c]) == 0 || !(e.rate[c] > 0) {
			return nil, fmt.Errorf("case %s has no test set or event rate", c)
		}
	}
	return e, nil
}

// subjectCases returns the case of each of n subjects, moving to the
// next case every per subjects.
func (e *env) subjectCases(n, per int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = e.cases[(i/per)%len(e.cases)]
	}
	return out
}

// mix derives an independent seed from a workload seed and indices.
func mix(seed int64, idx ...int) int64 {
	z := uint64(seed)
	for _, i := range idx {
		z += uint64(i+1) * 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z & math.MaxInt64)
}

// errKind names an event outcome's error for digests and failure
// counts: "" for none, the typed by-design outcomes by name, and
// anything else as "error".
func errKind(err error) string {
	var tde *xpro.TierDegradedError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &tde):
		return "tier-degraded"
	case errors.Is(err, xpro.ErrSuspectData):
		return "suspect-data"
	case errors.Is(err, xpro.ErrNodeDown):
		return "node-down"
	case errors.Is(err, xpro.ErrShed):
		return "shed"
	case errors.Is(err, xpro.ErrOverloaded):
		return "overloaded"
	}
	return "error"
}
