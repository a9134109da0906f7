package xpro

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"sort"
	"testing"
)

// sloSoak replays a seeded loss storm through an adaptive engine with
// the integrity gate armed, salting the stream with flatline segments
// so every degradation rung — full, partial, fallbacks, quarantine —
// appears. It returns the engine plus the exact per-event oracle the
// SLO report is checked against.
type sloSoak struct {
	eng *Engine
	// latencies / energies are every observed event's modeled costs, in
	// arrival order (answered and quarantined alike).
	latencies, energies []float64
	answered            int
	quarantined         int
	degradedAnswers     int
}

func runSLOSoak(t *testing.T, events int) *sloSoak {
	t.Helper()
	eng, err := New(Config{
		Case: "E2", Wireless: WirelessModel3,
		FaultPlan: lossStormPlan(7), Adaptive: DefaultAdaptive(),
		Integrity: DefaultIntegrity(),
		// One window covering the whole soak, so the windowed quantiles
		// can be checked against the full-run oracle.
		SLOWindowSeconds: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	test := eng.TestSet()
	flat := make([]float64, len(test[0].Samples))
	s := &sloSoak{eng: eng}
	for i := 0; i < events; i++ {
		samples := test[i%len(test)].Samples
		if i%10 == 9 {
			samples = flat // a detached electrode: the admission gate quarantines it
		}
		res, err := eng.ClassifyResult(samples)
		if err != nil {
			if !errors.Is(err, ErrSuspectData) {
				t.Fatalf("event %d: %v (faults must degrade, not error)", i, err)
			}
			s.quarantined++
		} else {
			s.answered++
			if res.Degraded {
				s.degradedAnswers++
			}
		}
		s.latencies = append(s.latencies, res.SpentSeconds)
		s.energies = append(s.energies, res.SensorEnergyJoules)
	}
	if s.quarantined == 0 {
		t.Fatal("soak produced no quarantines; the stream salt is broken")
	}
	if s.degradedAnswers == 0 {
		t.Fatal("soak produced no degraded answers; the loss storm is broken")
	}
	return s
}

// rankError is the estimate's normalized rank distance from the exact
// q-quantile of the sorted oracle (ties span an interval, distance 0
// inside it).
func rankError(sorted []float64, v, q float64) float64 {
	n := float64(len(sorted))
	lo := float64(sort.SearchFloat64s(sorted, v))
	hi := float64(sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1))))
	target := q * n
	switch {
	case target < lo:
		return (lo - target) / n
	case target > hi:
		return (target - hi) / n
	}
	return 0
}

// The tentpole acceptance: on a seeded chaos soak, the windowed SLO
// quantiles match an exact-sort oracle within 1% rank error, the
// ladder accounting is exact, and every quarantine / re-cut / breaker
// transition appears exactly once in the structured event log with a
// trace ID that resolves in the span tracer.
func TestSLOSoakAcceptance(t *testing.T) {
	const events = 400
	s := runSLOSoak(t, events)
	eng, obs := s.eng, s.eng.Observer()
	rep := eng.SLOReport()

	t.Run("oracle", func(t *testing.T) {
		if got := int(rep.TotalEvents); got != events {
			t.Fatalf("TotalEvents = %d, want %d", got, events)
		}
		if rep.WindowEvents != rep.TotalEvents {
			t.Fatalf("WindowEvents = %d != TotalEvents %d under an all-covering window",
				rep.WindowEvents, rep.TotalEvents)
		}
		lat := append([]float64(nil), s.latencies...)
		sort.Float64s(lat)
		for _, q := range []struct {
			p float64
			v float64
		}{{0.5, rep.LatencyP50Seconds}, {0.95, rep.LatencyP95Seconds}, {0.99, rep.LatencyP99Seconds}} {
			if re := rankError(lat, q.v, q.p); re > 0.01 {
				t.Errorf("latency p%.0f = %v: rank error %.4f > 1%%", q.p*100, q.v, re)
			}
		}
		en := append([]float64(nil), s.energies...)
		sort.Float64s(en)
		if re := rankError(en, rep.EnergyP99Joules, 0.99); re > 0.01 {
			t.Errorf("energy p99 = %v: rank error %.4f > 1%%", rep.EnergyP99Joules, re)
		}
		var sum float64
		for _, e := range s.energies {
			sum += e
		}
		mean := sum / float64(len(s.energies))
		if math.Abs(rep.EnergyPerEventJoules-mean) > 1e-12+1e-9*mean {
			t.Errorf("EnergyPerEventJoules = %v, oracle mean %v", rep.EnergyPerEventJoules, mean)
		}
		if mean <= 0 {
			t.Error("oracle mean energy is zero: energy accounting lost the events")
		}

		wantSuspect := float64(s.quarantined) / float64(events)
		if math.Abs(rep.SuspectRate-wantSuspect) > 1e-12 {
			t.Errorf("SuspectRate = %v, want %v", rep.SuspectRate, wantSuspect)
		}
		wantDegraded := float64(s.degradedAnswers) / float64(s.answered)
		if math.Abs(rep.DegradedRatio-wantDegraded) > 1e-12 {
			t.Errorf("DegradedRatio = %v, want %v", rep.DegradedRatio, wantDegraded)
		}
		if got := int(rep.Modes[ModeSuspectData.String()]); got != s.quarantined {
			t.Errorf("Modes[suspect-data] = %d, want %d", got, s.quarantined)
		}
		var modeSum uint64
		for _, v := range rep.Modes {
			modeSum += v
		}
		if int(modeSum) != events {
			t.Errorf("Σ Modes = %d, want %d (every event on exactly one rung)", modeSum, events)
		}
		if rep.Breaker == "" {
			t.Error("Breaker state missing on a resilient engine")
		}
	})

	t.Run("event-log", func(t *testing.T) {
		evs := obs.Events()
		spans := make(map[uint64]Span)
		for _, sp := range obs.Spans() {
			spans[sp.Event] = sp
		}
		counts := map[string]int{}
		seenTrace := map[uint64]string{}
		var lastSeq uint64
		for _, ev := range evs {
			counts[ev.Kind]++
			if ev.Seq <= lastSeq {
				t.Fatalf("event log out of order: seq %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			if ev.Trace == 0 {
				t.Fatalf("event %+v has no trace ID", ev)
			}
			if prev, dup := seenTrace[ev.Trace]; dup {
				t.Fatalf("trace %d appears twice (%s then %s): not exactly-once", ev.Trace, prev, ev.Kind)
			}
			seenTrace[ev.Trace] = ev.Kind
			sp, ok := spans[ev.Trace]
			if !ok {
				t.Fatalf("event %s trace %d has no span", ev.Kind, ev.Trace)
			}
			if ev.Kind == "quarantine" && !(sp.Suspect && sp.Degraded) {
				t.Errorf("quarantine trace %d: span not marked suspect+degraded: %+v", ev.Trace, sp)
			}
		}
		if counts["classify"] != s.answered {
			t.Errorf("classify events = %d, want %d", counts["classify"], s.answered)
		}
		if counts["quarantine"] != s.quarantined {
			t.Errorf("quarantine events = %d, want %d", counts["quarantine"], s.quarantined)
		}
		recuts := counts["recut-swap"] + counts["recut-rollback"]
		if want := len(eng.RecutLog()); recuts != want {
			t.Errorf("recut events = %d, want %d (decision log)", recuts, want)
		}
		if counts["recut-swap"] == 0 {
			t.Error("no recut-swap event under the loss storm")
		}
		if got, want := counts["breaker"], int(obs.MetricValue("xpro_breaker_transitions_total")); got != want {
			t.Errorf("breaker events = %d, want %d (transitions counter)", got, want)
		}
		retained, recorded, dropped := obs.EventLogStats()
		if dropped != 0 || int(recorded) != len(evs) || retained != len(evs) {
			t.Errorf("event log stats retained=%d recorded=%d dropped=%d for %d events",
				retained, recorded, dropped, len(evs))
		}
	})

	t.Run("replay", func(t *testing.T) {
		// The SLO report is a pure function of the seeded run.
		s2 := runSLOSoak(t, events)
		rep2 := s2.eng.SLOReport()
		if rep.LatencyP50Seconds != rep2.LatencyP50Seconds ||
			rep.LatencyP99Seconds != rep2.LatencyP99Seconds ||
			rep.EnergyPerEventJoules != rep2.EnergyPerEventJoules ||
			rep.SuspectRate != rep2.SuspectRate {
			t.Errorf("seeded replay diverged:\n  %+v\n  %+v", rep, rep2)
		}
	})
}

// A plain engine (no Resilience) lands its constant modeled costs on
// the SLO series too, observed on host uptime.
func TestSLOReportPlainEngine(t *testing.T) {
	eng, err := New(Config{Case: "C1"})
	if err != nil {
		t.Fatal(err)
	}
	test := eng.TestSet()
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := eng.Classify(test[i].Samples); err != nil {
			t.Fatal(err)
		}
	}
	rep := eng.SLOReport()
	if rep.TotalEvents != n {
		t.Fatalf("TotalEvents = %d, want %d", rep.TotalEvents, n)
	}
	want := eng.Report().DelayPerEventSeconds
	if rep.LatencyP50Seconds != want || rep.LatencyP99Seconds != want {
		t.Errorf("plain-engine quantiles (%v, %v) != modeled delay %v",
			rep.LatencyP50Seconds, rep.LatencyP99Seconds, want)
	}
	if got := eng.Report().SensorEnergyPerEvent; math.Abs(rep.EnergyPerEventJoules-got) > 1e-15 {
		t.Errorf("plain-engine energy %v != modeled per-event energy %v", rep.EnergyPerEventJoules, got)
	}
	if rep.Breaker != "" {
		t.Errorf("plain engine reports breaker %q", rep.Breaker)
	}
	if rep.DegradedRatio != 0 || rep.SuspectRate != 0 {
		t.Errorf("clean run reports degraded=%v suspect=%v", rep.DegradedRatio, rep.SuspectRate)
	}
	if h := eng.Health(); h.Status != "ok" {
		t.Errorf("healthy engine reports %+v", h)
	}
}

// Every plain path lands its events on the SLO series: Classify,
// ClassifyResult, StreamParallel (and with it Engine.Stream) and
// ClassifyResultContext (and with it every plain Network.Serve event).
func TestSLOPlainPathsObserve(t *testing.T) {
	eng, err := New(Config{Case: "C1"})
	if err != nil {
		t.Fatal(err)
	}
	latencyCount := func() uint64 {
		for _, m := range eng.obs.reg.Snapshot() {
			if m.Name == "xpro_classify_latency_seconds" {
				return m.Count
			}
		}
		return 0
	}
	test := eng.TestSet()
	if _, err := eng.Classify(test[0].Samples); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ClassifyResult(test[1].Samples); err != nil {
		t.Fatal(err)
	}
	in := make(chan []float64, 3)
	for _, s := range test[2:5] {
		in <- s.Samples
	}
	close(in)
	for r := range eng.StreamParallel(context.Background(), in, 2) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if got := latencyCount(); got != 5 {
		t.Fatalf("latency sketch counts %d events after Classify, ClassifyResult and a 3-event stream, want 5", got)
	}
	if _, err := eng.ClassifyResultContext(context.Background(), test[5].Samples); err != nil {
		t.Fatal(err)
	}
	if got := latencyCount(); got != 6 {
		t.Fatalf("latency sketch counts %d events after ClassifyResultContext, want 6", got)
	}
}

// Polling the memoized reports when no event has landed must stay
// within a small allocation budget — the endpoints are poll-cheap.
func TestSLOReportPollAllocBudget(t *testing.T) {
	eng, err := New(Config{Case: "C1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Classify(eng.TestSet()[0].Samples); err != nil {
		t.Fatal(err)
	}
	eng.SLOReport() // warm the memo
	if allocs := testing.AllocsPerRun(200, func() { eng.SLOReport() }); allocs > 8 {
		t.Errorf("memoized SLOReport allocates %.1f/op, budget 8", allocs)
	}
	if h := eng.Health(); h.Status != "ok" {
		t.Fatalf("unexpected health %+v", h)
	}
	if allocs := testing.AllocsPerRun(200, func() { eng.Health() }); allocs > 8 {
		t.Errorf("memoized Health allocates %.1f/op, budget 8", allocs)
	}
}

func TestNetworkReportPollAllocBudget(t *testing.T) {
	nw := testFleet(t)
	if _, err := nw.Report(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { nw.Report() }); allocs > 8 {
		t.Errorf("memoized Network.Report allocates %.1f/op, budget 8", allocs)
	}
	if _, err := nw.SLOReport(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { nw.SLOReport() }); allocs > 40 {
		t.Errorf("memoized Network.SLOReport allocates %.1f/op, budget 40", allocs)
	}
}

func testFleet(t *testing.T) *Network {
	t.Helper()
	engines := map[string]*Engine{}
	for _, sym := range []string{"C1", "E1"} {
		e, err := New(Config{Case: sym})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := e.Classify(e.TestSet()[i].Samples); err != nil {
				t.Fatal(err)
			}
		}
		engines[sym] = e
	}
	nw, err := NewNetwork(engines)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// Fleet SLO: quantiles over the union of node windows, ladder counts
// summed, battery headroom per node against the bottleneck.
func TestNetworkSLOReport(t *testing.T) {
	nw := testFleet(t)
	rep, err := nw.SLOReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalEvents != 6 {
		t.Fatalf("TotalEvents = %d, want 6", rep.TotalEvents)
	}
	if len(rep.Nodes) != 2 {
		t.Fatalf("Nodes = %v, want 2 entries", rep.Nodes)
	}
	if rep.BottleneckNode == "" || rep.BottleneckHours <= 0 {
		t.Fatalf("bottleneck missing: %+v", rep)
	}
	sawBottleneck := false
	for name, node := range rep.Nodes {
		if node.LifetimeHours <= 0 {
			t.Errorf("%s: lifetime %v", name, node.LifetimeHours)
		}
		if node.HeadroomHours < 0 {
			t.Errorf("%s: negative headroom %v", name, node.HeadroomHours)
		}
		if name == rep.BottleneckNode {
			sawBottleneck = true
			if node.HeadroomHours != 0 {
				t.Errorf("bottleneck %s has headroom %v", name, node.HeadroomHours)
			}
			if node.LifetimeHours != rep.BottleneckHours {
				t.Errorf("bottleneck lifetime %v != %v", node.LifetimeHours, rep.BottleneckHours)
			}
		}
	}
	if !sawBottleneck {
		t.Errorf("bottleneck %q not among nodes", rep.BottleneckNode)
	}
	// The fleet p50 lies between the two nodes' constant delays, and the
	// fleet p99 is their max — the union, not an average.
	var delays []float64
	for _, node := range rep.Nodes {
		delays = append(delays, node.LatencyP50Seconds)
	}
	sort.Float64s(delays)
	if rep.LatencyP99Seconds != delays[len(delays)-1] {
		t.Errorf("fleet p99 %v != max node delay %v", rep.LatencyP99Seconds, delays[len(delays)-1])
	}
	if rep.LatencyP50Seconds < delays[0] || rep.LatencyP50Seconds > delays[len(delays)-1] {
		t.Errorf("fleet p50 %v outside node range %v", rep.LatencyP50Seconds, delays)
	}
	if got := rep.Modes[ModeFull.String()]; got != rep.TotalEvents {
		t.Errorf("Modes[full] = %d, want %d on a clean fleet", got, rep.TotalEvents)
	}
	if h := nw.Health(); h.Status != "ok" {
		t.Errorf("clean fleet health %+v", h)
	}

	// Mutating a returned report must not leak into the memo.
	rep.Modes["full"] = 999
	rep.Nodes["C1"] = NodeSLO{}
	rep2, err := nw.SLOReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Modes["full"] == 999 || rep2.Nodes["C1"].LifetimeHours == 0 {
		t.Error("caller mutation leaked into the memoized fleet report")
	}
}

// /slo, /healthz and /events are served by the introspection server,
// for engines and fleets alike; a degraded engine answers 503.
func TestSLOEndpoints(t *testing.T) {
	eng, err := New(Config{Case: "C1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Classify(eng.TestSet()[i].Samples); err != nil {
			t.Fatal(err)
		}
	}
	obs := eng.Observer()
	addr, err := obs.StartIntrospection("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer obs.StopIntrospection()

	var rep SLOReport
	getJSON(t, addr, "/slo", http.StatusOK, &rep)
	if rep.TotalEvents != 3 {
		t.Errorf("/slo TotalEvents = %d, want 3", rep.TotalEvents)
	}
	var h Health
	getJSON(t, addr, "/healthz", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Errorf("/healthz = %+v, want ok", h)
	}
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev LogEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("/events line %d: %v", lines, err)
		}
		lines++
	}
	// A plain engine logs no ladder events; the endpoint must still
	// serve well-formed (possibly empty) NDJSON.
	if _, recorded, _ := obs.EventLogStats(); lines != int(recorded) {
		t.Errorf("/events served %d lines, log recorded %d", lines, recorded)
	}

	// A hard outage degrades every answer: /healthz flips to 503.
	down, err := New(Config{Case: "C1", FaultPlan: outagePlan(3)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := down.ClassifyResult(down.TestSet()[i].Samples); err != nil {
			t.Fatal(err)
		}
	}
	dobs := down.Observer()
	daddr, err := dobs.StartIntrospection("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dobs.StopIntrospection()
	var dh Health
	getJSON(t, daddr, "/healthz", http.StatusServiceUnavailable, &dh)
	if dh.Status != "degraded" {
		t.Errorf("outage /healthz = %+v, want degraded", dh)
	}
	if len(dobs.Events()) == 0 {
		t.Error("outage run logged no events")
	}
}

func TestNetworkSLOEndpoints(t *testing.T) {
	nw := testFleet(t)
	obs := nw.Observer()
	addr, err := obs.StartIntrospection("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer obs.StopIntrospection()
	var rep NetworkSLOReport
	getJSON(t, addr, "/slo", http.StatusOK, &rep)
	if rep.TotalEvents != 6 || len(rep.Nodes) != 2 {
		t.Errorf("/slo = %+v, want 6 events over 2 nodes", rep)
	}
	var h Health
	getJSON(t, addr, "/healthz", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Errorf("/healthz = %+v, want ok", h)
	}
}

func getJSON(t *testing.T, addr, path string, wantCode int, into any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

func BenchmarkSLOReport(b *testing.B) {
	eng, err := New(Config{Case: "C1"})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Classify(eng.TestSet()[0].Samples); err != nil {
		b.Fatal(err)
	}
	eng.SLOReport()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.SLOReport()
	}
}

func BenchmarkNetworkSLOReport(b *testing.B) {
	engines := map[string]*Engine{}
	for _, sym := range []string{"C1", "E1"} {
		e, err := New(Config{Case: sym})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Classify(e.TestSet()[0].Samples); err != nil {
			b.Fatal(err)
		}
		engines[sym] = e
	}
	nw, err := NewNetwork(engines)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := nw.SLOReport(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.SLOReport(); err != nil {
			b.Fatal(err)
		}
	}
}
