package xpro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func obsEngine(t *testing.T, kind EngineKind) *Engine {
	t.Helper()
	eng, err := New(Config{Case: "C1", Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestObserverClassifySpans(t *testing.T) {
	eng := obsEngine(t, CrossEnd)
	obs := eng.Observer()
	seg := eng.TestSet()[0]
	if _, err := eng.Classify(seg.Samples); err != nil {
		t.Fatal(err)
	}
	if got := obs.MetricValue("xpro_classify_total"); got != 1 {
		t.Errorf("classify_total = %v, want 1", got)
	}

	spans := obs.Spans()
	pl := eng.Placement()
	// One span per executed cell plus the whole-event span.
	if len(spans) != len(pl)+1 {
		t.Fatalf("spans = %d, want %d cells + 1 event", len(spans), len(pl))
	}
	ends := make(map[string]string, len(pl))
	for _, cp := range pl {
		ends[cp.Name] = cp.End
	}
	seen := make(map[string]bool)
	for _, sp := range spans {
		if sp.End == "event" {
			if sp.Cell != "classify" {
				t.Errorf("event span named %q", sp.Cell)
			}
			continue
		}
		want, ok := ends[sp.Cell]
		if !ok {
			t.Fatalf("span for unknown cell %q", sp.Cell)
		}
		if seen[sp.Cell] {
			t.Errorf("cell %s recorded twice", sp.Cell)
		}
		seen[sp.Cell] = true
		if sp.End != want {
			t.Errorf("cell %s span end = %s, placement says %s", sp.Cell, sp.End, want)
		}
	}
	if len(seen) != len(pl) {
		t.Errorf("spans cover %d cells, placement has %d", len(seen), len(pl))
	}

	retained, recorded, dropped := obs.TraceStats()
	if retained != len(spans) || recorded != uint64(len(spans)) || dropped != 0 {
		t.Errorf("trace stats = (%d, %d, %d), want (%d, %d, 0)",
			retained, recorded, dropped, len(spans), len(spans))
	}
	var buf bytes.Buffer
	if err := obs.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if len(doc.Spans) != len(spans) {
		t.Errorf("trace JSON has %d spans, want %d", len(doc.Spans), len(spans))
	}
}

func TestObserverEngineGauges(t *testing.T) {
	eng := obsEngine(t, TrivialCut)
	obs := eng.Observer()
	rep := eng.Report()
	if got := obs.MetricValue("xpro_engine_cells"); got != float64(rep.Cells) {
		t.Errorf("engine_cells gauge = %v, want %d", got, rep.Cells)
	}
	if got := obs.MetricValue(`xpro_engine_cells_placed{end="sensor"}`); got != float64(rep.SensorCells) {
		t.Errorf("sensor cells gauge = %v, want %d", got, rep.SensorCells)
	}
	if got := obs.MetricValue("xpro_engine_sensor_lifetime_hours"); got != rep.SensorLifetimeHours {
		t.Errorf("lifetime gauge = %v, want %v", got, rep.SensorLifetimeHours)
	}
	names := eng.SortedMetricNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("metric names unsorted at %d: %q > %q", i, names[i-1], names[i])
		}
	}
}

func TestClassifyBatch(t *testing.T) {
	eng := obsEngine(t, CrossEnd)
	test := eng.TestSet()
	n := 20
	segs := make([][]float64, n)
	want := make([]int, n)
	for i := 0; i < n; i++ {
		segs[i] = test[i].Samples
		w, err := eng.Classify(test[i].Samples)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	obs := eng.Observer()
	sensorCells, aggCells := `xpro_cells_executed_total{end="sensor"}`, `xpro_cells_executed_total{end="aggregator"}`
	classified, sensorBefore, aggBefore := obs.MetricValue("xpro_classify_total"), obs.MetricValue(sensorCells), obs.MetricValue(aggCells)
	_, spansBefore, _ := obs.TraceStats()
	got, err := eng.ClassifyBatch(segs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("batch returned %d labels, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("segment %d: batch label %d, sequential %d", i, got[i], want[i])
		}
	}
	if v := obs.MetricValue("xpro_classify_batch_total"); v != 1 {
		t.Errorf("classify_batch_total = %v, want 1", v)
	}
	if v := obs.MetricValue("xpro_classify_batch_segments_total"); v != float64(n) {
		t.Errorf("classify_batch_segments_total = %v, want %d", v, n)
	}
	// A batch books what n single events book.
	rep := eng.Report()
	if v := obs.MetricValue("xpro_classify_total") - classified; v != float64(n) {
		t.Errorf("batch added %v to classify_total, want %d", v, n)
	}
	if v := obs.MetricValue(sensorCells) - sensorBefore; v != float64(n*rep.SensorCells) {
		t.Errorf("batch added %v sensor cell executions, want %d", v, n*rep.SensorCells)
	}
	if v := obs.MetricValue(aggCells) - aggBefore; v != float64(n*rep.AggregatorCells) {
		t.Errorf("batch added %v aggregator cell executions, want %d", v, n*rep.AggregatorCells)
	}
	if _, spans, _ := obs.TraceStats(); spans-spansBefore != uint64(n*(rep.Cells+1)) {
		t.Errorf("batch recorded %d spans, want %d events × (%d cells + 1)", spans-spansBefore, n, rep.Cells)
	}
}

func TestClassifyBatchError(t *testing.T) {
	eng := obsEngine(t, TrivialCut)
	segs := [][]float64{eng.TestSet()[0].Samples, {1, 2, 3}}
	if _, err := eng.ClassifyBatch(segs); err == nil {
		t.Fatal("wrong-length segment must fail the batch")
	}
	if v := eng.Observer().MetricValue("xpro_classify_batch_errors_total"); v != 1 {
		t.Errorf("classify_batch_errors_total = %v, want 1", v)
	}
}

func TestSimulatedLossyDelay(t *testing.T) {
	eng := obsEngine(t, TrivialCut)
	clean, err := eng.SimulatedDelay()
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := eng.SimulatedLossyDelay(0.5, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if lossy < clean-1e-12 {
		t.Errorf("lossy delay %v below clean %v", lossy, clean)
	}
	if _, err := eng.SimulatedLossyDelay(1.5, 3, 1); err == nil {
		t.Error("loss probability > 1 must error")
	}
}

func TestIntrospectionServer(t *testing.T) {
	eng := obsEngine(t, CrossEnd)
	obs := eng.Observer()
	if _, err := eng.Classify(eng.TestSet()[0].Samples); err != nil {
		t.Fatal(err)
	}
	addr, err := obs.StartIntrospection("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer obs.StopIntrospection()
	if obs.IntrospectionAddr() != addr {
		t.Errorf("IntrospectionAddr = %q, want %q", obs.IntrospectionAddr(), addr)
	}
	if _, err := obs.StartIntrospection("127.0.0.1:0"); err == nil {
		t.Error("second StartIntrospection must error")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "xpro_classify_total 1") {
		t.Errorf("/metrics missing non-zero classify_total:\n%s", firstLines(metrics, 10))
	}
	trace := get("/trace")
	var doc struct {
		Spans []struct {
			Name string `json:"name"`
			End  string `json:"end"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(trace), &doc); err != nil {
		t.Fatalf("/trace JSON invalid: %v", err)
	}
	if len(doc.Spans) != eng.Report().Cells+1 {
		t.Errorf("/trace has %d spans, want %d", len(doc.Spans), eng.Report().Cells+1)
	}
	enginez := get("/enginez")
	for _, want := range []string{`"config"`, `"placement"`, `"report"`} {
		if !strings.Contains(enginez, want) {
			t.Errorf("/enginez missing section %s", want)
		}
	}

	if err := obs.StopIntrospection(); err != nil {
		t.Fatal(err)
	}
	if obs.IntrospectionAddr() != "" {
		t.Error("address non-empty after stop")
	}
	if err := obs.StopIntrospection(); err != nil {
		t.Errorf("double stop must be a no-op, got %v", err)
	}
}

func TestNetworkObserver(t *testing.T) {
	chest := obsEngine(t, CrossEnd)
	wrist := obsEngine(t, TrivialCut)
	nw, err := NewNetwork(map[string]*Engine{"chest": chest, "wrist": wrist})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := nw.Report()
	if err != nil {
		t.Fatal(err)
	}
	obs := nw.Observer()
	for node, hours := range rep.NodeLifetimeHours {
		name := fmt.Sprintf(`xpro_node_lifetime_hours{node=%q}`, node)
		if got := obs.MetricValue(name); got != hours {
			t.Errorf("%s = %v, want %v", name, got, hours)
		}
	}
	if got := obs.MetricValue("xpro_aggregator_utilization"); got != rep.AggregatorUtilization {
		t.Errorf("aggregator_utilization gauge = %v, want %v", got, rep.AggregatorUtilization)
	}
	addr, err := obs.StartIntrospection("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer obs.StopIntrospection()
	resp, err := http.Get("http://" + addr + "/enginez")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"nodes"`) {
		t.Error("/enginez missing nodes section")
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
