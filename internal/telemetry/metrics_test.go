package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 32, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve the handle inside the goroutine: registration
			// must be race-free too.
			c := r.Counter("hits_total", "test counter")
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "").Value(); got != goroutines*perG {
		t.Fatalf("counter = %v, want %d", got, goroutines*perG)
	}
}

func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Add(2)
	c.Add(-5)
	c.Add(math.NaN())
	if got := c.Value(); got != 2 {
		t.Fatalf("counter = %v, want 2 (negative/NaN ignored)", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("level", "test gauge")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				g.Add(1)
				g.Add(-1)
			}
			g.Add(1)
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 16 {
		t.Fatalf("gauge = %v, want 16", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "test histogram", []float64{0.01, 0.1, 1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.05)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
	if got := h.Sum(); math.Abs(got-8000*0.05) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, 8000*0.05)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != KindHistogram {
		t.Fatalf("snapshot = %+v", snap)
	}
	want := []uint64{0, 8000, 8000, 8000} // cumulative: ≤0.01, ≤0.1, ≤1, +Inf
	for i, b := range snap[0].Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %d (le %v) = %d, want %d", i, b.UpperBound, b.Count, want[i])
		}
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // exactly on a bound → that bucket
	h.Observe(2.5)
	if got := h.buckets[0].Load(); got != 1 {
		t.Errorf("le=1 bucket = %d, want 1", got)
	}
	if got := h.buckets[2].Load(); got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	h := r.Histogram("dur", "durations", []float64{1})
	h.Observe(0.5)
	snap := r.Snapshot()
	// Mutate after snapshotting: the snapshot must not move.
	c.Add(41)
	h.Observe(0.5)
	h.Observe(5)
	for _, m := range snap {
		switch m.Name {
		case "jobs_total":
			if m.Value != 1 {
				t.Errorf("snapshot counter = %v, want 1", m.Value)
			}
		case "dur":
			if m.Count != 1 || m.Buckets[0].Count != 1 {
				t.Errorf("snapshot histogram = %+v, want count 1", m)
			}
		}
	}
}

func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("xpro_classify_total", "Segments classified.").Add(3)
	r.Gauge(WithLabels("xpro_node_lifetime_hours", map[string]string{"node": "chest"}), "Battery life.").Set(42.5)
	h := r.Histogram("xpro_classify_seconds", "Classify wall time.", []float64{0.001, 0.01})
	h.Observe(0.002)
	h.Observe(0.002)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP xpro_classify_seconds Classify wall time.
# TYPE xpro_classify_seconds histogram
xpro_classify_seconds_bucket{le="0.001"} 0
xpro_classify_seconds_bucket{le="0.01"} 2
xpro_classify_seconds_bucket{le="+Inf"} 2
xpro_classify_seconds_sum 0.004
xpro_classify_seconds_count 2
# HELP xpro_classify_total Segments classified.
# TYPE xpro_classify_total counter
xpro_classify_total 3
# HELP xpro_node_lifetime_hours Battery life.
# TYPE xpro_node_lifetime_hours gauge
xpro_node_lifetime_hours{node="chest"} 42.5
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestWithLabels(t *testing.T) {
	got := WithLabels("m", map[string]string{"b": `x"y`, "a": "z"})
	want := `m{a="z",b="x\"y"}`
	if got != want {
		t.Errorf("WithLabels = %s, want %s", got, want)
	}
	if got := WithLabels("m", nil); got != "m" {
		t.Errorf("WithLabels no labels = %s, want m", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Inc()
	r.Gauge("b", "").Set(1)
	r.Histogram("c", "", DurationBuckets).Observe(1)
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil registry snapshot = %v", got)
	}
	var c *Counter
	c.Inc()
	var g *Gauge
	g.Add(2)
	var h *Histogram
	h.Observe(3)
	var tr *Tracer
	tr.Add(Span{})
	if tr.Len() != 0 || tr.NextEvent() != 0 {
		t.Error("nil tracer must be inert")
	}
}

func TestKindClashReturnsDetached(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "a counter").Inc()
	g := r.Gauge("x", "clashing gauge")
	g.Set(7) // must not panic or corrupt the counter
	if got := r.Counter("x", "").Value(); got != 1 {
		t.Errorf("counter after clash = %v, want 1", got)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != KindCounter {
		t.Errorf("snapshot after clash = %+v", snap)
	}
}

func TestSanitizeName(t *testing.T) {
	r := NewRegistry()
	r.Counter(`weird name-1{node="a b"}`, "").Inc()
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Name != `weird_name_1{node="a b"}` {
		t.Errorf("sanitized snapshot = %+v", snap)
	}
}

// Looking a registered series up by a name that is already clean
// allocates nothing, so hot paths may look their metrics up per call.
func TestCleanNameLookupsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	r := NewRegistry()
	labeled := WithLabels("lookup_labeled_total", map[string]string{"end": "sensor"})
	for _, c := range []struct {
		kind   string
		lookup func()
	}{
		{"Counter", func() { r.Counter("lookup_total", "") }},
		{"labeled Counter", func() { r.Counter(labeled, "") }},
		{"Gauge", func() { r.Gauge("lookup_gauge", "") }},
		{"Histogram", func() { r.Histogram("lookup_seconds", "", DurationBuckets) }},
		{"Quantile", func() { r.Quantile("lookup_wall_seconds", "", 0) }},
	} {
		c.lookup() // registers the series
		if got := testing.AllocsPerRun(100, c.lookup); got != 0 {
			t.Errorf("%s lookup by a clean name: %.0f allocs, want 0", c.kind, got)
		}
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("pub_total", "").Inc()
	r.PublishExpvar("telemetry_test_metrics")
	r.PublishExpvar("telemetry_test_metrics") // second publish must not panic
}

// TestWritePromHostileValues is the golden exposition test for label
// and HELP escaping: backslashes, double quotes and newlines must
// survive a strict 0.0.4-format parser round trip.
func TestWritePromHostileValues(t *testing.T) {
	r := NewRegistry()
	r.Counter(WithLabels("xpro_hostile_total", map[string]string{
		"path":  `C:\sensors\"chest"`,
		"multi": "line1\nline2",
	}), "Help with a \\ backslash\nand a newline.").Add(1)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP xpro_hostile_total Help with a \\ backslash\nand a newline.
# TYPE xpro_hostile_total counter
xpro_hostile_total{multi="line1\nline2",path="C:\\sensors\\\"chest\""} 1
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if strings.Count(sb.String(), "\n") != 3 {
		t.Errorf("hostile values leaked raw newlines:\n%q", sb.String())
	}
}
