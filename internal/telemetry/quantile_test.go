package telemetry

import (
	"math"
	"strings"
	"testing"
)

// windowSketch returns a merged copy of the sketches covering the
// rolling window.
func (q *Quantile) windowSketch() *Sketch {
	dst := NewSketch(0)
	if q == nil {
		return dst
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.windowSketchLocked(dst)
	return dst
}

// windowCount returns the number of observations inside the rolling
// window (approximate at slot granularity, exact per slot).
func (q *Quantile) windowCount() uint64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	horizon := q.now - q.window
	var n uint64
	for i, sl := range q.slots {
		if math.IsNaN(q.starts[i]) || q.starts[i]+q.slotW <= horizon {
			continue
		}
		n += sl.Count()
	}
	return n
}

// cumulativeQuery returns the estimated qq-quantile since start.
func (q *Quantile) cumulativeQuery(qq float64) float64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cum.Quantile(qq)
}

func TestQuantileWindowRotation(t *testing.T) {
	r := NewRegistry()
	q := r.Quantile("xpro_test_latency_seconds", "test latency.", 60)

	// Fill the first minute with slow observations.
	for i := 0; i < 600; i++ {
		q.Observe(float64(i)/10, 1.0)
	}
	if got := q.Query(0.5); got != 1.0 {
		t.Fatalf("windowed p50 = %g, want 1.0", got)
	}
	// A second minute of fast observations should evict the slow ones.
	for i := 0; i < 700; i++ {
		q.Observe(60+float64(i)/10, 0.001)
	}
	if got := q.Query(0.99); got != 0.001 {
		t.Errorf("after rotation, windowed p99 = %g, want 0.001 (slow era evicted)", got)
	}
	// Cumulative still remembers both eras.
	if got := q.cumulativeQuery(0.99); got != 1.0 {
		t.Errorf("cumulative p99 = %g, want 1.0", got)
	}
	if got, want := q.Count(), uint64(1300); got != want {
		t.Errorf("cumulative Count = %d, want %d", got, want)
	}
}

func TestQuantileClockJumpClearsWindow(t *testing.T) {
	q := newQuantile(10)
	for i := 0; i < 100; i++ {
		q.Observe(float64(i)*0.1, 5)
	}
	// Jump far past the window: everything windowed is stale.
	q.Observe(1000, 7)
	if got := q.windowCount(); got != 1 {
		t.Fatalf("windowCount after jump = %d, want 1", got)
	}
	if got := q.Query(0.5); got != 7 {
		t.Errorf("windowed p50 after jump = %g, want 7", got)
	}
}

func TestQuantileEmptyWindowFallsBackToCumulative(t *testing.T) {
	q := newQuantile(1)
	q.Observe(0, 3)
	q.Observe(0.1, 3)
	// Advance the clock far past the window without observing into it:
	// rotate happens on Observe, so simulate by a late observation then
	// checking the early values are out of window.
	q.Observe(100, 9)
	if got := q.windowCount(); got != 1 {
		t.Fatalf("windowCount = %d, want 1", got)
	}
	// Window has the late observation only.
	if got := q.Query(0.99); got != 9 {
		t.Errorf("windowed p99 = %g, want 9", got)
	}
	// Cumulative sees all three.
	if got := q.cumulativeQuery(0.25); got != 3 {
		t.Errorf("cumulative p25 = %g, want 3", got)
	}
}

func TestQuantileGenAdvances(t *testing.T) {
	q := newQuantile(0)
	g0 := q.Gen()
	q.Observe(1, 1)
	if q.Gen() == g0 {
		t.Error("Gen did not advance after Observe")
	}
	g1 := q.Gen()
	q.Observe(1, math.NaN())
	if q.Gen() != g1 {
		t.Error("Gen advanced on ignored NaN")
	}
}

func TestQuantileNilSafe(t *testing.T) {
	var q *Quantile
	q.Observe(1, 1)
	q.ObserveWall(1)
	if q.Query(0.5) != 0 || q.Count() != 0 || q.Gen() != 0 || q.windowCount() != 0 {
		t.Error("nil Quantile is not a no-op")
	}
	if q.windowSketch() == nil || q.CumulativeSketch() == nil {
		t.Error("nil Quantile sketches should be empty, not nil")
	}
}

func TestQuantileRegistryAndExposition(t *testing.T) {
	r := NewRegistry()
	q := r.Quantile("xpro_test_seconds", "Windowed test latency.", 30)
	if r.Quantile("xpro_test_seconds", "", 5) != q {
		t.Fatal("re-registering the same name should return the same series")
	}
	labeled := r.Quantile(WithLabels("xpro_test_seconds", map[string]string{"node": `we"ird\`}), "", 30)
	labeled.Observe(1, 0.25)
	for i := 1; i <= 100; i++ {
		q.Observe(float64(i)/100, float64(i))
	}

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP xpro_test_seconds Windowed test latency.",
		"# TYPE xpro_test_seconds summary",
		`xpro_test_seconds{quantile="0.5"}`,
		`xpro_test_seconds{quantile="0.99"}`,
		"xpro_test_seconds_sum 5050\n",
		"xpro_test_seconds_count 100\n",
		`xpro_test_seconds{node="we\"ird\\",quantile="0.5"} 0.25`,
		`xpro_test_seconds_count{node="we\"ird\\"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\ngot:\n%s", want, out)
		}
	}

	// Snapshot carries the quantile marks.
	var snap *MetricSnapshot
	for _, m := range r.Snapshot() {
		if m.Name == "xpro_test_seconds" {
			m := m
			snap = &m
			break
		}
	}
	if snap == nil {
		t.Fatal("snapshot missing quantile series")
	}
	if snap.Kind != KindQuantile || len(snap.Quantiles) != len(ExpoQuantiles) {
		t.Fatalf("snapshot kind/quantiles = %v/%d", snap.Kind, len(snap.Quantiles))
	}
	if snap.Count != 100 || snap.Sum != 5050 {
		t.Errorf("snapshot Count/Sum = %d/%g, want 100/5050", snap.Count, snap.Sum)
	}
}
