package admit

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func mustController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	a, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{Batch: "batch", Interactive: "interactive", Alert: "alert", Class(9): "class(9)"} {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", uint8(c), got, want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.TargetDelaySeconds = 0 },
		func(c *Config) { c.TargetDelaySeconds = math.NaN() },
		func(c *Config) { c.IntervalSeconds = -1 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1.5 },
		func(c *Config) { c.BatchShare = 0 },
		func(c *Config) { c.BatchShare = 0.9 }, // > InteractiveShare
		func(c *Config) { c.InteractiveShare = 1.2 },
		func(c *Config) { c.BatchBudgetSeconds = -1 },
		func(c *Config) { c.AlertBudgetSeconds = math.Inf(1) },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: want error, got nil", i)
		}
		if _, err := NewController(c); err == nil {
			t.Errorf("case %d: NewController should reject invalid config", i)
		}
	}
}

// Strict priority: at every occupancy level, if a class is admitted
// then every higher class is admitted too (shed set is a downward-
// closed prefix of the class order).
func TestOccupancyStrictPriority(t *testing.T) {
	a := mustController(t, DefaultConfig())
	const depth = 10
	for qlen := 0; qlen <= depth; qlen++ {
		shed := [NumClasses]bool{}
		for _, c := range []Class{Batch, Interactive, Alert} {
			shed[c] = a.Decide(0, c, qlen, depth, 0) != nil
		}
		if shed[Alert] {
			t.Errorf("qlen=%d: alert shed by occupancy", qlen)
		}
		if shed[Interactive] && !shed[Batch] {
			t.Errorf("qlen=%d: interactive shed while batch admitted", qlen)
		}
	}
	// The shares actually bite below full depth.
	if a.Decide(0, Batch, 5, depth, 0) == nil {
		t.Error("batch should shed at 50% occupancy")
	}
	if err := a.Decide(0, Interactive, 5, depth, 0); err != nil {
		t.Errorf("interactive should be admitted at 50%% occupancy: %v", err)
	}
	if a.Decide(0, Interactive, 8, depth, 0) == nil {
		t.Error("interactive should shed at 80% occupancy")
	}
	if err := a.Decide(0, Alert, depth-1, depth, 0); err != nil {
		t.Errorf("alert should be admitted up to full depth: %v", err)
	}
}

func TestDeadlineGate(t *testing.T) {
	a := mustController(t, DefaultConfig())
	// No service estimate yet: estimated wait is 0, admit.
	if err := a.Decide(0, Interactive, 3, 100, 0.001); err != nil {
		t.Fatalf("no estimate should admit: %v", err)
	}
	a.ObserveService(0.010) // 10ms/event
	if got := a.ServiceEstimate(); got != 0.010 {
		t.Fatalf("first observation should seed EWMA, got %v", got)
	}
	// 3 queued × 10ms = 30ms estimated wait > 1ms budget → shed.
	err := a.Decide(0, Interactive, 3, 100, 0.001)
	if err == nil {
		t.Fatal("want deadline shed")
	}
	if err.Reason != "deadline" {
		t.Errorf("reason = %q, want deadline", err.Reason)
	}
	if want := 0.030; math.Abs(err.EstimatedWaitSeconds-want) > 1e-12 {
		t.Errorf("EstimatedWaitSeconds = %v, want %v", err.EstimatedWaitSeconds, want)
	}
	if err.RetryAfterSeconds < err.EstimatedWaitSeconds {
		t.Errorf("RetryAfterSeconds %v < estimated wait %v", err.RetryAfterSeconds, err.EstimatedWaitSeconds)
	}
	// Generous budget admits.
	if err := a.Decide(0, Interactive, 3, 100, 1.0); err != nil {
		t.Errorf("generous budget should admit: %v", err)
	}
	// Class default budget applies when the caller passes none.
	cfg := DefaultConfig()
	cfg.BatchBudgetSeconds = 0.001
	b := mustController(t, cfg)
	b.ObserveService(0.010)
	if b.Decide(0, Batch, 3, 100, 0) == nil {
		t.Error("class default budget should shed")
	}
}

func TestShedErrorTyping(t *testing.T) {
	a := mustController(t, DefaultConfig())
	a.ObserveService(0.5)
	var err error = a.Decide(0, Batch, 4, 8, 0.001)
	if err == nil {
		t.Fatal("want shed")
	}
	if !errors.Is(err, ErrShed) {
		t.Error("errors.Is(err, ErrShed) = false")
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatal("errors.As *ShedError = false")
	}
	if shed.Class != Batch || shed.QueueLen != 4 || shed.QueueDepth != 8 {
		t.Errorf("fields = %+v", shed)
	}
	if shed.Error() == "" {
		t.Error("empty Error()")
	}
	counts := a.Sheds()
	if counts[Batch] != 1 || counts[Interactive] != 0 || counts[Alert] != 0 {
		t.Errorf("Sheds() = %v", counts)
	}
}

func TestCoDelDroppingState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetDelaySeconds = 0.010
	cfg.IntervalSeconds = 0.100
	a := mustController(t, cfg)
	// Above target but not yet for a full interval: not dropping.
	a.ObserveSojourn(0.0, 0.020)
	a.ObserveSojourn(0.050, 0.020)
	if a.Dropping() {
		t.Fatal("dropping before interval elapsed")
	}
	// Interval elapsed while above target → dropping.
	a.ObserveSojourn(0.150, 0.020)
	if !a.Dropping() {
		t.Fatal("should be dropping after a full interval above target")
	}
	// While dropping, batch is shed outright even with empty queue
	// and no budget; higher classes pass.
	if err := a.Decide(0.2, Batch, 0, 100, 0); err == nil || err.Reason != "codel" {
		t.Errorf("batch under codel: %v", err)
	}
	if err := a.Decide(0.2, Interactive, 0, 100, 0); err != nil {
		t.Errorf("interactive under codel should pass: %v", err)
	}
	// One sojourn under target resets the machine.
	a.ObserveSojourn(0.3, 0.001)
	if a.Dropping() {
		t.Error("sojourn under target should clear dropping")
	}
	if err := a.Decide(0.31, Batch, 0, 100, 0); err != nil {
		t.Errorf("batch after recovery: %v", err)
	}
}

func TestQueueDelayEWMA(t *testing.T) {
	a := mustController(t, DefaultConfig())
	if a.QueueDelay() != 0 {
		t.Fatal("zero before observations")
	}
	a.ObserveSojourn(0, 0.100)
	if got := a.QueueDelay(); got != 0.100 {
		t.Fatalf("seed = %v", got)
	}
	a.ObserveSojourn(1, 0.200)
	want := 0.100 + 0.2*(0.200-0.100)
	if got := a.QueueDelay(); math.Abs(got-want) > 1e-12 {
		t.Errorf("EWMA = %v, want %v", got, want)
	}
	// Hostile inputs are ignored.
	a.ObserveSojourn(2, math.NaN())
	a.ObserveSojourn(2, -1)
	a.ObserveService(math.Inf(1))
	if got := a.QueueDelay(); math.Abs(got-want) > 1e-12 {
		t.Errorf("hostile inputs changed EWMA: %v", got)
	}
}

func mustBrownout(t *testing.T, cfg BrownoutConfig) *Brownout {
	t.Helper()
	b, err := NewBrownout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func testBrownoutConfig() BrownoutConfig {
	return BrownoutConfig{
		EnterDelaySeconds: 0.100,
		ExitDelaySeconds:  0.020,
		MinDwellSeconds:   1.0,
		ProbationSeconds:  2.0,
		ImprovementFactor: 0.9,
	}
}

func TestBrownoutConfigValidate(t *testing.T) {
	if err := DefaultBrownoutConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*BrownoutConfig){
		func(c *BrownoutConfig) { c.EnterDelaySeconds = 0 },
		func(c *BrownoutConfig) { c.ExitDelaySeconds = c.EnterDelaySeconds },
		func(c *BrownoutConfig) { c.ExitDelaySeconds = 0 },
		func(c *BrownoutConfig) { c.MinDwellSeconds = -1 },
		func(c *BrownoutConfig) { c.ProbationSeconds = math.NaN() },
		func(c *BrownoutConfig) { c.ImprovementFactor = 0 },
		func(c *BrownoutConfig) { c.ImprovementFactor = 2 },
		func(c *BrownoutConfig) { c.LogCap = -1 },
	}
	for i, mut := range bad {
		c := DefaultBrownoutConfig()
		mut(&c)
		if _, err := NewBrownout(c); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestBrownoutEnterExitHysteresis(t *testing.T) {
	b := mustBrownout(t, testBrownoutConfig())
	if changed, active := b.Observe(0, 0.050); changed || active {
		t.Fatal("under enter threshold should stay inactive")
	}
	changed, active := b.Observe(1, 0.200)
	if !changed || !active {
		t.Fatal("over enter threshold should enter")
	}
	// In the hysteresis band (between exit and enter): no exit.
	if changed, active := b.Observe(5, 0.050); changed || !active {
		t.Fatal("hysteresis band should hold brownout")
	}
	// Below exit threshold but before probation passes: the
	// probation check runs at its due time; delay improved, so no
	// rollback, then exit applies.
	if changed, active := b.Observe(4, 0.010); !changed || active {
		t.Fatal("below exit threshold after dwell should exit")
	}
	enters, exits, backs := b.Counts()
	if enters != 1 || exits != 1 || backs != 0 {
		t.Errorf("counts = %d/%d/%d", enters, exits, backs)
	}
}

func TestBrownoutDwellPreventsFlap(t *testing.T) {
	b := mustBrownout(t, testBrownoutConfig())
	b.Observe(0, 0.200) // enter at t=0
	if changed, active := b.Observe(0.5, 0.001); changed || !active {
		t.Fatal("exit before MinDwell should be suppressed")
	}
	if changed, active := b.Observe(1.5, 0.001); !changed || active {
		t.Fatal("exit after MinDwell should apply")
	}
	// Re-entry immediately after exit is also dwelled.
	if changed, _ := b.Observe(1.6, 0.500); changed {
		t.Fatal("re-entry before MinDwell should be suppressed")
	}
	if changed, active := b.Observe(2.6, 0.500); !changed || !active {
		t.Fatal("re-entry after MinDwell should apply")
	}
}

func TestBrownoutProbationRollback(t *testing.T) {
	b := mustBrownout(t, testBrownoutConfig())
	b.Observe(0, 0.200) // enter, probation due at t=2
	// Delay has not improved at probation time → rollback.
	changed, active := b.Observe(2.5, 0.250)
	if !changed || active {
		t.Fatal("probation without improvement should roll back")
	}
	_, _, backs := b.Counts()
	if backs != 1 {
		t.Errorf("rollbacks = %d, want 1", backs)
	}
	events, dropped := b.Events()
	if dropped != 0 || len(events) != 2 {
		t.Fatalf("events = %v (dropped %d)", events, dropped)
	}
	if events[0].Kind != "enter" || events[1].Kind != "rollback" {
		t.Errorf("event kinds = %q, %q", events[0].Kind, events[1].Kind)
	}
}

func TestBrownoutProbationPass(t *testing.T) {
	b := mustBrownout(t, testBrownoutConfig())
	b.Observe(0, 0.200) // enter
	// Improved well below entry×factor at probation time: stays in.
	if changed, active := b.Observe(2.5, 0.050); changed || !active {
		t.Fatal("improved delay should pass probation and stay browned out")
	}
}

func TestBrownoutLogBounded(t *testing.T) {
	cfg := testBrownoutConfig()
	cfg.MinDwellSeconds = 0
	cfg.ProbationSeconds = 0
	cfg.LogCap = 4
	b := mustBrownout(t, cfg)
	now := 0.0
	for i := 0; i < 10; i++ {
		b.Observe(now, 0.500)
		now++
		b.Observe(now, 0.001)
		now++
	}
	events, dropped := b.Events()
	if len(events) != 4 {
		t.Errorf("len(events) = %d, want cap 4", len(events))
	}
	if dropped != 16 {
		t.Errorf("dropped = %d, want 16", dropped)
	}
}

// Two identical observation sequences must produce identical logs —
// the determinism contract the chaos battery relies on.
func TestBrownoutDeterministicReplay(t *testing.T) {
	run := func() []BrownoutEvent {
		b := mustBrownout(t, testBrownoutConfig())
		delays := []float64{0.01, 0.2, 0.3, 0.15, 0.05, 0.01, 0.005, 0.4, 0.4, 0.001}
		for i, d := range delays {
			b.Observe(float64(i)*0.7, d)
		}
		events, _ := b.Events()
		return events
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("replay mismatch:\n%v\n%v", a, b)
	}
}

func TestDecideUnknownClassTreatedAsAlert(t *testing.T) {
	a := mustController(t, DefaultConfig())
	if err := a.Decide(0, Class(7), 9, 10, 0); err != nil {
		t.Errorf("unknown class should be admitted like alert: %v", err)
	}
}
