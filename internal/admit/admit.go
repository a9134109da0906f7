// Package admit implements deadline-aware admission control for the
// fleet serving layer. It sits in front of the sharded worker pool
// and decides, per event, whether the event should be accepted or
// shed before it is ever enqueued.
//
// Three signals feed the decision:
//
//   - Queue occupancy vs a per-class share. Each priority class may
//     only use a fraction of the queue; the shares are monotone
//     (batch < interactive < alert ≤ 1.0) which yields strict-priority
//     shedding: as the queue fills, batch traffic is refused first,
//     then interactive, and alert traffic is only ever refused by the
//     pool itself when the queue is completely full.
//   - Estimated queue wait vs the event's deadline budget. The
//     controller keeps an EWMA of observed per-event service time;
//     queueLen × EWMA estimates how long a new arrival would wait.
//     If that estimate already busts the budget the event is shed at
//     the door instead of timing out after consuming a queue slot.
//   - CoDel-style sojourn tracking. The controller watches the
//     queue delay actually experienced by dequeued events. If the
//     delay stays above target for a full interval the controller
//     enters a dropping state during which the lowest class is shed
//     outright, draining the standing queue.
//
// All methods take explicit timestamps (seconds on an arbitrary
// monotone clock) so the same controller runs on the modeled fault
// clock in deterministic batteries and on host uptime in the live
// fleet. The controller itself never reads wall time.
package admit

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Class is a request priority class. Higher values are more
// important and are shed later. The zero value is Batch, the least
// important class, so an unset class never starves real traffic of
// its share by accident.
type Class uint8

const (
	// Batch is background/bulk traffic: re-analysis, backfill,
	// export. Shed first.
	Batch Class = iota
	// Interactive is user-facing traffic with a human waiting.
	Interactive
	// Alert is safety-critical traffic (arrhythmia alarms). Never
	// shed by the admission controller; only a completely full
	// queue refuses it.
	Alert

	numClasses = 3
)

// NumClasses is the number of priority classes.
const NumClasses = int(numClasses)

// String returns the canonical lowercase class name, used as the
// metric label value in xpro_admit_shed_total{class=...}.
func (c Class) String() string {
	switch c {
	case Batch:
		return "batch"
	case Interactive:
		return "interactive"
	case Alert:
		return "alert"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass maps a canonical class name back to its Class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "batch":
		return Batch, nil
	case "interactive":
		return Interactive, nil
	case "alert":
		return Alert, nil
	}
	return Batch, fmt.Errorf("admit: unknown class %q", s)
}

// ErrShed is the sentinel matched by errors.Is for admission
// rejections. The concrete error is always a *ShedError.
var ErrShed = errors.New("admission shed")

// ShedError reports that an event was refused by the admission
// controller before reaching the worker pool. It carries enough
// context for the caller to implement informed backoff.
type ShedError struct {
	// Class is the priority class of the shed event.
	Class Class
	// Reason is "occupancy", "deadline" or "codel".
	Reason string
	// EstimatedWaitSeconds is the queue-wait estimate at decision
	// time (queue length × service-time EWMA).
	EstimatedWaitSeconds float64
	// BudgetSeconds is the deadline budget the event carried (0 if
	// none and the class default was also unset).
	BudgetSeconds float64
	// RetryAfterSeconds hints how long the caller should wait
	// before retrying: the time for the standing queue to drain at
	// the current service rate, floored at the CoDel target.
	RetryAfterSeconds float64
	// QueueLen and QueueDepth describe the shard queue at decision
	// time.
	QueueLen, QueueDepth int
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission shed %s event (%s): estimated wait %.3fs, budget %.3fs, queue %d/%d, retry after %.3fs",
		e.Class, e.Reason, e.EstimatedWaitSeconds, e.BudgetSeconds, e.QueueLen, e.QueueDepth, e.RetryAfterSeconds)
}

// Is reports sentinel identity so errors.Is(err, ErrShed) matches.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// Config parameterises a Controller. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// TargetDelaySeconds is the CoDel target: the acceptable
	// standing queue delay. Sojourns above it for a full interval
	// trip the dropping state.
	TargetDelaySeconds float64
	// IntervalSeconds is the CoDel interval: how long the delay
	// must stay above target before dropping starts.
	IntervalSeconds float64
	// Alpha is the EWMA smoothing factor for the service-time and
	// queue-delay estimators, in (0, 1]. Larger reacts faster.
	Alpha float64
	// BatchShare and InteractiveShare are the queue-occupancy
	// fractions those classes may use; Alert always has share 1.0.
	// Must satisfy 0 < BatchShare ≤ InteractiveShare ≤ 1.
	BatchShare, InteractiveShare float64
	// BatchBudgetSeconds, InteractiveBudgetSeconds and
	// AlertBudgetSeconds are default deadline budgets applied when
	// an event carries none. Zero means that class has no default
	// budget (only occupancy and CoDel apply).
	BatchBudgetSeconds       float64
	InteractiveBudgetSeconds float64
	AlertBudgetSeconds       float64
}

// DefaultConfig returns the admission parameters used by the fleet
// when overload protection is enabled without further tuning.
func DefaultConfig() Config {
	return Config{
		TargetDelaySeconds: 0.005,
		IntervalSeconds:    0.100,
		Alpha:              0.2,
		BatchShare:         0.5,
		InteractiveShare:   0.8,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case !(c.TargetDelaySeconds > 0) || !finite(c.TargetDelaySeconds):
		return fmt.Errorf("admit: TargetDelaySeconds must be finite and > 0, got %v", c.TargetDelaySeconds)
	case !(c.IntervalSeconds > 0) || !finite(c.IntervalSeconds):
		return fmt.Errorf("admit: IntervalSeconds must be finite and > 0, got %v", c.IntervalSeconds)
	case !(c.Alpha > 0 && c.Alpha <= 1):
		return fmt.Errorf("admit: Alpha must be in (0, 1], got %v", c.Alpha)
	case !(c.BatchShare > 0) || !(c.BatchShare <= c.InteractiveShare) || !(c.InteractiveShare <= 1):
		return fmt.Errorf("admit: shares must satisfy 0 < BatchShare <= InteractiveShare <= 1, got %v, %v",
			c.BatchShare, c.InteractiveShare)
	case c.BatchBudgetSeconds < 0 || c.InteractiveBudgetSeconds < 0 || c.AlertBudgetSeconds < 0:
		return fmt.Errorf("admit: class budgets must be >= 0")
	case !finite(c.BatchBudgetSeconds) || !finite(c.InteractiveBudgetSeconds) || !finite(c.AlertBudgetSeconds):
		return fmt.Errorf("admit: class budgets must be finite")
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// share returns the queue-occupancy fraction a class may use.
func (c Config) share(cl Class) float64 {
	switch cl {
	case Batch:
		return c.BatchShare
	case Interactive:
		return c.InteractiveShare
	default:
		return 1.0
	}
}

// budget returns the default deadline budget for a class.
func (c Config) budget(cl Class) float64 {
	switch cl {
	case Batch:
		return c.BatchBudgetSeconds
	case Interactive:
		return c.InteractiveBudgetSeconds
	default:
		return c.AlertBudgetSeconds
	}
}

// Controller is a deadline-aware admission controller. It is safe
// for concurrent use; every decision is made under one mutex so the
// estimator state a decision reads is consistent.
type Controller struct {
	mu  sync.Mutex
	cfg Config

	// service-time EWMA (seconds per event).
	svcEWMA float64
	haveSvc bool

	// queue-delay EWMA over observed sojourns.
	delayEWMA float64
	haveDelay bool

	// CoDel state on the caller-provided clock.
	firstAbove    float64 // when sojourn first stayed above target; valid if aboveArmed
	aboveArmed    bool
	dropping      bool
	droppingSince float64

	sheds    [numClasses]uint64
	admitted [numClasses]uint64
}

// NewController builds a Controller from cfg. cfg must Validate.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg}, nil
}

// Config returns the controller's configuration.
func (a *Controller) Config() Config { return a.cfg }

// ObserveService records a completed event's service time (seconds
// of work, excluding queue wait) into the EWMA estimator.
func (a *Controller) ObserveService(d float64) {
	if !(d >= 0) || !finite(d) {
		return
	}
	a.mu.Lock()
	if !a.haveSvc {
		a.svcEWMA, a.haveSvc = d, true
	} else {
		a.svcEWMA += a.cfg.Alpha * (d - a.svcEWMA)
	}
	a.mu.Unlock()
}

// ObserveSojourn records the queue delay an event experienced
// between acceptance and the start of service, advancing the CoDel
// state machine at time now.
func (a *Controller) ObserveSojourn(now, d float64) {
	if !(d >= 0) || !finite(d) || !finite(now) {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.haveDelay {
		a.delayEWMA, a.haveDelay = d, true
	} else {
		a.delayEWMA += a.cfg.Alpha * (d - a.delayEWMA)
	}
	if d < a.cfg.TargetDelaySeconds {
		// Sojourn back under target: leave dropping, disarm.
		a.aboveArmed = false
		a.dropping = false
		return
	}
	if !a.aboveArmed {
		a.aboveArmed = true
		a.firstAbove = now + a.cfg.IntervalSeconds
		return
	}
	if !a.dropping && now >= a.firstAbove {
		a.dropping = true
		a.droppingSince = now
	}
}

// Dropping reports whether the CoDel state machine is in its
// dropping state (standing queue above target for a full interval).
func (a *Controller) Dropping() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropping
}

// QueueDelay returns the EWMA of observed queue sojourns. This is
// the signal the brownout controller watches.
func (a *Controller) QueueDelay() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.delayEWMA
}

// ServiceEstimate returns the service-time EWMA (seconds/event).
func (a *Controller) ServiceEstimate() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.svcEWMA
}

func (a *Controller) estWaitLocked(queueLen int) float64 {
	if queueLen <= 0 || !a.haveSvc {
		return 0
	}
	return float64(queueLen) * a.svcEWMA
}

func (a *Controller) retryAfterLocked(queueLen int) float64 {
	r := a.estWaitLocked(queueLen)
	if r < a.delayEWMA {
		r = a.delayEWMA
	}
	if r < a.cfg.TargetDelaySeconds {
		r = a.cfg.TargetDelaySeconds
	}
	return r
}

// Decide makes the admission decision for one event at time now.
// queueLen/queueDepth describe the destination shard queue before
// enqueue; budgetSeconds is the event's deadline budget (≤ 0 means
// use the class default). It returns nil to admit, or a *ShedError.
func (a *Controller) Decide(now float64, class Class, queueLen, queueDepth int, budgetSeconds float64) *ShedError {
	a.mu.Lock()
	defer a.mu.Unlock()
	if class >= numClasses {
		class = Alert // unknown classes are treated as most important, never silently shed
	}
	if budgetSeconds <= 0 {
		budgetSeconds = a.cfg.budget(class)
	}
	shed := func(reason string) *ShedError {
		a.sheds[class]++
		return &ShedError{
			Class:                class,
			Reason:               reason,
			EstimatedWaitSeconds: a.estWaitLocked(queueLen),
			BudgetSeconds:        budgetSeconds,
			RetryAfterSeconds:    a.retryAfterLocked(queueLen),
			QueueLen:             queueLen,
			QueueDepth:           queueDepth,
		}
	}
	// Strict-priority occupancy gate: a class may only occupy its
	// share of the queue. Shares are monotone in class so lower
	// classes always hit their ceiling first.
	if queueDepth > 0 {
		limit := int(a.cfg.share(class) * float64(queueDepth))
		if limit < 1 {
			limit = 1
		}
		if queueLen >= limit && class != Alert {
			return shed("occupancy")
		}
	}
	// Deadline gate: don't enqueue work that will already be late.
	if budgetSeconds > 0 {
		if w := a.estWaitLocked(queueLen); w > budgetSeconds {
			return shed("deadline")
		}
	}
	// CoDel dropping state: drain the standing queue by refusing
	// the lowest class outright.
	if a.dropping && class == Batch {
		return shed("codel")
	}
	a.admitted[class]++
	return nil
}

// RetryAfter returns the retry-after hint for the current queue
// state, used to decorate pool-level OverloadedError rejections.
func (a *Controller) RetryAfter(queueLen int) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retryAfterLocked(queueLen)
}

// Sheds returns the cumulative shed count per class.
func (a *Controller) Sheds() [NumClasses]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sheds
}

// Admitted returns the cumulative admitted count per class.
func (a *Controller) Admitted() [NumClasses]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitted
}
