// Package serve is the concurrent fleet-serving runtime: a sharded
// worker pool that serves many engines (one per BSN subject) and many
// segments per engine at once.
//
// The paper evaluates one wearable against one aggregator; a deployed
// XPro backend serves a fleet. Two properties make the classify path
// embarrassingly parallel and this pool correct:
//
//   - Across subjects, engines share nothing mutable — each engine owns
//     its cut, breaker, modeled clock and RNG streams — so subjects can
//     be served on independent workers.
//
//   - Within one subject, the resilient classify path is a serial
//     modeled timeline (clock, breaker, link RNG), so events of one
//     subject must execute in submission order for a seeded run to
//     replay bit-identically.
//
// The pool encodes exactly that: every shard key maps to one fixed
// worker, whose bounded queue is drained in FIFO order. Events of one
// subject never reorder, regardless of the worker count; events of
// different subjects interleave freely. A full queue rejects with
// ErrOverloaded instead of blocking — backpressure the caller can act
// on — and Close drains every queued job before returning.
//
// The pool is also the fleet's crash bulkhead: a job that panics kills
// only its worker goroutine, which is replaced on the spot (the shard's
// queue keeps draining in order), the panic is reported to
// Options.OnPanic, and the pool keeps serving every other shard.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"
)

// ErrOverloaded rejects a submission whose shard queue is full: the
// bounded-queue backpressure signal. Retry later or shed load. Match
// with errors.Is; errors.As gives the *OverloadedError carrying the
// queue geometry at rejection time.
var ErrOverloaded = errors.New("serve: worker queue full")

// ErrClosed rejects submissions after Close began.
var ErrClosed = errors.New("serve: pool closed")

// OverloadedError is the typed form of ErrOverloaded: which shard was
// rejected and how loaded the pool was, so the caller can size retry
// backoff or shed load proportionally.
type OverloadedError struct {
	// Shard is the rejected submission's shard key; Worker the worker
	// index it maps to.
	Shard  uint64
	Worker int
	// Workers and QueueDepth are the pool geometry; QueueLen the
	// rejected worker's pending-job count at rejection time (== depth).
	Workers    int
	QueueDepth int
	QueueLen   int
	// RetryAfterSeconds, when > 0, hints how long the caller should
	// wait before retrying: the admission controller's estimate of
	// the time for the rejected queue to drain at the current
	// service rate. Zero when no admission controller is attached
	// (the pool itself has no service-time estimator).
	RetryAfterSeconds float64
}

func (e *OverloadedError) Error() string {
	if e.RetryAfterSeconds > 0 {
		return fmt.Sprintf("serve: worker %d/%d queue full (%d/%d jobs pending, retry after %.3fs)",
			e.Worker, e.Workers, e.QueueLen, e.QueueDepth, e.RetryAfterSeconds)
	}
	return fmt.Sprintf("serve: worker %d/%d queue full (%d/%d jobs pending)",
		e.Worker, e.Workers, e.QueueLen, e.QueueDepth)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// DrainTimeoutError reports a CloseWithin that ran out of wall-clock
// time before the queues drained. The pool is still draining in the
// background — submissions are rejected, workers finish what is
// queued — the caller just stopped waiting.
type DrainTimeoutError struct {
	// Timeout is the budget that expired; Pending the jobs still queued
	// when it did.
	Timeout time.Duration
	Pending int
}

func (e *DrainTimeoutError) Error() string {
	return fmt.Sprintf("serve: drain exceeded %v with %d jobs still queued", e.Timeout, e.Pending)
}

// DefaultQueueDepth is the per-worker pending-job capacity when
// Options.QueueDepth is zero.
const DefaultQueueDepth = 64

// Options configures a Pool. Zero values take defaults.
type Options struct {
	// Workers is the number of worker goroutines (default GOMAXPROCS).
	Workers int
	// QueueDepth is each worker's bounded queue capacity (default
	// DefaultQueueDepth). Submissions beyond it return ErrOverloaded.
	QueueDepth int
	// OnPanic, when set, observes every job panic the pool contains:
	// the worker index and the recovered value. The worker is already
	// replaced when the hook runs; the hook must not panic.
	OnPanic func(worker int, recovered any)
}

// Pool is a sharded worker pool with per-shard FIFO ordering: jobs
// submitted under the same shard key run on the same worker in
// submission order. All methods are safe for concurrent use.
type Pool struct {
	queues  []chan func()
	depth   int
	onPanic func(worker int, recovered any)
	wg      sync.WaitGroup

	// mu guards closed against Submit racing Close: Submit holds the
	// read side while sending, so Close cannot close a queue mid-send.
	mu     sync.RWMutex
	closed bool

	// Shutdown is split in two idempotent halves so Close and
	// CloseWithin compose: shutdownOnce stops intake and closes the
	// queues, waitOnce spawns the single wg.Wait that closes done.
	shutdownOnce sync.Once
	waitOnce     sync.Once
	done         chan struct{}
}

// NewPool starts the workers.
func NewPool(opt Options) *Pool {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = DefaultQueueDepth
	}
	p := &Pool{
		queues:  make([]chan func(), opt.Workers),
		depth:   opt.QueueDepth,
		onPanic: opt.OnPanic,
		done:    make(chan struct{}),
	}
	for i := range p.queues {
		q := make(chan func(), opt.QueueDepth)
		p.queues[i] = q
		p.wg.Add(1)
		go p.worker(i, q)
	}
	return p
}

// worker drains q until it closes. A panicking job kills only this
// goroutine: the panic is reported, and a replacement
// worker — inheriting this one's WaitGroup slot — resumes draining the
// same queue in order. The shard loses nothing but the job that blew
// up.
func (p *Pool) worker(i int, q chan func()) {
	defer func() {
		if rec := recover(); rec != nil {
			if p.onPanic != nil {
				p.onPanic(i, rec)
			}
			go p.worker(i, q)
			return
		}
		p.wg.Done()
	}()
	for job := range q {
		job()
	}
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return len(p.queues) }

// Shard maps a subject name to a stable shard key (FNV-1a).
func Shard(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// Submit enqueues job on the worker owning shard. It never blocks:
// a full queue returns a typed *OverloadedError (matching
// ErrOverloaded), a closed pool ErrClosed.
func (p *Pool) Submit(shard uint64, job func()) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	w := int(shard % uint64(len(p.queues)))
	select {
	case p.queues[w] <- job:
		return nil
	default:
		return &OverloadedError{
			Shard: shard, Worker: w,
			Workers: len(p.queues), QueueDepth: p.depth,
			QueueLen: len(p.queues[w]),
		}
	}
}

// QueueLen returns the number of jobs pending on shard's worker.
func (p *Pool) QueueLen(shard uint64) int {
	return len(p.queues[shard%uint64(len(p.queues))])
}

// QueueDepth returns each worker's bounded queue capacity.
func (p *Pool) QueueDepth() int { return p.depth }

// Pending returns the total number of jobs queued across all workers.
func (p *Pool) Pending() int {
	n := 0
	for _, q := range p.queues {
		n += len(q)
	}
	return n
}

// shutdown stops intake and closes the queues, once.
func (p *Pool) shutdown() {
	p.shutdownOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		for _, q := range p.queues {
			close(q)
		}
		p.mu.Unlock()
	})
}

// drained returns a channel closed when every worker has exited; the
// single wg.Wait is spawned on first use.
func (p *Pool) drained() <-chan struct{} {
	p.waitOnce.Do(func() {
		go func() {
			p.wg.Wait()
			close(p.done)
		}()
	})
	return p.done
}

// Close stops accepting new jobs, drains every queued job, and returns
// after the last worker exits. Closing twice — or concurrently from
// any number of goroutines, or mixed with CloseWithin — is safe: every
// call observes the same single shutdown.
func (p *Pool) Close() {
	p.shutdown()
	<-p.drained()
}

// CloseWithin is Close with a wall-clock bound: it stops intake
// immediately and waits up to d for the queued jobs to drain. On
// timeout it returns a *DrainTimeoutError snapshot and leaves the
// drain running in the background — a later Close (or CloseWithin)
// waits for (or re-polls) the same shutdown.
func (p *Pool) CloseWithin(d time.Duration) error {
	p.shutdown()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-p.drained():
		return nil
	case <-timer.C:
		return &DrainTimeoutError{Timeout: d, Pending: p.Pending()}
	}
}
