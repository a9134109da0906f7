package serve

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestOverloadedErrorFields(t *testing.T) {
	p := NewPool(Options{Workers: 2, QueueDepth: 1})
	defer p.Close()

	// Pin worker 1 (shard 1) on a blocking job, then fill its queue.
	block := make(chan struct{})
	if err := p.Submit(1, func() { <-block }); err != nil {
		t.Fatal(err)
	}
	// The running job may or may not have been dequeued yet; fill until
	// rejected.
	var err error
	for i := 0; i < 3 && err == nil; i++ {
		err = p.Submit(1, func() {})
	}
	if err == nil {
		t.Fatal("queue never filled")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded match", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %T, want *OverloadedError", err)
	}
	if oe.Shard != 1 || oe.Worker != 1 || oe.Workers != 2 || oe.QueueDepth != 1 || oe.QueueLen != 1 {
		t.Errorf("OverloadedError = %+v", oe)
	}
	close(block)
}

func TestWorkerPanicRespawn(t *testing.T) {
	var mu sync.Mutex
	var hooks []int
	p := NewPool(Options{Workers: 1, QueueDepth: 8, OnPanic: func(worker int, rec any) {
		mu.Lock()
		hooks = append(hooks, worker)
		mu.Unlock()
		if rec != "boom" {
			t.Errorf("recovered value = %v, want boom", rec)
		}
	}})

	done := make(chan struct{})
	if err := p.Submit(0, func() { panic("boom") }); err != nil {
		t.Fatal(err)
	}
	// The same shard must keep serving, in order, on the replacement
	// worker.
	if err := p.Submit(0, func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shard stopped serving after a panic")
	}
	mu.Lock()
	if len(hooks) != 1 || hooks[0] != 0 {
		t.Errorf("OnPanic calls = %v, want [0]", hooks)
	}
	mu.Unlock()
	p.Close() // the replacement worker must honor shutdown too
}

func TestCloseWithinTimesOutThenDrains(t *testing.T) {
	p := NewPool(Options{Workers: 1, QueueDepth: 4})
	block := make(chan struct{})
	if err := p.Submit(0, func() { <-block }); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(0, func() {}); err != nil {
		t.Fatal(err)
	}

	err := p.CloseWithin(20 * time.Millisecond)
	var dte *DrainTimeoutError
	if !errors.As(err, &dte) {
		t.Fatalf("CloseWithin = %v, want *DrainTimeoutError", err)
	}
	if dte.Timeout != 20*time.Millisecond || dte.Pending < 1 {
		t.Errorf("DrainTimeoutError = %+v", dte)
	}
	// Intake is shut even though the drain timed out.
	if err := p.Submit(0, func() {}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after CloseWithin = %v, want ErrClosed", err)
	}
	// Unblock: the background drain finishes and Close observes it.
	close(block)
	p.Close()
	if err := p.CloseWithin(time.Second); err != nil {
		t.Errorf("CloseWithin after drain = %v, want nil", err)
	}
	if p.Pending() != 0 {
		t.Errorf("Pending after drain = %d", p.Pending())
	}
}

func TestCloseConcurrent(t *testing.T) {
	p := NewPool(Options{Workers: 2, QueueDepth: 8})
	for i := 0; i < 8; i++ {
		p.Submit(uint64(i), func() { time.Sleep(time.Millisecond) })
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				p.Close()
			} else {
				p.CloseWithin(time.Second)
			}
		}(i)
	}
	wg.Wait()
	if p.Pending() != 0 {
		t.Errorf("Pending after concurrent closes = %d", p.Pending())
	}
}
