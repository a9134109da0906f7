package xpro

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Benchmarks of the fleet-serving path. BENCH_serve.json records the
// committed trajectory; regenerate with:
//
//	go test -bench Fleet -benchtime 2s -run - .
//
// The parallel/sequential ratio scales with cores: on a single-core
// runner the pooled path only pays its coordination overhead.

var benchEngines sync.Map // case symbol -> *Engine

func benchEngine(b *testing.B, sym string) *Engine {
	b.Helper()
	if e, ok := benchEngines.Load(sym); ok {
		return e.(*Engine)
	}
	e, err := New(Config{Case: sym})
	if err != nil {
		b.Fatal(err)
	}
	benchEngines.Store(sym, e)
	return e
}

func benchSegments(e *Engine, n int) [][]float64 {
	test := e.TestSet()
	out := make([][]float64, n)
	for i := range out {
		out[i] = test[i%len(test)].Samples
	}
	return out
}

// BenchmarkFleetSequential is the baseline: one event at a time on the
// acceptance case E1.
func BenchmarkFleetSequential(b *testing.B) {
	e := benchEngine(b, "E1")
	segs := benchSegments(e, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Classify(segs[i%len(segs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetBatchParallel fans a 64-event E1 batch across the
// worker pool; each iteration is one whole batch, so events/op = 64.
func BenchmarkFleetBatchParallel(b *testing.B) {
	e := benchEngine(b, "E1")
	segs := benchSegments(e, 64)
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.ClassifyBatchParallel(ctx, segs, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkFleetStreamParallel drives the ordered streaming path.
func BenchmarkFleetStreamParallel(b *testing.B) {
	e := benchEngine(b, "E1")
	segs := benchSegments(e, 64)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := make(chan []float64)
		go func() {
			defer close(in)
			for _, s := range segs {
				in <- s
			}
		}()
		for r := range e.StreamParallel(context.Background(), in, workers) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkFleetSubmit measures the full fleet path — shard lookup,
// bounded-queue hop, worker classify, result channel — for a
// two-subject network.
func BenchmarkFleetSubmit(b *testing.B) {
	engines := map[string]*Engine{
		"chest": benchEngine(b, "C1"),
		"wrist": benchEngine(b, "E1"),
	}
	n, err := NewNetwork(engines)
	if err != nil {
		b.Fatal(err)
	}
	f, err := n.Serve(ServeOptions{Workers: runtime.GOMAXPROCS(0), QueueDepth: 256})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	segs := map[string][]float64{
		"chest": engines["chest"].TestSet()[0].Samples,
		"wrist": engines["wrist"].TestSet()[0].Samples,
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subject := "chest"
		if i%2 == 1 {
			subject = "wrist"
		}
		if _, err := f.Classify(ctx, subject, segs[subject]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetNetworkReport measures the memoized shared-resource
// view: after the first rebuild every call is a few atomic loads.
func BenchmarkFleetNetworkReport(b *testing.B) {
	n, err := NewNetwork(map[string]*Engine{
		"chest": benchEngine(b, "C1"),
		"wrist": benchEngine(b, "E1"),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Report(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetOverload measures the admission-guarded submit path:
// the full fleet hop with the deadline/occupancy decision in front of
// it, mixed priorities, under enough parallel submitters to keep the
// queues warm. sheds/op reports how much of the offered load the
// controller refused.
func BenchmarkFleetOverload(b *testing.B) {
	engines := map[string]*Engine{
		"chest": benchEngine(b, "C1"),
		"wrist": benchEngine(b, "E1"),
	}
	n, err := NewNetwork(engines)
	if err != nil {
		b.Fatal(err)
	}
	f, err := n.Serve(ServeOptions{
		Workers: runtime.GOMAXPROCS(0), QueueDepth: 64,
		Overload: DefaultOverload(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	segs := map[string][]float64{
		"chest": engines["chest"].TestSet()[0].Samples,
		"wrist": engines["wrist"].TestSet()[0].Samples,
	}
	prios := []Priority{PriorityBatch, PriorityInteractive, PriorityAlert}
	ctx := context.Background()
	var sheds atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			subject := "chest"
			if i%2 == 1 {
				subject = "wrist"
			}
			rq := FleetRequest{Subject: subject, Samples: segs[subject], Priority: prios[i%3]}
			i++
			ch, err := f.SubmitRequest(ctx, rq)
			switch {
			case err == nil:
				<-ch
			case errors.Is(err, ErrShed) || errors.Is(err, ErrOverloaded):
				sheds.Add(1)
			default:
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(sheds.Load())/float64(b.N), "sheds/op")
}
