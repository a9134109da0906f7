package telemetry

import "testing"

// TestRingGrowsThenWraps checks the ring against its definition: after
// n adds it retains the newest min(n, size) values, oldest first, its
// buffer never outgrows size, and a reset of a full ring starts over.
func TestRingGrowsThenWraps(t *testing.T) {
	for _, size := range []int{1, 5, ringStart, ringStart + 1, 3*ringStart + 7} {
		r := newRing[int](size)
		for round := 0; round < 2; round++ {
			for i := 0; i < 2*size+3; i++ {
				r.add(i)
				n := min(i+1, size)
				if r.len() != n {
					t.Fatalf("size %d round %d: len %d after %d adds, want %d", size, round, r.len(), i+1, n)
				}
				if cap(r.buf) > size {
					t.Fatalf("size %d: buffer grew to %d", size, cap(r.buf))
				}
				if d := r.dropped(uint64(i + 1)); d != uint64(i+1-n) {
					t.Fatalf("size %d: dropped %d after %d adds, want %d", size, d, i+1, i+1-n)
				}
				for j, v := range r.items() {
					if want := i + 1 - n + j; v != want {
						t.Fatalf("size %d after %d adds: item %d = %d, want %d", size, i+1, j, v, want)
					}
				}
			}
			r.reset()
			if r.len() != 0 || r.items() != nil || r.dropped(0) != 0 {
				t.Fatalf("size %d: reset left %d items", size, r.len())
			}
		}
	}
}

// TestRingsStartSmall pins that a fresh tracer and event log allocate
// ringStart records, not their whole capacity, while Cap still reports
// the capacity.
func TestRingsStartSmall(t *testing.T) {
	tr := NewTracer(0)
	if c := cap(tr.ring.buf); c != ringStart {
		t.Errorf("fresh tracer buffer holds %d spans, want %d", c, ringStart)
	}
	if tr.Cap() != DefaultTraceCapacity {
		t.Errorf("tracer Cap = %d, want %d", tr.Cap(), DefaultTraceCapacity)
	}
	l := NewEventLog(0)
	if c := cap(l.ring.buf); c != ringStart {
		t.Errorf("fresh event log buffer holds %d records, want %d", c, ringStart)
	}
	if l.Cap() != DefaultEventLogCapacity {
		t.Errorf("event log Cap = %d, want %d", l.Cap(), DefaultEventLogCapacity)
	}
}
