package telemetry

// ringStart is how many records a ring's buffer holds when it is made.
const ringStart = 64

// ring retains the newest size records. Its buffer starts at ringStart
// records and doubles as records arrive until it holds size, so a
// short-lived engine that records a few dozen events never allocates,
// zeroes or has the garbage collector scan the whole capacity. It is
// not safe for concurrent use; its owner locks.
type ring[T any] struct {
	buf  []T
	size int
	next int // write position once full
	full bool
}

func newRing[T any](size int) ring[T] {
	return ring[T]{buf: make([]T, 0, min(size, ringStart)), size: size}
}

// add records v, evicting the oldest record when the ring is full.
func (r *ring[T]) add(v T) {
	if r.full {
		r.buf[r.next] = v
		if r.next++; r.next == r.size {
			r.next = 0
		}
		return
	}
	if len(r.buf) == cap(r.buf) {
		grown := make([]T, len(r.buf), min(r.size, max(ringStart, 2*cap(r.buf))))
		copy(grown, r.buf)
		r.buf = grown
	}
	r.buf = append(r.buf, v)
	r.full = len(r.buf) == r.size
}

// len returns the number of retained records.
func (r *ring[T]) len() int { return len(r.buf) }

// dropped returns how many of recorded records were evicted.
func (r *ring[T]) dropped(recorded uint64) uint64 {
	if !r.full {
		return 0
	}
	return recorded - uint64(r.size)
}

// items returns a copy of the retained records, oldest first; nil when
// there are none.
func (r *ring[T]) items() []T {
	if !r.full {
		return append([]T(nil), r.buf...)
	}
	out := make([]T, 0, r.size)
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// reset discards every record and keeps the buffer.
func (r *ring[T]) reset() {
	r.buf, r.next, r.full = r.buf[:0], 0, false
}
