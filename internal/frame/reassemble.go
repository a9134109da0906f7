package frame

import "slices"

// Disposition classifies one observed frame arrival.
type Disposition int

const (
	// InOrder is the expected next frame.
	InOrder Disposition = iota
	// Duplicate is a frame the reassembler has already slotted.
	Duplicate
	// Late is a frame that arrived after a gap had been declared for it
	// — a reordering recovered by the sequence number.
	Late
	// Gap is a frame ahead of the expected sequence: the skipped frames
	// are declared missing (they may still arrive Late).
	Gap
)

func (d Disposition) String() string {
	switch d {
	case InOrder:
		return "in-order"
	case Duplicate:
		return "duplicate"
	case Late:
		return "late"
	case Gap:
		return "gap"
	default:
		return "Disposition(?)"
	}
}

// Reassembler tracks the 8-bit wrapping sequence numbers of one
// payload's frames on the receive side and classifies each arrival
// without ground truth: gaps, duplicates and reordering all fall out of
// the sequence number alone. The zero value is ready to use.
//
// Sequence arithmetic is modulo 256 with a forward window of 128: an
// arrival up to 127 ahead of the expected number declares the skipped
// frames missing; anything behind is a late (reordered) frame if it
// was declared missing, otherwise a duplicate.
type Reassembler struct {
	started  bool
	expected uint8
	missing  map[uint8]bool
	inOrder  int
	dups     int
	late     int
}

// Start primes the reassembler to expect seq as the first frame.
// Receivers that know a stream's starting sequence number call this
// before the first arrival, so losses at the head of the stream are
// declared missing too; without it the first observed frame defines
// the start. Start after any Observe is a no-op.
func (r *Reassembler) Start(seq uint8) {
	if !r.started {
		r.started = true
		r.expected = seq
	}
}

// Observe records the arrival of frame seq and classifies it.
func (r *Reassembler) Observe(seq uint8) Disposition {
	if !r.started {
		r.started = true
		r.expected = seq + 1
		r.inOrder++
		return InOrder
	}
	if seq == r.expected {
		r.expected++
		r.inOrder++
		return InOrder
	}
	if r.missing[seq] {
		delete(r.missing, seq)
		r.late++
		return Late
	}
	if d := seq - r.expected; d < 128 {
		if r.missing == nil {
			r.missing = make(map[uint8]bool)
		}
		for s := r.expected; s != seq; s++ {
			r.missing[s] = true
		}
		r.expected = seq + 1
		r.inOrder++
		return Gap
	}
	r.dups++
	return Duplicate
}

// Missing returns the sequence numbers declared missing and not yet
// recovered by a late arrival, in ascending numeric order.
func (r *Reassembler) Missing() []uint8 {
	out := make([]uint8, 0, len(r.missing))
	for s := range r.missing {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// Stats reports the arrival tally: frames slotted in order (including
// the one that opened each gap), duplicates dropped, and late frames
// recovered into their gap.
func (r *Reassembler) Stats() (inOrder, duplicates, late int) {
	return r.inOrder, r.dups, r.late
}
