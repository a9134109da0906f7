package faults

import (
	"math"

	"xpro/internal/frame"
	"xpro/internal/wireless"
)

// Framing configures the integrity layer of a value-aware send: every
// transceiver packet is wrapped in an internal/frame envelope (sequence
// number + CRC-16/CCITT) so the receiver detects corruption,
// duplication and reordering instead of silently consuming garbage.
type Framing struct {
	// Impute selects how values lost with their frames are repaired.
	Impute frame.ImputePolicy
	// MaxLossFraction is the largest fraction of a payload's frames
	// that may be lost (after per-frame retries) before the transfer
	// fails outright with *wireless.ErrDropped. Zero or negative means
	// the default 0.5: lose up to half the frames and impute.
	MaxLossFraction float64
}

func (f *Framing) maxLossFraction() float64 {
	if f == nil || f.MaxLossFraction <= 0 {
		return 0.5
	}
	return f.MaxLossFraction
}

// SendValues moves dataBits carrying `values` equal-width code words
// across the link, modeling the receive side faithfully enough for the
// functional simulation to decode what actually arrived.
//
// With fr == nil the wire format is the legacy bare one: corruption in
// a BitFlip window is DELIVERED (the receiver has no checksum), and the
// returned report pins which value saw which XOR mask; duplication and
// reordering smear adjacent value blocks in place. With no corruption
// windows active this path consumes the link RNG identically to Send,
// so seeded replays of corruption-free plans are bit-identical to the
// legacy transport.
//
// With fr != nil every packet carries frame.IntegrityBits of envelope
// on the air. Frames whose CRC would fail are rejected and retried,
// consuming transmit/receive energy and retry budget exactly like
// losses; duplicates and reordering are recovered by sequence number.
// Frames still missing after the retry budget do not fail the transfer
// (up to fr.MaxLossFraction of the payload): their value indices come
// back in the report's Missing list for imputation downstream.
//
// The returned report is nil when the payload could not be framed
// (values <= 0, or fewer bits than values); the call then degrades to
// the legacy Send path.
func (l *Link) SendValues(dataBits int64, values int, fr *Framing) (wireless.Transfer, *frame.RxReport, error) {
	perValue := int64(0)
	if values > 0 {
		perValue = dataBits / int64(values)
	}
	if perValue <= 0 || wireless.Packets(dataBits) >= 256 {
		tr, retransmissions, err := l.send(dataBits)
		if l.Observer != nil {
			l.Observer(tr, retransmissions, err)
		}
		return tr, nil, err
	}
	tr, rx, retransmissions, err := l.sendValues(dataBits, values, perValue, fr)
	if l.Observer != nil {
		l.Observer(tr, retransmissions, err)
	}
	return tr, rx, err
}

func (l *Link) sendValues(dataBits int64, values int, perValue int64, fr *Framing) (wireless.Transfer, *frame.RxReport, int, error) {
	now := l.Clock.Now()
	st := l.Plan.At(now)
	var tr wireless.Transfer
	tr.DataBits = dataBits
	if st.LinkDown || st.HubDown {
		return tr, nil, 0, &ErrLinkDown{At: now, Until: l.Plan.LinkDownUntil(now)}
	}
	loss := l.BaseLoss
	if st.Loss > loss {
		loss = st.Loss
	}
	packets := wireless.Packets(dataBits)
	rx := &frame.RxReport{Frames: int(packets)}
	charge := func(bits int64) {
		tr.WireBits += bits
		tr.TxEnergy += float64(bits) * l.Model.TxJPerBit
		tr.RxEnergy += float64(bits) * l.Model.RxJPerBit
		tr.Delay += float64(bits) / l.Model.RateBps
	}
	retransmissions := 0

	if fr == nil {
		err := l.sendUnframed(dataBits, values, perValue, packets, loss, st, rx, charge, &retransmissions)
		return tr, rx, retransmissions, err
	}

	// Framed path: each packet wears frame.IntegrityBits of envelope.
	// Track arrival order so the reassembler — the same type the
	// receiver runs — recovers duplicates and reordering by sequence
	// number and pins what is genuinely missing. SendValues sends fewer
	// than 256 packets this way, each arriving at most twice.
	var buf [512]uint8
	arrivals := buf[:0]
	pendingSwap := false
	for p := int64(0); p < packets; p++ {
		payloadBits := int64(wireless.MaxPayloadBits)
		if rem := dataBits - p*wireless.MaxPayloadBits; rem < payloadBits {
			payloadBits = rem
		}
		frameBits := payloadBits + wireless.HeaderBits + frame.IntegrityBits
		delivered := false
		for attempt := 0; attempt <= l.MaxRetries; attempt++ {
			if attempt > 0 {
				retransmissions++
			}
			charge(frameBits)
			if loss > 0 && l.rng.Float64() < loss {
				continue // radio loss: retry
			}
			if st.BitErrorRate > 0 {
				pFlip := 1 - math.Pow(1-st.BitErrorRate, float64(frameBits))
				if l.rng.Float64() < pFlip {
					// CRC rejects the frame on arrival: the energy is
					// spent and the retry budget consumed, exactly as
					// if the radio had dropped it.
					rx.CorruptDetected++
					continue
				}
			}
			delivered = true
			break
		}
		if !delivered {
			continue // lost beyond the retry budget; impute downstream
		}
		arrivals = append(arrivals, uint8(p))
		if pendingSwap && len(arrivals) >= 2 {
			arrivals[len(arrivals)-1], arrivals[len(arrivals)-2] = arrivals[len(arrivals)-2], arrivals[len(arrivals)-1]
		}
		pendingSwap = false
		if st.DupRate > 0 && l.rng.Float64() < st.DupRate {
			charge(frameBits) // the duplicate burns air time too
			arrivals = append(arrivals, uint8(p))
		}
		if st.ReorderRate > 0 && p+1 < packets && l.rng.Float64() < st.ReorderRate {
			pendingSwap = true // this frame arrives after its successor
		}
	}

	var ra frame.Reassembler
	ra.Start(0) // the receiver knows streams start at sequence 0
	for _, s := range arrivals {
		ra.Observe(s)
	}
	_, dups, late := ra.Stats()
	rx.Duplicates, rx.Reordered = dups, late
	// A virtual end-of-burst marker: the receiver knows the expected
	// frame count, so frames lost off the tail are gaps too.
	ra.Observe(uint8(packets))
	missing := ra.Missing()
	rx.LostFrames = len(missing)
	if rx.LostFrames > 0 {
		if float64(rx.LostFrames) > fr.maxLossFraction()*float64(packets) {
			return tr, rx, retransmissions, &wireless.ErrDropped{Packet: int(missing[0])}
		}
		last := -1
		for _, m := range missing {
			lo, hi := valueSpan(int64(m), dataBits, perValue, values)
			for v := lo; v <= hi; v++ {
				if v > last {
					rx.Missing = append(rx.Missing, v)
					last = v
				}
			}
		}
	}
	return tr, rx, retransmissions, nil
}

// sendUnframed replays the legacy bare-wire format under corruption:
// no checksum, no sequence numbers, so every fault lands in the data.
func (l *Link) sendUnframed(dataBits int64, values int, perValue, packets int64, loss float64, st State, rx *frame.RxReport, charge func(int64), retransmissions *int) error {
	for p := int64(0); p < packets; p++ {
		payloadBits := int64(wireless.MaxPayloadBits)
		if rem := dataBits - p*wireless.MaxPayloadBits; rem < payloadBits {
			payloadBits = rem
		}
		bits := payloadBits + wireless.HeaderBits
		delivered := false
		flipPos := -1
		for attempt := 0; attempt <= l.MaxRetries; attempt++ {
			if attempt > 0 {
				*retransmissions++
			}
			charge(bits)
			if loss == 0 || l.rng.Float64() >= loss {
				delivered = true
				if st.BitErrorRate > 0 {
					pFlip := 1 - math.Pow(1-st.BitErrorRate, float64(bits))
					if l.rng.Float64() < pFlip {
						flipPos = l.rng.Intn(int(payloadBits))
					}
				}
				break
			}
		}
		if !delivered {
			return &wireless.ErrDropped{Packet: int(p)}
		}
		if flipPos >= 0 {
			// The flip lands in one value's code word and is consumed
			// as-is: the receiver has nothing to check it against.
			globalBit := p*wireless.MaxPayloadBits + int64(flipPos)
			vIdx := int(globalBit / perValue)
			if vIdx < values {
				if rx.CorruptValues == nil {
					rx.CorruptValues = make(map[int]uint64)
				}
				rx.CorruptValues[vIdx] ^= 1 << uint(globalBit%perValue)
				rx.CorruptDelivered++
			}
		}
		if st.DupRate > 0 && l.rng.Float64() < st.DupRate {
			charge(bits)
			rx.Duplicates++
			// Without sequence numbers the late copy overwrites the
			// successor's slots (a one-packet smear — the documented
			// simplification of an unsynchronized stream).
			if p+1 < packets {
				aLo, aHi := valueSpan(p, dataBits, perValue, values)
				bLo, bHi := valueSpan(p+1, dataBits, perValue, values)
				if rx.Moved == nil {
					rx.Moved = make(map[int]int)
				}
				for k := 0; bLo+k <= bHi && aLo+k <= aHi; k++ {
					rx.Moved[bLo+k] = aLo + k
				}
			}
		}
		if st.ReorderRate > 0 && p+1 < packets && l.rng.Float64() < st.ReorderRate {
			rx.Reordered++
			// Adjacent packets swap in flight; their value blocks swap
			// pairwise on the receive side.
			aLo, aHi := valueSpan(p, dataBits, perValue, values)
			bLo, bHi := valueSpan(p+1, dataBits, perValue, values)
			if rx.Moved == nil {
				rx.Moved = make(map[int]int)
			}
			for k := 0; aLo+k <= aHi && bLo+k <= bHi; k++ {
				rx.Moved[aLo+k], rx.Moved[bLo+k] = bLo+k, aLo+k
			}
		}
	}
	return nil
}

// valueSpan returns the inclusive range of value indices whose code
// words overlap packet p's payload bits.
func valueSpan(p, dataBits, perValue int64, values int) (int, int) {
	lo := p * wireless.MaxPayloadBits
	hi := lo + wireless.MaxPayloadBits - 1
	if end := dataBits - 1; hi > end {
		hi = end
	}
	vLo, vHi := int(lo/perValue), int(hi/perValue)
	if vHi >= values {
		vHi = values - 1
	}
	return vLo, vHi
}
