package xpro

import (
	"fmt"
	"math"

	"xpro/internal/adaptive"
	"xpro/internal/partition"
)

// This file extends the durable record with the armed tier runtime's
// snapshot. The 117-byte v1 core stays exactly as it was — a 2-end
// engine encodes and decodes records that are bit-identical to every
// checkpoint written before tiers existed — and an armed TierPlan
// appends one optional extension block inside the same CRC envelope: a
// sub-magic, the ladder header, then one fixed-width record per hop,
// which opens with the same 21 link bytes as the core. Old readers
// reject extended records loudly (length check), never silently drop
// the hop state; new readers accept both shapes.

// tieredExtMagic opens the tiered extension block inside a durable
// payload, immediately after the v1 core.
var tieredExtMagic = []byte("XPTS")

const (
	// tieredExtHeaderBytes: modeled clock (f64), steady cap (u32),
	// collapse/recovery/rollback counters (3×u64), hop count (u32).
	tieredExtHeaderBytes = 8 + 4 + 3*8 + 4
	// tieredHopBytes: the link (breaker code, breaker failures,
	// opened-at, RNG draws: 1+4+8+8), ladder failures/successes
	// (2×u32), dead flag (1), next-probe-at and probe-interval (2×f64),
	// probation (u32), outage events (u64).
	tieredHopBytes = 1 + 4 + 8 + 8 + 4 + 4 + 1 + 8 + 8 + 4 + 8
	// maxTieredHops bounds a CRC-valid but hostile hop count; real
	// wearable chains are single digits.
	maxTieredHops = 64
	// maxDurablePayload is the largest payload either decoder accepts:
	// the v1 core plus a full-width tiered extension.
	maxDurablePayload = subjectStateBytes + len("XPTS") + tieredExtHeaderBytes + maxTieredHops*tieredHopBytes
)

// TieredStateBytes is the size the tiered extension adds to each
// checkpoint and journal record for a chain with the given hop count —
// the fleet capacity planner's other multiplication.
func TieredStateBytes(hops int) int {
	return len(tieredExtMagic) + tieredExtHeaderBytes + hops*tieredHopBytes
}

// tier writes the extension block.
func (w *wire) tier(ts *adaptive.TierState) {
	if n := len(ts.Hops); (n == 0 || n > maxTieredHops) && w.err == nil {
		w.err = fmt.Errorf("xpro: tiered state covers %d hops, want 1..%d", n, maxTieredHops)
	}
	w.buf = append(w.buf, tieredExtMagic...)
	w.f64(ts.ClockSeconds)
	w.count32(int(ts.Steady))
	w.count64(int64(ts.Collapses), math.MaxInt32)
	w.count64(int64(ts.Recoveries), math.MaxInt32)
	w.count64(int64(ts.Rollbacks), math.MaxInt32)
	w.count32(len(ts.Hops))
	for h := range ts.Hops {
		hs := &ts.Hops[h]
		w.link(hs.Breaker, hs.Draws)
		w.count32(hs.Health.Failures)
		w.count32(hs.Health.Successes)
		dead := byte(0)
		if hs.Health.Dead {
			dead = 1
		}
		w.buf = append(w.buf, dead)
		w.f64(hs.Health.NextProbeAt)
		w.f64(hs.Health.ProbeInterval)
		w.count32(hs.Health.Probation)
		w.u64(hs.Outages)
	}
}

// decodeTier parses one extension block's byte shape. Only canonical
// encodings decode (a dead flag of 2, a breaker code of 7 or a short
// hop table are corruption, not leniency), so decode→encode round-trips
// bit-identically — the property FuzzTieredRecover pins.
func decodeTier(buf []byte) (*adaptive.TierState, error) {
	if len(buf) < len(tieredExtMagic)+tieredExtHeaderBytes {
		return nil, fmt.Errorf("tiered extension truncated (%d bytes)", len(buf))
	}
	if string(buf[:len(tieredExtMagic)]) != string(tieredExtMagic) {
		return nil, fmt.Errorf("bad tiered extension magic")
	}
	r := reader{buf: buf, off: len(tieredExtMagic)}
	ts := &adaptive.TierState{}
	ts.ClockSeconds = r.f64()
	ts.Steady = partition.Tier(r.count32())
	ts.Collapses = int(r.count64(math.MaxInt32))
	ts.Recoveries = int(r.count64(math.MaxInt32))
	ts.Rollbacks = int(r.count64(math.MaxInt32))
	nhops := r.count32()
	if r.err != nil {
		return nil, r.err
	}
	if nhops == 0 || nhops > maxTieredHops {
		return nil, fmt.Errorf("tiered hop count %d outside 1..%d", nhops, maxTieredHops)
	}
	if len(buf)-r.off != nhops*tieredHopBytes {
		return nil, fmt.Errorf("tiered hop table is %d bytes, want %d for %d hops",
			len(buf)-r.off, nhops*tieredHopBytes, nhops)
	}
	ts.Hops = make([]adaptive.TierHopState, nhops)
	for h := range ts.Hops {
		hs := &ts.Hops[h]
		hs.Breaker, hs.Draws = r.link()
		hs.Health.Failures = r.count32()
		hs.Health.Successes = r.count32()
		switch dead := r.u8(); dead {
		case 0, 1:
			hs.Health.Dead = dead == 1
		default:
			r.failf("hop %d: invalid dead flag %d", h, dead)
		}
		hs.Health.NextProbeAt = r.f64()
		hs.Health.ProbeInterval = r.f64()
		hs.Health.Probation = r.count32()
		hs.Outages = r.u64()
	}
	if r.err != nil {
		return nil, r.err
	}
	return ts, nil
}

// recordLocked assembles the durable record: the 2-end runtime's
// snapshot and the root's ledgers, plus the armed tier runtime's
// snapshot. Caller holds r.mu; the plan lock nests strictly under it
// (r.mu → p.mu), and the tiered classify path never takes r.mu, so the
// order cannot invert.
func (r *resilient) recordLocked(e *Engine) record {
	rec := record{ledgers: r.ledgers, end: r.rt.Snapshot()}
	if tp := e.tier.Load(); tp != nil {
		tp.mu.Lock()
		ts := tp.rt.Snapshot()
		tp.mu.Unlock()
		rec.tier = &ts
	}
	return rec
}
