package xsystem

import "xpro/internal/wireless"

// This file extends the system model to lossy body-area links. The
// paper's evaluation assumes a clean channel; real on-body links drop
// packets, and every retransmission costs the sensor transmit energy and
// air time. The expected-cost model below scales the wireless terms of
// the energy breakdown by the channel's mean retransmission factor,
// quantifying how the cross-end trade-off shifts: under loss, cuts that
// move more data lose ground to compute-heavy cuts.

// LossyEnergy returns the per-event energy breakdown when the link runs
// over ch: both ends' wireless terms inflate by the expected
// retransmission factor; compute and sensing are unchanged.
func (s *System) LossyEnergy(ch *wireless.Channel) Energy {
	e := s.EnergyPerEvent()
	f := ch.ExpectedInflation()
	e.SensorTx *= f
	e.SensorRx *= f
	e.AggRx *= f
	e.AggTx *= f
	return e
}

// LossyLifetimeHours estimates sensor battery life over ch.
func (s *System) LossyLifetimeHours(ch *wireless.Channel) (float64, error) {
	avg := s.LossyEnergy(ch).SensorTotal() * s.EventsPerSecond()
	return sensorLifetime(avg)
}
