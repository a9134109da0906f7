package xsystem

import (
	"math"
	"testing"

	"xpro/internal/partition"
	"xpro/internal/wireless"
)

func TestLossyInflatesWirelessOnly(t *testing.T) {
	f := getFixture(t)
	s := newSystem(t, f, partition.Trivial(f.graph))
	ch, err := wireless.NewChannel(wireless.Model2(), 0.25, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	clean := s.EnergyPerEvent()
	lossy := s.LossyEnergy(ch)
	factor := ch.ExpectedInflation()
	if factor <= 1 {
		t.Fatalf("inflation = %v", factor)
	}
	if math.Abs(lossy.SensorTx-clean.SensorTx*factor) > 1e-18 {
		t.Error("tx energy must inflate by the retransmission factor")
	}
	if lossy.SensorCompute != clean.SensorCompute || lossy.Sensing != clean.Sensing {
		t.Error("compute and sensing must not change under loss")
	}
}

func TestLossyShortensLifetime(t *testing.T) {
	f := getFixture(t)
	s := newSystem(t, f, partition.InAggregator(f.graph)) // wireless-dominated
	ch, err := wireless.NewChannel(wireless.Model2(), 0.3, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := s.SensorLifetimeHours()
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := s.LossyLifetimeHours(ch)
	if err != nil {
		t.Fatal(err)
	}
	if lossy >= clean {
		t.Errorf("lossy lifetime %v not shorter than clean %v", lossy, clean)
	}
	// The aggregator engine is nearly all wireless: a 30% loss rate
	// costs roughly 1/0.7 in energy.
	ratio := clean / lossy
	if ratio < 1.3 || ratio > 1.5 {
		t.Errorf("lifetime ratio %v, want ≈ 1.43 for a wireless-dominated engine", ratio)
	}
}

// Under heavy loss, a compute-heavy cut loses less lifetime than a
// transmission-heavy cut — the cross-end trade-off shifts toward the
// sensor.
func TestLossShiftsTradeoff(t *testing.T) {
	f := getFixture(t)
	sens := newSystem(t, f, partition.InSensor(f.graph))
	agg := newSystem(t, f, partition.InAggregator(f.graph))
	ch, err := wireless.NewChannel(wireless.Model2(), 0.4, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	lossSens := sens.LossyEnergy(ch).SensorTotal() / sens.EnergyPerEvent().SensorTotal()
	lossAgg := agg.LossyEnergy(ch).SensorTotal() / agg.EnergyPerEvent().SensorTotal()
	if lossSens >= lossAgg {
		t.Errorf("in-sensor penalty %v should be below in-aggregator %v", lossSens, lossAgg)
	}
}
