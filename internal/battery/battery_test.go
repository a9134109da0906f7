package battery

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSensorBatteryEnergy(t *testing.T) {
	b := SensorBattery()
	if b.CapacitymAh != 40 {
		t.Errorf("sensor battery = %v mAh, want 40 (§1)", b.CapacitymAh)
	}
	// 40 mAh × 3.7 V × 0.9 = 479.5 J.
	want := 0.040 * 3600 * 3.7 * 0.9
	if math.Abs(b.EnergyJ()-want) > 1e-9 {
		t.Errorf("energy = %v J, want %v", b.EnergyJ(), want)
	}
}

func TestAggregatorBattery(t *testing.T) {
	b := AggregatorBattery()
	if b.CapacitymAh != 2900 {
		t.Errorf("aggregator battery = %v mAh, want 2900 (§5.6)", b.CapacitymAh)
	}
}

func TestLifetime(t *testing.T) {
	b := Battery{CapacitymAh: 1000, Voltage: 3.6, UsableFrac: 1}
	// 3.6 Wh at 3.6 W → exactly 1 hour.
	d, err := b.Lifetime(3.6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Hours()-1) > 1e-9 {
		t.Errorf("lifetime = %v, want 1h", d)
	}
	h, err := b.LifetimeHours(3.6)
	if err != nil || math.Abs(h-1) > 1e-9 {
		t.Errorf("LifetimeHours = %v, %v", h, err)
	}
}

func TestLifetimeErrors(t *testing.T) {
	b := SensorBattery()
	if _, err := b.Lifetime(0); err == nil {
		t.Error("zero power should error")
	}
	if _, err := b.LifetimeHours(-1); err == nil {
		t.Error("negative power should error")
	}
}

// Property: lifetime is inversely proportional to power.
func TestQuickLifetimeInverse(t *testing.T) {
	b := SensorBattery()
	f := func(raw uint8) bool {
		p := float64(raw)/255*0.01 + 1e-6
		h1, err1 := b.LifetimeHours(p)
		h2, err2 := b.LifetimeHours(2 * p)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(h1/h2-2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
