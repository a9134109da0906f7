// Package battery estimates battery lifetime for the wearable sensor
// node and the data aggregator.
//
// The paper follows the polymer Li-ion electrical battery model of Chen
// and Rincon-Mora to estimate sensor-node lifetime (§5.1) with the 40 mAh
// cell typical of ECG wristbands (§1) and a 2900 mAh iPhone-7-class
// battery for the aggregator (§5.6). This package implements the
// first-order form of that model: usable energy = capacity × voltage ×
// usable fraction, lifetime = usable energy / average power. All the
// paper's lifetime figures are reported normalized, which this form
// preserves exactly.
package battery

import (
	"fmt"
	"time"
)

// Battery is a battery pack model.
type Battery struct {
	// CapacitymAh is the rated capacity.
	CapacitymAh float64
	// Voltage is the nominal cell voltage.
	Voltage float64
	// UsableFrac derates the rated capacity for cutoff voltage and
	// rate effects (the Chen/Rincon-Mora model's usable-charge term).
	UsableFrac float64
}

// SensorBattery returns the 40 mAh wearable-node battery (§1).
func SensorBattery() Battery {
	return Battery{CapacitymAh: 40, Voltage: 3.7, UsableFrac: 0.9}
}

// AggregatorBattery returns the 2900 mAh smartphone battery (§5.6).
func AggregatorBattery() Battery {
	return Battery{CapacitymAh: 2900, Voltage: 3.5, UsableFrac: 0.9}
}

// EnergyJ returns the usable energy in joules.
func (b Battery) EnergyJ() float64 {
	return b.CapacitymAh / 1000 * 3600 * b.Voltage * b.UsableFrac
}

// Lifetime returns how long the battery sustains the given average
// power draw. Non-positive power returns an error (a zero-power system
// would report infinite lifetime, which is always a modeling bug here).
func (b Battery) Lifetime(avgPowerW float64) (time.Duration, error) {
	if avgPowerW <= 0 {
		return 0, fmt.Errorf("battery: non-positive average power %v W", avgPowerW)
	}
	seconds := b.EnergyJ() / avgPowerW
	return time.Duration(seconds * float64(time.Second)), nil
}

// LifetimeHours is Lifetime in hours, for report tables.
func (b Battery) LifetimeHours(avgPowerW float64) (float64, error) {
	d, err := b.Lifetime(avgPowerW)
	if err != nil {
		return 0, err
	}
	return d.Hours(), nil
}
