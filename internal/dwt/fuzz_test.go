package dwt

import (
	"math"
	"testing"
)

// FuzzRoundTrip feeds arbitrary byte patterns through decomposition and
// reconstruction: no panics, perfect reconstruction, energy preserved.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1), false)
	f.Add(make([]byte, 128), uint8(5), true)
	f.Add([]byte{255, 0, 255, 0}, uint8(9), false)
	f.Fuzz(func(t *testing.T, raw []byte, levelsRaw uint8, useDB4 bool) {
		// Build a signal; lengths are whatever the fuzzer hands us.
		x := make([]float64, len(raw))
		for i, b := range raw {
			x[i] = float64(b)/128 - 1
		}
		w := Haar
		if useDB4 {
			w = DB4
		}
		levels := int(levelsRaw%6) + 1
		dec, err := Decompose(w, x, levels)
		if err != nil {
			return // invalid shape: rejected, not crashed
		}
		back, err := reconstruct(dec)
		if err != nil {
			t.Fatalf("reconstruct failed after successful decompose: %v", err)
		}
		if len(back) != len(x) {
			t.Fatalf("length changed: %d → %d", len(x), len(back))
		}
		var ein, eback float64
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-8 {
				t.Fatalf("sample %d: %v != %v", i, back[i], x[i])
			}
			ein += x[i] * x[i]
		}
		for _, d := range dec.Details {
			for _, v := range d {
				eback += v * v
			}
		}
		for _, v := range dec.Approx {
			eback += v * v
		}
		if math.Abs(ein-eback) > 1e-6*(1+ein) {
			t.Fatalf("energy not preserved: %v vs %v", ein, eback)
		}
	})
}
