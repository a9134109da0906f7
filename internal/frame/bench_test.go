package frame

import "testing"

// The receive side of the integrity layer: imputing lost samples and
// tracking sequence numbers in the Reassembler.

func benchImpute(b *testing.B, p ImputePolicy) {
	vals := make([]float64, 256)
	miss := make([]bool, 256)
	for i := range vals {
		vals[i] = float64(i) / 256
		miss[i] = i%16 == 3 || i%16 == 4
	}
	scratch := make([]float64, len(vals))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(scratch, vals)
		Impute(scratch, miss, p)
	}
}

func BenchmarkImputeHoldLast(b *testing.B) { benchImpute(b, HoldLast) }
func BenchmarkImputeLinear(b *testing.B)   { benchImpute(b, Linear) }

func BenchmarkReassembler(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var r Reassembler
		for s := 0; s < 64; s++ {
			r.Observe(uint8(s))
		}
	}
}
