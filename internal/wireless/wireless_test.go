package wireless

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestPaperModelConstants(t *testing.T) {
	// §4.2: the exact nJ/bit figures of the three implantable radios.
	m := Models()
	if len(m) != 3 {
		t.Fatalf("models = %d, want 3", len(m))
	}
	want := []struct{ tx, rx float64 }{
		{2.9e-9, 3.3e-9},
		{1.53e-9, 1.71e-9},
		{0.42e-9, 0.295e-9},
	}
	for i, w := range want {
		if m[i].TxJPerBit != w.tx || m[i].RxJPerBit != w.rx {
			t.Errorf("model %d: (%v,%v), want (%v,%v)", i+1, m[i].TxJPerBit, m[i].RxJPerBit, w.tx, w.rx)
		}
		if m[i].Index != i+1 {
			t.Errorf("model index = %d, want %d", m[i].Index, i+1)
		}
		if m[i].RateBps != 2e6 {
			t.Errorf("model %d rate = %v, want 2 Mb/s", i+1, m[i].RateBps)
		}
	}
	if m[0].TxJPerBit != 2.9e-9 || m[0].RxJPerBit != 3.3e-9 {
		t.Error("per-bit constants wrong")
	}
}

func TestPackets(t *testing.T) {
	cases := []struct {
		data, packets, wire int64
	}{
		{0, 0, 0},
		{1, 1, 9},
		{256, 1, 264},
		{257, 2, 273},
		{2048, 8, 2112}, // a 128-sample × 16-bit raw segment
	}
	for _, c := range cases {
		if got := Packets(c.data); got != c.packets {
			t.Errorf("Packets(%d) = %d, want %d", c.data, got, c.packets)
		}
		if got := WireBits(c.data); got != c.wire {
			t.Errorf("WireBits(%d) = %d, want %d", c.data, got, c.wire)
		}
	}
}

func TestCost(t *testing.T) {
	m := Model2()
	tr := m.Cost(256)
	if tr.WireBits != 264 {
		t.Fatalf("wire bits = %d", tr.WireBits)
	}
	if math.Abs(tr.TxEnergy-264*1.53e-9) > 1e-18 {
		t.Errorf("tx energy = %v", tr.TxEnergy)
	}
	if math.Abs(tr.RxEnergy-264*1.71e-9) > 1e-18 {
		t.Errorf("rx energy = %v", tr.RxEnergy)
	}
	if math.Abs(tr.Delay-264/2e6) > 1e-15 {
		t.Errorf("delay = %v", tr.Delay)
	}
	zero := m.Cost(0)
	if zero.TxEnergy != 0 || zero.Delay != 0 || zero.WireBits != 0 {
		t.Error("zero payload should cost nothing")
	}
}

func TestModelOrdering(t *testing.T) {
	// Model 1 > Model 2 > Model 3 on both tx and rx energy.
	ms := Models()
	for i := 0; i < len(ms)-1; i++ {
		if ms[i].TxJPerBit <= ms[i+1].TxJPerBit || ms[i].RxJPerBit <= ms[i+1].RxJPerBit {
			t.Errorf("model %d should cost more than model %d", i+1, i+2)
		}
	}
}

func TestChannelLossless(t *testing.T) {
	ch, err := NewChannel(Model2(), 0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ch.Send(1000)
	if err != nil {
		t.Fatal(err)
	}
	want := Model2().Cost(1000)
	if tr.WireBits != want.WireBits || math.Abs(tr.TxEnergy-want.TxEnergy) > 1e-12*want.TxEnergy {
		t.Errorf("lossless channel cost %+v, want %+v", tr, want)
	}
	if ch.ExpectedInflation() != 1 {
		t.Error("lossless inflation should be 1")
	}
}

func TestChannelLossyInflates(t *testing.T) {
	ch, err := NewChannel(Model2(), 0.3, 50, 42)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	n := 200
	for i := 0; i < n; i++ {
		tr, err := ch.Send(2048)
		if err != nil {
			t.Fatal(err)
		}
		total += float64(tr.WireBits)
	}
	clean := float64(WireBits(2048))
	inflation := total / (float64(n) * clean)
	// Expected ≈ 1/(1−0.3) ≈ 1.43.
	if inflation < 1.25 || inflation > 1.65 {
		t.Errorf("observed inflation %v, want ≈ 1.43", inflation)
	}
	if e := ch.ExpectedInflation(); math.Abs(e-1/(1-0.3)) > 0.01 {
		t.Errorf("expected inflation %v, want ≈ 1.43", e)
	}
}

func TestChannelDrops(t *testing.T) {
	ch, err := NewChannel(Model3(), 0.95, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	dropped := false
	for i := 0; i < 50 && !dropped; i++ {
		_, err := ch.Send(2048)
		var de *ErrDropped
		if errors.As(err, &de) {
			dropped = true
			if de.Error() == "" {
				t.Error("empty drop error message")
			}
		}
	}
	if !dropped {
		t.Error("95% loss with no retries should drop within 50 sends")
	}
}

func TestChannelValidation(t *testing.T) {
	if _, err := NewChannel(Model1(), -0.1, 1, 1); err == nil {
		t.Error("negative loss should error")
	}
	if _, err := NewChannel(Model1(), 1.0, 1, 1); err == nil {
		t.Error("loss=1 should error")
	}
	if _, err := NewChannel(Model1(), 0.1, -1, 1); err == nil {
		t.Error("negative retries should error")
	}
}

func TestStringer(t *testing.T) {
	s := Model2().String()
	if s == "" || s[:6] != "model2" {
		t.Errorf("model string = %q", s)
	}
}

// Property: wire bits are monotone in payload and never less than the
// payload itself; header overhead is bounded by one header per
// MaxPayloadBits.
func TestQuickWireBits(t *testing.T) {
	f := func(raw uint16) bool {
		d := int64(raw)
		w := WireBits(d)
		if w < d {
			return false
		}
		if d > 0 && w > d+((d/MaxPayloadBits)+1)*HeaderBits {
			return false
		}
		return WireBits(d+1) >= w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: cost scales linearly with wire bits for every model.
func TestQuickCostLinear(t *testing.T) {
	f := func(raw uint16, mi uint8) bool {
		d := int64(raw) + 1
		m := Models()[int(mi)%3]
		tr := m.Cost(d)
		wantTx := float64(WireBits(d)) * m.TxJPerBit
		return math.Abs(tr.TxEnergy-wantTx) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCost(b *testing.B) {
	m := Model2()
	for i := 0; i < b.N; i++ {
		_ = m.Cost(2048)
	}
}

func TestNewChannelRejectsNaN(t *testing.T) {
	// NaN fails every comparison, so naive range checks let it through;
	// the constructor must reject it explicitly.
	if _, err := NewChannel(Model2(), math.NaN(), 3, 1); err == nil {
		t.Error("NaN loss should be rejected")
	}
	for _, loss := range []float64{-0.1, 1, 1.5, math.Inf(1)} {
		if _, err := NewChannel(Model2(), loss, 3, 1); err == nil {
			t.Errorf("loss %v should be rejected", loss)
		}
	}
	if _, err := NewChannel(Model2(), 0.999, 3, 1); err != nil {
		t.Errorf("loss just under 1 should be accepted: %v", err)
	}
}

// On a drop, SendStats must still return the partial transfer cost and
// the retransmissions actually made alongside the error — callers
// account the energy of the failed attempts too.
func TestSendStatsPartialCostOnDrop(t *testing.T) {
	ch, err := NewChannel(Model2(), 0.9999, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	tr, retrans, err := ch.SendStats(1000)
	var dropped *ErrDropped
	if !errors.As(err, &dropped) {
		t.Fatalf("err = %v, want *ErrDropped", err)
	}
	if tr.WireBits == 0 || tr.TxEnergy == 0 || tr.RxEnergy == 0 || tr.Delay == 0 {
		t.Errorf("partial transfer not accounted: %+v", tr)
	}
	if retrans == 0 {
		t.Error("near-certain loss should have retransmitted before dropping")
	}
	// Every attempt (first tries + observed retransmissions) is on the
	// wire, each at least one header longer than its payload share.
	attempts := int64(retrans) + 1
	if tr.WireBits < attempts*HeaderBits {
		t.Errorf("wire bits %d inconsistent with %d attempts", tr.WireBits, attempts)
	}
}

func TestSendStatsCleanNoRetransmissions(t *testing.T) {
	ch, err := NewChannel(Model2(), 0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, retrans, err := ch.SendStats(512)
	if err != nil || retrans != 0 {
		t.Fatalf("clean channel: err=%v retrans=%d", err, retrans)
	}
	if want := Model2().Cost(512); tr != want {
		t.Errorf("clean transfer %+v, want %+v", tr, want)
	}
}
