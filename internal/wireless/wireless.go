// Package wireless models the inter-end communication link of the XPro
// system: ultra-low-power medical-implant transceivers between the
// wearable sensor node and the data aggregator.
//
// The paper builds a transceiver simulator from the energy statistics of
// three published implantable radios (§4.2); this package uses those
// exact numbers:
//
//	Model 1 ("high-energy"):   2.9  nJ/bit tx, 3.3   nJ/bit rx  [Bohorquez et al.]
//	Model 2 ("medium-energy"): 1.53 nJ/bit tx, 1.71  nJ/bit rx  [Liu et al., ESSCIRC'11]
//	Model 3 ("low-energy"):    0.42 nJ/bit tx, 0.295 nJ/bit rx  [Liu et al., BioCAS'11]
//
// The simulator "employs a common communication protocol and considers
// an 8-bit header in each payload" (§4.2); packets here carry up to
// MaxPayloadBits of data plus that header. Bluetooth Low Energy is
// deliberately absent, as in the paper (orders of magnitude above the
// µW-level sensor budget).
package wireless

import (
	"fmt"
	"math/rand"
)

// HeaderBits is the protocol header per payload (§4.2).
const HeaderBits = 8

// MaxPayloadBits is the largest data payload carried per packet.
const MaxPayloadBits = 256

// SampleBits is the wire width of one raw ADC sample (the biosignal
// front end digitizes at 16 bits; cf. the 8-bit 1-V SAR ADC class the
// paper cites for biosignal acquisition, widened to the 16-bit samples
// XPro's 32-bit fixed-point cells consume).
const SampleBits = 16

// ValueBits is the wire width of one computed value (DWT coefficient,
// SVM score, fused result). Cells compute in 32-bit Q16.16 (§4.4) but
// quantize payloads to Q8.8 on the wire: DWT coefficients of a [0, 1]
// segment stay within ±2^7, so 16 bits preserve classification
// behaviour at half the transmission energy.
const ValueBits = 16

// FeatureBits is the wire width of one statistical feature value. §4.4:
// "All the statistical features are normalized to range [0, 1]", so a
// feature payload quantizes to Q0.8 — a single byte.
const FeatureBits = 8

// Model is a wireless transceiver energy/rate model.
type Model struct {
	Name      string
	Index     int     // 1-based paper index
	TxJPerBit float64 // transmit energy per bit (J)
	RxJPerBit float64 // receive energy per bit (J)
	RateBps   float64 // air data rate
}

// Model1 is the 350µW MSK / 400µW OOK design: 2.9/3.3 nJ/bit at 2 Mb/s.
func Model1() Model {
	return Model{Name: "high-energy", Index: 1, TxJPerBit: 2.9e-9, RxJPerBit: 3.3e-9, RateBps: 2e6}
}

// Model2 is the current-reuse inductor-sharing design: 1.53/1.71 nJ/bit.
func Model2() Model {
	return Model{Name: "medium-energy", Index: 2, TxJPerBit: 1.53e-9, RxJPerBit: 1.71e-9, RateBps: 2e6}
}

// Model3 is the optimized implantable OOK transceiver: 0.42/0.295 nJ/bit.
func Model3() Model {
	return Model{Name: "low-energy", Index: 3, TxJPerBit: 0.42e-9, RxJPerBit: 0.295e-9, RateBps: 2e6}
}

// Models returns the three paper models in order.
func Models() []Model { return []Model{Model1(), Model2(), Model3()} }

func (m Model) String() string {
	return fmt.Sprintf("model%d(%s, %.3g/%.3g nJ/bit)", m.Index, m.Name, m.TxJPerBit*1e9, m.RxJPerBit*1e9)
}

// Packets returns the number of packets needed for dataBits of payload.
func Packets(dataBits int64) int64 {
	if dataBits <= 0 {
		return 0
	}
	return (dataBits + MaxPayloadBits - 1) / MaxPayloadBits
}

// WireBits returns the total on-air bits for dataBits of payload,
// including one header per packet.
func WireBits(dataBits int64) int64 {
	return dataBits + Packets(dataBits)*HeaderBits
}

// Transfer is the cost of moving one payload across the link.
type Transfer struct {
	DataBits int64
	WireBits int64
	// TxEnergy is paid by the transmitting end, RxEnergy by the
	// receiving end (Eq. 3: Ew = Nt·B·Ct + Nr·B·Cr).
	TxEnergy float64
	RxEnergy float64
	// Delay is the air time.
	Delay float64
}

// Cost returns the energy/delay of sending dataBits over the link.
// Zero-size payloads cost nothing (no packet is sent).
func (m Model) Cost(dataBits int64) Transfer {
	wire := WireBits(dataBits)
	return Transfer{
		DataBits: dataBits,
		WireBits: wire,
		TxEnergy: float64(wire) * m.TxJPerBit,
		RxEnergy: float64(wire) * m.RxJPerBit,
		Delay:    float64(wire) / m.RateBps,
	}
}

// Channel is a lossy link extension: packets are lost independently with
// probability Loss and retransmitted up to MaxRetries times each. The
// paper's evaluation assumes a clean channel; Channel quantifies how the
// cross-end trade-off degrades on a noisy body-area link.
type Channel struct {
	Model
	Loss       float64
	MaxRetries int
	rng        *rand.Rand
}

// NewChannel creates a lossy channel. loss must be in [0, 1).
func NewChannel(m Model, loss float64, maxRetries int, seed int64) (*Channel, error) {
	// The negated form also rejects NaN, which fails every comparison.
	if !(loss >= 0 && loss < 1) {
		return nil, fmt.Errorf("wireless: loss probability %v outside [0,1)", loss)
	}
	if maxRetries < 0 {
		return nil, fmt.Errorf("wireless: negative retry limit %d", maxRetries)
	}
	return &Channel{Model: m, Loss: loss, MaxRetries: maxRetries, rng: rand.New(rand.NewSource(seed))}, nil
}

// ErrDropped reports a payload that exhausted its retries.
type ErrDropped struct {
	Packet int
}

func (e *ErrDropped) Error() string {
	return fmt.Sprintf("wireless: packet %d dropped after retries", e.Packet)
}

// Send simulates transferring dataBits over the lossy channel. The
// returned Transfer accounts for every (re)transmission actually made;
// on drop, the partial cost is still returned with the error.
func (c *Channel) Send(dataBits int64) (Transfer, error) {
	tr, _, err := c.SendStats(dataBits)
	return tr, err
}

// SendStats is Send plus the number of retransmissions actually made:
// packet attempts beyond each packet's first. On drop, the partial cost
// and retransmission count are still returned with the error.
func (c *Channel) SendStats(dataBits int64) (tr Transfer, retransmissions int, err error) {
	packets := Packets(dataBits)
	tr.DataBits = dataBits
	for p := int64(0); p < packets; p++ {
		bits := int64(MaxPayloadBits)
		if rem := dataBits - p*MaxPayloadBits; rem < bits {
			bits = rem
		}
		bits += HeaderBits
		delivered := false
		for attempt := 0; attempt <= c.MaxRetries; attempt++ {
			if attempt > 0 {
				retransmissions++
			}
			tr.WireBits += bits
			tr.TxEnergy += float64(bits) * c.TxJPerBit
			tr.RxEnergy += float64(bits) * c.RxJPerBit
			tr.Delay += float64(bits) / c.RateBps
			if c.rng.Float64() >= c.Loss {
				delivered = true
				break
			}
		}
		if !delivered {
			return tr, retransmissions, &ErrDropped{Packet: int(p)}
		}
	}
	return tr, retransmissions, nil
}

// ExpectedInflation returns the mean retransmission factor of the lossy
// channel: 1/(1−loss), capped by the retry limit.
func (c *Channel) ExpectedInflation() float64 {
	if c.Loss == 0 {
		return 1
	}
	// Geometric series truncated at MaxRetries+1 attempts.
	exp := 0.0
	p := 1.0
	for i := 0; i <= c.MaxRetries; i++ {
		exp += p
		p *= c.Loss
	}
	return exp
}
