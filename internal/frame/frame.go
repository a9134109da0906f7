// Package frame models the data-integrity layer of the body-area link:
// every Q-quantized payload crossing the link is split into transceiver
// packets (internal/wireless), and each packet is wrapped in a frame
// carrying a sequence number, an explicit payload length and a
// CRC-16/CCITT checksum over header and payload.
//
// The paper's transceiver simulator (§4.2) charges an 8-bit header per
// packet but assumes every delivered packet is bit-perfect. Real
// implant-class radios at the 0.3–3 nJ/bit operating points the paper
// cites suffer residual bit errors, duplication and reordering; the
// frame layer is what turns those into detectable, repairable events:
//
//   - the CRC rejects corrupted frames, which are retried exactly like
//     losses (and charged the same energy);
//   - the sequence number lets the receiver-side Reassembler detect
//     gaps, duplicates and reordering without ground truth;
//   - samples lost beyond the retry budget are repaired by a pluggable
//     imputation policy (hold-last, linear, zero).
//
// The link is modeled, not run byte by byte: faults.Link draws each
// frame's fate and charges the envelope's IntegrityBits extra on-air
// bits per frame, priced through the same per-bit transceiver energy
// model as the payload.
package frame

const (
	// HeaderBytes is the frame header: sequence number + payload length.
	HeaderBytes = 2
	// TrailerBytes is the CRC-16 trailer.
	TrailerBytes = 2
	// IntegrityBits is the per-frame on-air overhead of the integrity
	// layer beyond the transceiver's own 8-bit packet header: 8-bit
	// sequence number, 8-bit length and 16-bit CRC.
	IntegrityBits = 8 * (HeaderBytes + TrailerBytes)
)
