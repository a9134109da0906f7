package xpro

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"

	"xpro/internal/aggregator"
	"xpro/internal/biosig"
	"xpro/internal/ensemble"
	"xpro/internal/partition"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/xsystem"
)

// persistVersion guards the on-disk format.
const persistVersion = 1

// snapshotMagic opens the checksummed snapshot envelope: magic, then
// the gob payload, then a big-endian CRC-32 (IEEE) of the payload.
var snapshotMagic = []byte("xprosnap\x01")

// SnapshotIntegrityError reports a snapshot whose payload does not
// match its stored checksum — a truncated or bit-rotted file.
type SnapshotIntegrityError struct {
	// Want is the checksum stored in the envelope; Got is the checksum
	// of the payload as read.
	Want, Got uint32
}

func (e *SnapshotIntegrityError) Error() string {
	return fmt.Sprintf("xpro: snapshot checksum mismatch (stored %#08x, computed %#08x): file is corrupt or truncated", e.Want, e.Got)
}

// enginePersist is the serialized form of an Engine: the trained
// classifier and the generated placement. Datasets are regenerated
// deterministically from the configuration on load, so snapshots stay
// small (support vectors dominate).
type enginePersist struct {
	Version   int
	Config    Config
	Ens       *ensemble.Ensemble
	Gen       partition.Result
	Placement partition.Placement
	Accuracy  float64
}

// Save writes the engine (trained classifier + placement) to w in a
// self-contained binary format readable by Load: a magic header, the
// gob payload, and a trailing CRC-32 so at-rest corruption is detected
// at load time instead of surfacing as a garbled classifier. Training
// is the expensive part of New; a saved engine restores in
// milliseconds.
//
// Save persists the shared immutable artifact only. The per-subject
// mutable core — clock, breaker, RNG cursor, estimator, ledgers —
// lives in the much smaller SubjectState record under the same
// CRC-envelope discipline: see Engine.Checkpoint / Engine.Recover
// (recovery.go) for crash–restart durability.
func (e *Engine) Save(w io.Writer) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(enginePersist{
		Version:   persistVersion,
		Config:    e.cfg,
		Ens:       e.ens,
		Gen:       e.gen,
		Placement: e.sys().Placement,
		Accuracy:  e.acc,
	}); err != nil {
		return err
	}
	if _, err := w.Write(snapshotMagic); err != nil {
		return err
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return err
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload.Bytes()))
	_, err := w.Write(sum[:])
	return err
}

// Load restores an engine saved with Save: the envelope checksum is
// verified (mismatches return *SnapshotIntegrityError), then the
// topology and simulated hardware are rebuilt from the snapshot's
// classifier and placement, and the held-out test set is regenerated
// deterministically from the saved configuration. Input without the
// envelope's magic is refused.
func Load(r io.Reader) (*Engine, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xpro: reading snapshot: %w", err)
	}
	if !bytes.HasPrefix(buf, snapshotMagic) {
		return nil, fmt.Errorf("xpro: not an engine snapshot (bad magic)")
	}
	body := buf[len(snapshotMagic):]
	if len(body) < 4 {
		return nil, fmt.Errorf("xpro: snapshot truncated inside the envelope (%d bytes)", len(buf))
	}
	payload, sum := body[:len(body)-4], body[len(body)-4:]
	want := binary.BigEndian.Uint32(sum)
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, &SnapshotIntegrityError{Want: want, Got: got}
	}
	var ep enginePersist
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ep); err != nil {
		return nil, fmt.Errorf("xpro: decoding engine: %w", err)
	}
	if ep.Version > persistVersion {
		return nil, fmt.Errorf("xpro: snapshot version %d is newer than this build supports (max %d); update xpro or re-save the engine with this version", ep.Version, persistVersion)
	}
	if ep.Version != persistVersion {
		return nil, fmt.Errorf("xpro: snapshot version %d, this build reads %d", ep.Version, persistVersion)
	}
	if ep.Ens == nil {
		return nil, fmt.Errorf("xpro: snapshot has no classifier")
	}
	if err := ep.Ens.Validate(); err != nil {
		return nil, fmt.Errorf("xpro: snapshot classifier: %w", err)
	}
	cfg := ep.Config
	spec, err := biosig.CaseBySymbol(cfg.Case)
	if err != nil {
		return nil, err
	}
	seed := spec.Seed
	if cfg.Seed != 0 {
		seed = cfg.Seed
	}
	d := biosig.Generate(spec)
	rng := rand.New(rand.NewSource(seed))
	_, test := d.Split(0.75, rng)

	g, err := topology.Build(ep.Ens, d.SegLen)
	if err != nil {
		return nil, err
	}
	if len(ep.Placement) != len(g.Cells) {
		return nil, fmt.Errorf("xpro: snapshot placement covers %d cells, rebuilt topology has %d", len(ep.Placement), len(g.Cells))
	}
	sys, err := xsystem.New(g, ep.Ens, cfg.Process.internal(), cfg.Wireless.internal(),
		aggregator.CortexA8(), ep.Placement, cfg.SampleRateHz)
	if err != nil {
		return nil, err
	}
	obs := newObserver(telemetry.DefaultTraceCapacity)
	attachObserver(sys, obs)
	return newEngine(cfg, sys, ep.Ens, g, test, ep.Gen, ep.Accuracy, obs)
}
