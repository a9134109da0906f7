package xpro

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"xpro/internal/ensemble"
	"xpro/internal/partition"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	orig, err := New(Config{Case: "M2"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty snapshot")
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Reports must be identical: same classifier, same placement, same
	// models.
	a, b := orig.Report(), restored.Report()
	if a != b {
		t.Errorf("reports differ:\n  orig     %+v\n  restored %+v", a, b)
	}

	// Classifications must match on the (regenerated) test set.
	testSet := orig.TestSet()
	restoredSet := restored.TestSet()
	if len(testSet) != len(restoredSet) {
		t.Fatalf("test sets differ in size: %d vs %d", len(testSet), len(restoredSet))
	}
	for i := 0; i < 50; i++ {
		if testSet[i].Label != restoredSet[i].Label {
			t.Fatal("test set regeneration diverged")
		}
		x, err := orig.Classify(testSet[i].Samples)
		if err != nil {
			t.Fatal(err)
		}
		y, err := restored.Classify(restoredSet[i].Samples)
		if err != nil {
			t.Fatal(err)
		}
		if x != y {
			t.Fatalf("segment %d: original %d != restored %d", i, x, y)
		}
	}

	// Placements identical cell by cell.
	pa, pb := orig.Placement(), restored.Placement()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("cell %d placement differs: %+v vs %+v", i, pa[i], pb[i])
		}
	}
}

func TestLoadDetectsCorruptSnapshot(t *testing.T) {
	eng, err := New(Config{Case: "M2"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), snapshotMagic) {
		t.Fatal("Save must write the checksummed envelope")
	}
	// Flip one payload byte: Load must return the typed integrity error,
	// not a gob decode failure or a silently wrong engine.
	for _, pos := range []int{len(snapshotMagic) + 40, buf.Len() / 2, buf.Len() - 5} {
		dirty := append([]byte(nil), buf.Bytes()...)
		dirty[pos] ^= 0x20
		_, err := Load(bytes.NewReader(dirty))
		var integ *SnapshotIntegrityError
		if !errors.As(err, &integ) {
			t.Fatalf("flip at byte %d: err = %v, want *SnapshotIntegrityError", pos, err)
		}
		if integ.Want == integ.Got {
			t.Fatalf("flip at byte %d: error reports matching checksums %#08x", pos, integ.Want)
		}
	}
	// Truncation inside the envelope fails cleanly too.
	if _, err := Load(bytes.NewReader(buf.Bytes()[:len(snapshotMagic)+2])); err == nil {
		t.Fatal("truncated envelope must fail")
	}
}

// Snapshots written before the checksummed envelope are bare gob; they
// are refused, not decoded without a checksum.
func TestLoadRejectsBareGob(t *testing.T) {
	eng, err := New(Config{Case: "M2"})
	if err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(enginePersist{
		Version:   persistVersion,
		Config:    eng.cfg,
		Ens:       eng.ens,
		Gen:       eng.gen,
		Placement: eng.sys().Placement,
		Accuracy:  eng.acc,
	}); err != nil {
		t.Fatal(err)
	}
	enveloped := sealSnapshot(legacy.Bytes())
	restored, err := Load(&legacy)
	if err == nil || restored != nil {
		t.Fatalf("bare-gob snapshot: Load returned engine %t and error %v, want only an error", restored != nil, err)
	}
	// The same payload inside the envelope loads.
	if _, err := Load(bytes.NewReader(enveloped)); err != nil {
		t.Fatalf("enveloped payload failed to load: %v", err)
	}
}

// sealSnapshot wraps a gob payload in the envelope Save writes.
func sealSnapshot(payload []byte) []byte {
	snap := append(append([]byte(nil), snapshotMagic...), payload...)
	return binary.BigEndian.AppendUint32(snap, crc32.ChecksumIEEE(payload))
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage should fail to decode")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	eng, err := New(Config{Case: "C1", Kind: InSensor})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the version by re-encoding with a bumped constant is not
	// possible from here; instead verify the happy path asserts the
	// version field by checking a truncated stream fails cleanly.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated snapshot should fail")
	}
}

func TestLoadRejectsNewerVersion(t *testing.T) {
	// A snapshot written by a future xpro must be refused with an error
	// that names both versions, not misread as the current format.
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(enginePersist{
		Version: persistVersion + 1,
		Config:  Config{Case: "C1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(bytes.NewReader(sealSnapshot(buf.Bytes())))
	if err == nil {
		t.Fatal("newer snapshot version must be rejected")
	}
	msg := err.Error()
	if !strings.Contains(msg, "newer than this build supports") {
		t.Errorf("error should say the snapshot is too new: %q", msg)
	}
	if !strings.Contains(msg, fmt.Sprint(persistVersion+1)) || !strings.Contains(msg, fmt.Sprintf("max %d", persistVersion)) {
		t.Errorf("error should name both versions: %q", msg)
	}
}

// A snapshot whose checksum is intact but whose classifier has the
// wrong shape must fail to load, not panic while the topology is built
// or an event is scored.
func TestLoadRejectsMalformedClassifier(t *testing.T) {
	eng, err := New(Config{Case: "C1"})
	if err != nil {
		t.Fatal(err)
	}
	for name, spoil := range map[string]func(e *ensemble.Ensemble){
		"nil model":          func(e *ensemble.Ensemble) { e.Bases[0].Model = nil },
		"no fusion bias":     func(e *ensemble.Ensemble) { e.Weights = e.Weights[:len(e.Bases)] },
		"short norm":         func(e *ensemble.Ensemble) { e.Norm = e.Norm[:1] },
		"coefficients":       func(e *ensemble.Ensemble) { e.Bases[0].Model.Coeffs = nil },
		"vector width":       func(e *ensemble.Ensemble) { e.Bases[0].Model.Vectors[0] = nil },
		"unknown feature":    func(e *ensemble.Ensemble) { e.Bases[0].Subset[0].Domain = 99 },
		"unknown kernel":     func(e *ensemble.Ensemble) { e.Bases[0].Model.Kernel = 9 },
		"empty feature list": func(e *ensemble.Ensemble) { e.Bases[0].Subset = nil },
	} {
		// A gob round trip deep-copies the trained ensemble.
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(eng.ens); err != nil {
			t.Fatal(err)
		}
		var ens ensemble.Ensemble
		if err := gob.NewDecoder(&buf).Decode(&ens); err != nil {
			t.Fatal(err)
		}
		if len(ens.Bases[0].Model.Vectors) == 0 {
			t.Fatal("base 0 has no support vectors; the vector cases would test nothing")
		}
		spoil(&ens)
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(enginePersist{
			Version: persistVersion, Config: eng.cfg, Ens: &ens, Gen: eng.gen,
			Placement: eng.sys().Placement, Accuracy: eng.acc,
		}); err != nil {
			t.Fatal(err)
		}
		restored, err := Load(bytes.NewReader(sealSnapshot(payload.Bytes())))
		if err == nil || restored != nil {
			t.Errorf("%s: Load returned engine %t and error %v, want only an error", name, restored != nil, err)
		}
	}
}

// A snapshot whose checksum is intact but whose placement is not a
// 2-end placement — a cell on an end that does not exist, or the
// source readers split across ends — must fail to load instead of
// running the cell somewhere the engine cannot name.
func TestLoadRejectsInvalidPlacement(t *testing.T) {
	eng, err := New(Config{Case: "C1", Kind: InSensor})
	if err != nil {
		t.Fatal(err)
	}
	readers := eng.graph.SourceReaders()
	if len(readers) < 2 {
		t.Fatalf("C1 has %d source readers, need two to split them", len(readers))
	}
	outOfRange := append(partition.Placement(nil), eng.sys().Placement...)
	outOfRange[0] = partition.End(7)
	split := append(partition.Placement(nil), eng.sys().Placement...)
	split[readers[1]] = 1 - split[readers[0]]
	for name, p := range map[string]partition.Placement{"end 7": outOfRange, "split readers": split} {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(enginePersist{
			Version:   persistVersion,
			Config:    eng.cfg,
			Ens:       eng.ens,
			Gen:       eng.gen,
			Placement: p,
			Accuracy:  eng.acc,
		}); err != nil {
			t.Fatal(err)
		}
		restored, err := Load(bytes.NewReader(sealSnapshot(payload.Bytes())))
		if err == nil || restored != nil {
			t.Fatalf("%s: Load returned engine %t and error %v, want only an error", name, restored != nil, err)
		}
		var integ *SnapshotIntegrityError
		if errors.As(err, &integ) {
			t.Fatalf("%s: checksum rejected (%v); the crafted envelope must be valid", name, err)
		}
	}
}
