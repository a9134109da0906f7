package xpro

import (
	"bytes"
	"testing"
)

// FuzzLoad feeds Load corrupt, truncated and hostile snapshot bytes: it
// must return an error — never panic, never hand back a broken engine.
// The corpus seeds a valid snapshot plus systematic corruptions of it.
// Each input is also loaded as a payload inside a valid envelope, so
// the gob decoder and the engine rebuild stay under the fuzzer behind
// the checksum.
func FuzzLoad(f *testing.F) {
	eng, err := New(Config{Case: "C1"})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:1])
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	corrupt := append([]byte(nil), valid...)
	for i := 10; i < len(corrupt); i += 97 {
		corrupt[i] ^= 0xff
	}
	f.Add(corrupt)
	f.Add(valid[len(snapshotMagic) : len(valid)-4]) // the bare gob payload

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, snap := range [][]byte{data, sealSnapshot(data)} {
			eng, err := Load(bytes.NewReader(snap))
			if err != nil {
				if eng != nil {
					t.Error("Load returned both an engine and an error")
				}
				continue
			}
			if eng == nil {
				t.Fatal("Load returned nil engine without error")
			}
			// A snapshot that decodes must restore a usable engine.
			test := eng.TestSet()
			if len(test) == 0 {
				t.Fatal("loaded engine has no test set")
			}
			if _, err := eng.Classify(test[0].Samples); err != nil {
				t.Errorf("loaded engine cannot classify: %v", err)
			}
		}
	})
}
