package main

import "testing"

// TestDigestStableAcrossRuns runs the digest prefix of each closed-loop
// workload twice with one seed on one case: seeded replay must give the
// same outcome digest, and another seed a different one.
func TestDigestStableAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an ensemble")
	}
	e, err := train([]string{"C1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"tiered-storm", "adaptive-chaos"} {
		digest := func(seed int64) string {
			w, err := newWorkload(options{workload: wl, seed: seed, seconds: 1e-9}, e)
			if err != nil {
				t.Fatal(err)
			}
			st, err := w.setup()
			if err != nil {
				t.Fatal(err)
			}
			p, err := w.pass(st, nil)
			if err != nil {
				t.Fatal(err)
			}
			return p.detail.(*closedDetail).digest
		}
		a, b, c := digest(7), digest(7), digest(8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", wl, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", wl, a)
		}
	}
}
