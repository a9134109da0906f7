package xpro

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The ladder golden digests pin every Result field and the error text
// of each event the 2-end resilience ladder serves, on E1 and M2 under
// eight fault scenarios and four policies (the default ladder, with the
// adaptive re-cut controller, with the integrity layer, and FailFast),
// 240 events each. They were recorded from the ladder as it stood in
// the root package, before it moved into adaptive.EndRuntime. Re-record
// deliberately with
//
//	go test -run TestLadderGoldenDigests -update-ladder-golden .

var updateLadderGolden = flag.Bool("update-ladder-golden", false, "rewrite testdata/ladder_digests.json from the current ladder")

var ladderScenarios = []string{"outage", "bursty", "brownout", "stall", "flaky", "corrupt", "garbled", "reboot-storm"}

var ladderVariants = []struct {
	name string
	cfg  func(*Config)
}{
	{"default", func(*Config) {}},
	{"adaptive", func(c *Config) { c.Adaptive = DefaultAdaptive() }},
	{"integrity", func(c *Config) { c.Integrity = DefaultIntegrity() }},
	{"failfast", func(c *Config) { c.Resilience.FailFast = true }},
}

func ladderGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	const events = 240
	got := make(map[string]string)
	for _, sym := range []string{"E1", "M2"} {
		probe, err := New(Config{Case: sym})
		if err != nil {
			t.Fatal(err)
		}
		period := 1 / probe.sys().EventsPerSecond()
		test := probe.TestSet()
		for _, sc := range ladderScenarios {
			plan, err := FaultScenario(sc, 7, events*period)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range ladderVariants {
				cfg := Config{Case: sym, Resilience: DefaultResilience(), FaultPlan: plan}
				v.cfg(&cfg)
				eng, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for i := 0; i < events; i++ {
					res, err := eng.ClassifyResult(test[i%len(test)].Samples)
					fmt.Fprintf(h, "%d:%d/%v/%v/%d/%d/%d/%d/%v/%.17g/%d/%d/%d/%.17g/%s;", i,
						res.Label, res.Degraded, res.Mode, res.VotesUsed, res.VotesTotal,
						res.Retries, res.LostTransfers, res.DeadlineExceeded, res.SpentSeconds,
						res.CorruptFrames, res.CorruptDelivered, res.ImputedValues,
						res.SensorEnergyJoules, res.Breaker)
					if err != nil {
						fmt.Fprintf(h, "err=%s;", err.Error())
					}
				}
				got[sym+"/"+sc+"/"+v.name] = hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	return got
}

func TestLadderGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 64 fault runs of 240 events")
	}
	path := filepath.Join("testdata", "ladder_digests.json")
	got := ladderGoldenDigests(t)
	if *updateLadderGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), path)
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d digests, golden has %d", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: digest %s, golden %s", k, got[k], want[k])
		}
	}
}
