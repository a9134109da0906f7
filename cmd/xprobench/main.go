// Command xprobench regenerates the paper's evaluation: Table 1 and
// Figures 4 and 8–13, the headline summary (battery life 1.6–2.4X,
// delay −15.6–60.8%), and the repository's extension experiments.
//
// Usage:
//
//	xprobench [-exp all|table1|fig4|fig8..fig13|headline|ext-…|scorecard]
//	          [-cases C1,C2,...] [-protocol fast|paper] [-rate 2048]
//	          [-format text|md|csv]
//
// -h lists every experiment id; the ext- ids select the repository's
// extension tables (ext-faults, ext-adaptive, ext-tiered-faults, …).
//
// The fast protocol is the paper's §4.4 training protocol with a scaled
// candidate pool (runs in about a minute for all six cases); the paper
// protocol uses the full 100-candidate, 10-fold configuration.
//
// In -record mode the command appends one point to a committed
// benchmark trajectory file instead of running experiments:
// BENCH_serve.json tracks the fleet-serving path, BENCH_frame.json the
// framed transport, and BENCH_recover.json the crash-recovery path
// (checkpoint encode, per-event journal tax, recover latency).
package main

import "os"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
