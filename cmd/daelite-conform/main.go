// Command daelite-conform runs the conformance harness from the command
// line: a differential sweep of seeded random scenarios — each executed
// under several worker counts with the online invariant checkers
// attached and compared against the analytical reference model — followed
// by the mutation smoke drill (seeded slot-table and credit corruptions
// the checkers must catch). Any disagreement, invariant violation or
// missed mutation exits non-zero, so the command is the CI conformance
// gate.
//
//	daelite-conform -scenarios 25 -seed 1
//	daelite-conform -mutate=false -scenarios 5 -v
//
// With -workload pack.json the same discipline is applied to an
// application workload pack instead of random scenarios: the pack runs
// under every worker count (and fast-forward when -fastforward is set),
// everything observable must match the single-worker cycle-accurate
// reference bit for bit, and the pack's own mutation smoke proves the
// checkers can see a planted slot-table flip mid-broadcast.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"daelite/internal/cli"
	"daelite/internal/conformance"
)

func main() {
	var scenarios int
	var seed, mutSeed uint64
	var mutate, verbose, fastforward bool
	var workloadPath string
	flag.IntVar(&scenarios, "scenarios", 25, "seeded scenarios in the differential sweep")
	flag.Uint64Var(&seed, "seed", 1, "base seed; scenario i uses seed+i")
	flag.BoolVar(&mutate, "mutate", true, "run the mutation smoke drill after the sweep")
	flag.Uint64Var(&mutSeed, "mutation-seed", 3, "seed for the mutation smoke drill")
	flag.BoolVar(&verbose, "v", false, "print every scenario, not just failures")
	flag.BoolVar(&fastforward, "fastforward", false, "sweep with fast-forwarding armed, checked against a cycle-accurate reference run per scenario")
	flag.StringVar(&workloadPath, "workload", "", "sweep this workload pack JSON across worker counts instead of random scenarios")
	flag.Parse()

	failed := false
	workers := []int{1, 2, runtime.NumCPU()}

	if workloadPath != "" {
		if err := cli.SweepWorkload(os.Stdout, workloadPath, workers, fastforward, mutate); err != nil {
			fatal("%v", err)
		}
		return
	}
	if scenarios > 0 {
		var entries []*conformance.SweepEntry
		var err error
		if fastforward {
			entries, err = conformance.SweepFastForward(seed, scenarios, workers)
		} else {
			entries, err = conformance.Sweep(seed, scenarios, workers)
		}
		if err != nil {
			fatal("sweep: %v", err)
		}
		passed := 0
		var skipped uint64
		for _, e := range entries {
			for _, r := range e.Results {
				skipped += r.Skipped
			}
			if e.Passed() {
				passed++
				if verbose {
					fmt.Printf("ok   seed=%d %s fingerprint=%016x delivered=%d\n",
						e.Scenario.Seed, e.Scenario, e.Results[0].Fingerprint, e.Results[0].Delivered)
				}
				continue
			}
			failed = true
			fmt.Printf("FAIL seed=%d %s worker-mismatch=%v\n", e.Scenario.Seed, e.Scenario, e.Mismatch)
			for _, r := range e.Results {
				if r.Passed() {
					continue
				}
				fmt.Printf("     workers=%d violations=%d\n", r.Workers, r.Violations)
				for _, f := range r.Failures {
					fmt.Printf("       %s\n", f)
				}
			}
		}
		fmt.Printf("sweep: %d/%d scenarios passed, bit-exact across workers %v\n",
			passed, len(entries), workers)
		if fastforward {
			fmt.Printf("fast-forward: %d cycles skipped across all runs, bit-exact vs accurate reference\n", skipped)
		}
	}

	// The mutation drill always runs cycle-accurately: its checkers
	// sample structural state, and a skip could step over a planted
	// corruption's observable window.
	if mutate {
		res, err := conformance.MutationSmoke(mutSeed, 1)
		if err != nil {
			fatal("mutation smoke: %v", err)
		}
		fmt.Printf("mutation smoke: slot-table violations=%d credit violations=%d events=%d\n",
			res.SlotTableViolations, res.CreditViolations, res.Events)
		if !res.Detected() {
			failed = true
			fmt.Println("FAIL mutation smoke: a planted corruption went undetected")
		}
	}

	if failed {
		os.Exit(1)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "daelite-conform: "+format+"\n", args...)
	os.Exit(1)
}
