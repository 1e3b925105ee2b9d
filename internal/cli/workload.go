package cli

// The shared -workload front-end: daelite-sim, daelite-chaos and
// daelite-conform all load a pack file, execute it against the model's
// predictions and render the same report — only the knobs differ
// (chaos cadence, sweep worker counts). The commands stay thin argv
// shims over these functions, which return errors instead of exiting
// so the behaviour is testable in-process.

import (
	"fmt"
	"io"
	"os"
	"strings"

	"daelite/internal/workload"
)

// LoadWorkload parses and compiles a workload pack file.
func LoadWorkload(path string) (*workload.Compiled, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ws, err := workload.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	wc, err := workload.Compile(ws)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return wc, nil
}

// WorkloadRun parameterizes one -workload execution.
type WorkloadRun struct {
	// Path is the pack JSON file.
	Path string
	// ExpectFingerprint, when non-empty, makes the run fail unless its
	// determinism fingerprint equals this hex value.
	ExpectFingerprint string
	// ChaosEvery plants a link-down fault in every Nth phase (0: off).
	ChaosEvery int
}

// RunWorkload is the -workload mode of daelite-sim and daelite-chaos:
// compile the pack, execute every phase against the model's predictions
// on a platform built from the shared flags (exporters attached), and
// render the per-phase report to out. A run that diverges from the
// model returns an error — the pack is a differential correctness test,
// not just a traffic generator.
func RunWorkload(out io.Writer, pf *PlatformFlags, run WorkloadRun) error {
	wc, err := LoadWorkload(run.Path)
	if err != nil {
		return err
	}
	p, err := wc.BuildPlatform(pf.Workers, pf.FastForward)
	if err != nil {
		return err
	}
	exp, err := pf.StartExporters(p)
	if err != nil {
		return err
	}
	if url := exp.MetricsURL(); url != "" {
		fmt.Fprintf(out, "metrics: %s\n", url)
	}
	unhook := OnSignal(func() { p.Sim.Stop("interrupted by signal") })
	defer unhook()

	opt := workload.RunOptions{Platform: p, ChaosEvery: run.ChaosEvery}
	if exp != nil {
		opt.Registry = exp.Registry
	}
	res, err := workload.Run(wc, opt)
	if err != nil {
		return err
	}
	fmt.Fprint(out, res.Report())
	if res.Skipped > 0 {
		fmt.Fprintf(out, "fast-forwarded %d cycles\n", res.Skipped)
	}
	if err := exp.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "fingerprint: %016x\n", res.Fingerprint)
	if run.ExpectFingerprint != "" {
		if err := CheckFingerprint(res.Fingerprint, run.ExpectFingerprint); err != nil {
			return err
		}
	}
	if !res.Passed() {
		var b strings.Builder
		for i, msg := range res.Failures {
			if i >= 5 {
				break
			}
			fmt.Fprintf(&b, "\n  %s", msg)
		}
		return fmt.Errorf("workload %s diverged: %d violations, %d failures%s",
			res.Pack, res.Violations, len(res.Failures), b.String())
	}
	return nil
}

// SweepWorkload is the -workload mode of daelite-conform: one pack,
// every worker count, bit-exact or bust, then the pack's own mutation
// smoke (a planted slot-table flip the checkers must catch). Progress
// renders to out; any divergence, violation or undetected corruption
// returns an error.
func SweepWorkload(out io.Writer, path string, workers []int, fastforward, mutate bool) error {
	wc, err := LoadWorkload(path)
	if err != nil {
		return err
	}
	sw, err := workload.Sweep(wc, workers, fastforward)
	if err != nil {
		return fmt.Errorf("sweep %s: %w", wc.Name(), err)
	}
	failed := !sw.Passed()
	for _, m := range sw.Mismatches {
		fmt.Fprintf(out, "FAIL %s: %s\n", wc.Name(), m)
	}
	for _, r := range append([]*workload.Result{sw.Reference}, sw.Results...) {
		if r.Passed() {
			continue
		}
		fmt.Fprintf(out, "FAIL %s workers=%d ff=%v violations=%d\n", wc.Name(), r.Workers, r.FastForward, r.Violations)
		for _, msg := range r.Failures {
			fmt.Fprintf(out, "     %s\n", msg)
		}
	}
	var skipped uint64
	for _, r := range sw.Results {
		skipped += r.Skipped
	}
	fmt.Fprintf(out, "workload %s: %d phases, fingerprint=%016x delivered=%d, bit-exact across workers %v\n",
		wc.Name(), len(wc.Phases), sw.Reference.Fingerprint, sw.Reference.Delivered, workers)
	if fastforward {
		fmt.Fprintf(out, "fast-forward: %d cycles skipped across all runs, bit-exact vs accurate reference\n", skipped)
	}

	if mutate {
		violations, err := workload.MutationSmoke(wc, 1)
		if err != nil {
			return fmt.Errorf("mutation smoke %s: %w", wc.Name(), err)
		}
		fmt.Fprintf(out, "mutation smoke: violations after planted slot-table flip=%d\n", violations)
		if violations == 0 {
			return fmt.Errorf("mutation smoke %s: the planted corruption went undetected", wc.Name())
		}
	}
	if failed {
		return fmt.Errorf("workload %s diverged across worker counts", wc.Name())
	}
	return nil
}
