package conformance

// The differential sweep: every seeded scenario is executed once per
// worker count, and the runs must agree bit for bit — same
// fingerprint, same checker verdicts, same failures. Combined with the
// per-run sim-vs-model checks this is the acceptance gate the paper's
// guarantees are held to on every change.

import "fmt"

// SweepEntry is the cross-worker outcome of one scenario.
type SweepEntry struct {
	Scenario *Scenario
	Results  []*Result // one per worker count, same order as requested
	// Mismatch is set when the runs diverged across worker counts.
	Mismatch bool
}

// Passed reports whether every run passed and all agreed.
func (e *SweepEntry) Passed() bool {
	if e.Mismatch {
		return false
	}
	for _, r := range e.Results {
		if !r.Passed() {
			return false
		}
	}
	return true
}

// Sweep runs scenarios for seeds baseSeed..baseSeed+count-1, each under
// every worker count, and checks bit-exactness across the counts.
func Sweep(baseSeed uint64, count int, workers []int) ([]*SweepEntry, error) {
	return sweep(baseSeed, count, workers, false)
}

// SweepFastForward is Sweep with model-guided fast-forwarding armed, plus
// one extra cycle-accurate reference run per scenario (first in Results):
// a fast-forwarded run must match the accurate reference bit for bit —
// same fingerprint, verdicts, deliveries — under every worker count.
func SweepFastForward(baseSeed uint64, count int, workers []int) ([]*SweepEntry, error) {
	return sweep(baseSeed, count, workers, true)
}

func sweep(baseSeed uint64, count int, workers []int, ff bool) ([]*SweepEntry, error) {
	if len(workers) == 0 {
		workers = []int{1}
	}
	var entries []*SweepEntry
	for i := 0; i < count; i++ {
		sc := Generate(baseSeed + uint64(i))
		e := &SweepEntry{Scenario: sc}
		if ff {
			ref, err := run(sc, workers[0], false)
			if err != nil {
				return entries, fmt.Errorf("seed %d reference: %w", sc.Seed, err)
			}
			e.Results = append(e.Results, ref)
		}
		for _, w := range workers {
			r, err := run(sc, w, ff)
			if err != nil {
				return entries, fmt.Errorf("seed %d workers %d: %w", sc.Seed, w, err)
			}
			e.Results = append(e.Results, r)
		}
		first := e.Results[0]
		for _, r := range e.Results[1:] {
			if r.Fingerprint != first.Fingerprint ||
				r.Violations != first.Violations ||
				r.Delivered != first.Delivered ||
				r.Opened != first.Opened {
				e.Mismatch = true
			}
		}
		entries = append(entries, e)
	}
	return entries, nil
}
