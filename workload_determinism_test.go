package daelite

// The workload-pack determinism soak: both example packs — the DNN
// layer pipeline (multicast weight broadcasts, activation unicasts) and
// the Tiny Tera VOQ matrix — executed under several worker
// counts, cycle-accurately and with model-guided fast-forwarding.
// Everything observable must be byte-identical to the single-worker
// cycle-accurate reference: the run fingerprint, the rendered telemetry
// exports (Prometheus text and NDJSON) and the causal-trace exports
// (Chrome JSON and NDJSON). Each pack's phases end with a settled tail,
// so the fast-forwarded runs genuinely skip — the test fails if they
// never do, because identical exports would then prove nothing about
// the fast-forward path.

import (
	"runtime"
	"strings"
	"testing"

	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/workload"
)

// workloadExports is everything observable a pack run renders.
type workloadExports struct {
	res     *workload.Result
	prom    string
	ndjson  string
	chrome  string
	traceND string
}

func runWorkloadExports(t *testing.T, mkSpec func() *workload.Spec, workers int, ff bool) workloadExports {
	t.Helper()
	wc, err := workload.Compile(mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	p, err := wc.BuildPlatform(workers, ff)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	p.AttachTelemetry(reg, 8)
	tr := tracing.New(tracing.Options{})
	p.AttachTracer(tr)

	res, err := workload.Run(wc, workload.RunOptions{Platform: p, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("workers=%d ff=%v: pack %s diverged from the model: violations=%d failures=%v",
			workers, ff, res.Pack, res.Violations, res.Failures)
	}

	p.FlushTelemetry()
	out := workloadExports{res: res}
	var prom, nd, chrome, tnd strings.Builder
	if err := telemetry.WritePrometheus(&prom, reg); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteNDJSON(&nd, reg, p.Cycle()); err != nil {
		t.Fatal(err)
	}
	if err := tracing.WriteChrome(&chrome, tr); err != nil {
		t.Fatal(err)
	}
	if err := tracing.WriteNDJSON(&tnd, tr); err != nil {
		t.Fatal(err)
	}
	out.prom, out.ndjson, out.chrome, out.traceND = prom.String(), nd.String(), chrome.String(), tnd.String()
	return out
}

// TestWorkloadExportsByteIdentical runs both example packs under
// workers 1/2/NumCPU crossed with fast-forward off/on and requires every
// export to match the single-worker cycle-accurate reference byte for
// byte. This is the pack-level version of the fast-forward soak's
// contract: an application-shaped run — multicast trees, phase
// teardowns, credit-bounded unicasts — is just as observable-identical
// across execution modes as the random chaos soak.
func TestWorkloadExportsByteIdentical(t *testing.T) {
	packs := []struct {
		name string
		mk   func() *workload.Spec
	}{
		{"dnn", workload.ExampleDNN},
		{"tinytera", func() *workload.Spec { return workload.ExampleTinyTera("hotspot") }},
	}
	for _, pack := range packs {
		pack := pack
		t.Run(pack.name, func(t *testing.T) {
			ref := runWorkloadExports(t, pack.mk, 1, false)
			if ref.res.Skipped != 0 {
				t.Fatalf("cycle-accurate reference skipped %d cycles", ref.res.Skipped)
			}
			// The pack must exercise real set-up and teardown traffic, or
			// identical exports prove nothing.
			for _, want := range []string{
				`daelite_config_spans_total{op="setup"}`,
				`daelite_config_spans_total{op="teardown"}`,
			} {
				if !strings.Contains(ref.prom, want) {
					t.Fatalf("pack export missing %q", want)
				}
			}
			for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				for _, ff := range []bool{false, true} {
					if w == 1 && !ff {
						continue // the reference itself
					}
					got := runWorkloadExports(t, pack.mk, w, ff)
					if ff && got.res.Skipped == 0 {
						t.Errorf("workers=%d ff=true: fast-forward never engaged", w)
					}
					if !ff && got.res.Skipped != 0 {
						t.Errorf("workers=%d ff=false: skipped %d cycles without fast-forward", w, got.res.Skipped)
					}
					if got.res.Fingerprint != ref.res.Fingerprint {
						t.Errorf("workers=%d ff=%v: fingerprint %016x != reference %016x (skipped %d)",
							w, ff, got.res.Fingerprint, ref.res.Fingerprint, got.res.Skipped)
					}
					if got.res.Delivered != ref.res.Delivered {
						t.Errorf("workers=%d ff=%v: delivered %d != reference %d", w, ff, got.res.Delivered, ref.res.Delivered)
					}
					if got.prom != ref.prom {
						t.Errorf("workers=%d ff=%v: Prometheus export diverged (%d vs %d bytes)", w, ff, len(got.prom), len(ref.prom))
					}
					if got.ndjson != ref.ndjson {
						t.Errorf("workers=%d ff=%v: telemetry NDJSON diverged (%d vs %d bytes)", w, ff, len(got.ndjson), len(ref.ndjson))
					}
					if got.chrome != ref.chrome {
						t.Errorf("workers=%d ff=%v: Chrome trace diverged (%d vs %d bytes)", w, ff, len(got.chrome), len(ref.chrome))
					}
					if got.traceND != ref.traceND {
						t.Errorf("workers=%d ff=%v: trace NDJSON diverged (%d vs %d bytes)", w, ff, len(got.traceND), len(ref.traceND))
					}
				}
			}
		})
	}
}
