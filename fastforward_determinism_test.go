package daelite

// The fast-forward determinism soak: a seeded chaos run — bounded
// traffic, link failures, stall detection, online repair, a teardown,
// and a long settled tail — executed cycle-accurately and with
// model-guided fast-forwarding, under several worker counts.
// Everything observable must be byte-identical: the wire fingerprint,
// the rendered telemetry exports (Prometheus text and NDJSON) and the
// causal-trace exports (Chrome JSON and NDJSON). The bounded sources
// drain partway through, so the fast-forwarded runs genuinely skip a
// large fraction of the tail — the test fails if they never skip,
// because identical exports would then prove nothing about the
// fast-forward path.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"daelite/internal/cli"
	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/sim"
	"daelite/internal/stats"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// ffSoakExports is everything observable a soak run renders.
type ffSoakExports struct {
	fingerprint uint64
	skipped     uint64
	prom        string
	ndjson      string
	chrome      string
	traceND     string
}

func runFastForwardSoak(t *testing.T, workers int, ff bool, seed uint64, cycles int) ffSoakExports {
	t.Helper()
	params := core.DefaultParams()
	params.Workers = workers
	params.FastForward = ff
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1}, params, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	p.AttachTelemetry(reg, 8)
	tr := tracing.New(tracing.Options{})
	p.AttachTracer(tr)
	fingerprint := cli.AttachFingerprint(p)
	stats.NewMonitor(p)
	rng := sim.NewRNG(seed)

	var conns []*core.Connection
	for opened, tries := 0, 0; opened < 5 && tries < 100; tries++ {
		s := p.Mesh.AllNIs[rng.Intn(len(p.Mesh.AllNIs))]
		d := p.Mesh.AllNIs[rng.Intn(len(p.Mesh.AllNIs))]
		if s == d {
			continue
		}
		c, err := p.Open(core.ConnectionSpec{Src: s, Dst: d, SlotsFwd: 1 + rng.Intn(2)})
		if err != nil {
			continue
		}
		if err := p.AwaitOpen(c, 1_000_000); err != nil {
			t.Fatal(err)
		}
		// Bounded sources: they drain partway through the soak, so the
		// fast-forwarded runs have a settled tail to skip.
		traffic.NewSource(p.Sim, fmt.Sprintf("src%d", c.ID), p.NI(s), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.04 + 0.02*float64(rng.Intn(3)), Limit: 250, Seed: rng.Uint64()})
		traffic.NewSink(p.Sim, fmt.Sprintf("sink%d", c.ID), p.NI(d), c.DstChannel)
		conns = append(conns, c)
		opened++
	}

	sites := fault.PickLinks(rng, fault.RouterLinks(p), 2)
	var faults []fault.Fault
	start := p.Cycle()
	for i, l := range sites {
		at := start + uint64((i+1)*cycles/(2*len(sites)+2))
		faults = append(faults, fault.Fault{Kind: fault.LinkDown, Link: l, From: at})
	}
	inj, err := fault.Attach(p, rng.Uint64(), faults...)
	if err != nil {
		t.Fatal(err)
	}
	inj.AttachTelemetry(reg)

	mon := core.NewHealthMonitor(p, 256)
	closed := false
	end := start + uint64(cycles)
	for p.Cycle() < end {
		step := uint64(512)
		if rest := end - p.Cycle(); rest < step {
			step = rest
		}
		p.Run(step)
		if len(mon.Stalled()) > 0 {
			// A failed repair (no capacity left) is an acceptable draw;
			// the failure path must be just as deterministic.
			_, _ = p.RepairStalled(mon, 1_000_000)
		}
		// Churn: tear the lowest-ID connection down halfway through, so
		// teardown spans and a reconfiguration break the settled stretch.
		if !closed && p.Cycle() >= start+uint64(cycles)/2 {
			closed = true
			var victim *core.Connection
			for _, c := range p.Connections() {
				if victim == nil || c.ID < victim.ID {
					victim = c
				}
			}
			if victim != nil {
				if err := p.Close(victim); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p.CompleteConfig(1_000_000); err != nil {
				t.Fatal(err)
			}
		}
	}

	p.FlushTelemetry()
	var out ffSoakExports
	out.fingerprint = fingerprint()
	out.skipped = p.Sim.SkippedCycles()
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

// TestFastForwardExportsByteIdentical is the tentpole's correctness
// contract end to end: fingerprints, telemetry exports and trace exports
// of the chaos soak are byte-identical between cycle-accurate and
// fast-forwarded execution, under every worker count — and the
// fast-forwarded runs actually skipped a substantial stretch.
func TestFastForwardExportsByteIdentical(t *testing.T) {
	const seed, cycles = 42, 12000
	ref := runFastForwardSoak(t, 1, false, seed, cycles)
	if ref.skipped != 0 {
		t.Fatalf("cycle-accurate reference skipped %d cycles", ref.skipped)
	}
	// The soak must exercise faults, repairs and teardowns, or identical
	// exports prove nothing.
	for _, want := range []string{
		"daelite_fault_flits_killed_total",
		`daelite_config_spans_total{op="setup"}`,
		`daelite_config_spans_total{op="teardown"}`,
		`daelite_events_total{kind="fault"}`,
	} {
		if !strings.Contains(ref.prom, want) {
			t.Fatalf("soak export missing %q", want)
		}
	}
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		got := runFastForwardSoak(t, w, true, seed, cycles)
		if got.skipped == 0 {
			t.Errorf("workers=%d: fast-forward never engaged", w)
		}
		if got.fingerprint != ref.fingerprint {
			t.Errorf("workers=%d: fingerprint %016x != cycle-accurate %016x (skipped %d)",
				w, got.fingerprint, ref.fingerprint, got.skipped)
		}
		if got.prom != ref.prom {
			t.Errorf("workers=%d: Prometheus export diverged (%d vs %d bytes)", w, len(got.prom), len(ref.prom))
		}
		if got.ndjson != ref.ndjson {
			t.Errorf("workers=%d: telemetry NDJSON diverged (%d vs %d bytes)", w, len(got.ndjson), len(ref.ndjson))
		}
		if got.chrome != ref.chrome {
			t.Errorf("workers=%d: Chrome trace diverged (%d vs %d bytes)", w, len(got.chrome), len(ref.chrome))
		}
		if got.traceND != ref.traceND {
			t.Errorf("workers=%d: trace NDJSON diverged (%d vs %d bytes)", w, len(got.traceND), len(ref.traceND))
		}
	}
}
