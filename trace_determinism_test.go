package daelite

// The causal-trace determinism soak: both trace exports — Chrome
// trace-event JSON and NDJSON — must be byte-identical for every kernel
// worker count. The soak covers the whole span taxonomy on a regioned
// platform: cross-region set-ups (inject fan-out + settle children),
// link failures with stall events, repair spans and teardowns. It is
// the tracing counterpart of TestTelemetryExportsDeterministic.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/sim"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// runTraceSoak runs a seeded chaos soak on a three-region 6x6 mesh with
// the tracer attached from the first open, and returns both rendered
// exports.
func runTraceSoak(t *testing.T, workers int, seed uint64, cycles int) (string, string) {
	t.Helper()
	params := core.DefaultParams()
	params.Workers = workers
	params.MaxRegionElements = 24
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 6, Height: 6, NIsPerRouter: 1}, params, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.New(tracing.Options{})
	p.AttachTracer(tr)
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
		traffic.NewSource(p.Sim, fmt.Sprintf("src%d", c.ID), p.NI(s), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.04 + 0.02*float64(rng.Intn(3)), Seed: rng.Uint64()})
		traffic.NewSink(p.Sim, fmt.Sprintf("sink%d", c.ID), p.NI(d), c.DstChannel)
		conns = append(conns, c)
		opened++
	}

	sites := fault.PickLinks(rng, fault.RouterLinks(p), 2)
	var faults []fault.Fault
	start := p.Cycle()
	for i, l := range sites {
		at := start + uint64((i+1)*cycles/(len(sites)+1))
		faults = append(faults, fault.Fault{Kind: fault.LinkDown, Link: l, From: at})
	}
	if _, err := fault.Attach(p, rng.Uint64(), faults...); err != nil {
		t.Fatal(err)
	}

	mon := core.NewHealthMonitor(p, 256)
	end := start + uint64(cycles)
	for p.Cycle() < end {
		step := uint64(512)
		if rest := end - p.Cycle(); rest < step {
			step = rest
		}
		p.Run(step)
		if len(mon.Stalled()) == 0 {
			continue
		}
		// A repair that finds no capacity left is an expected outcome
		// here (five connections on a 6x6 leave little slack) — the
		// failed attempt still opens and closes its repair span, and
		// the failure path must be just as deterministic.
		_, _ = p.RepairStalled(mon, 1_000_000)
	}

	// Tear one connection down so teardown spans are in the export too —
	// the lowest-ID one, since Connections() is unordered.
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

	var chrome, nd strings.Builder
	if err := tracing.WriteChrome(&chrome, tr); err != nil {
		t.Fatal(err)
	}
	if err := tracing.WriteNDJSON(&nd, tr); err != nil {
		t.Fatal(err)
	}
	return chrome.String(), nd.String()
}

// TestTraceExportsDeterministic asserts the tracing determinism
// contract: the exported trace bytes are a pure function of the seed,
// independent of kernel parallelism.
func TestTraceExportsDeterministic(t *testing.T) {
	const seed, cycles = 42, 12000
	chromeRef, ndRef := runTraceSoak(t, 1, seed, cycles)
	// The soak must exercise the whole span taxonomy, or identical
	// exports prove nothing.
	for _, want := range []string{
		`"setup #`, `"inject r0"`, `"inject r1"`, `"settle"`,
		`"teardown #`, `"repair #`, `"stall"`, `"fault"`,
	} {
		if !strings.Contains(chromeRef, want) {
			t.Fatalf("Chrome export missing %s", want)
		}
	}
	if !strings.Contains(ndRef, `"record":"span"`) || !strings.Contains(ndRef, `"record":"trace_event"`) {
		t.Fatal("NDJSON export missing spans or events")
	}
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		chrome, nd := runTraceSoak(t, w, seed, cycles)
		if chrome != chromeRef {
			t.Errorf("workers=%d: Chrome export diverged from sequential (%d vs %d bytes)", w, len(chrome), len(chromeRef))
		}
		if nd != ndRef {
			t.Errorf("workers=%d: NDJSON export diverged from sequential (%d vs %d bytes)", w, len(nd), len(ndRef))
		}
	}
}
