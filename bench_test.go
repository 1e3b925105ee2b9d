package daelite

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// recorded outputs). Each benchmark runs the corresponding experiment and
// reports its headline metrics; `cmd/daelite-bench` prints the full tables.
//
// Run with: go test -bench=. -benchmem

import (
	"testing"

	"daelite/internal/core"
	"daelite/internal/experiments"
	"daelite/internal/phit"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
)

func reportMetrics(b *testing.B, keys map[string]string, run func() (*experiments.Result, error)) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for metric, unit := range keys {
		if v, ok := last.Metrics[metric]; ok {
			b.ReportMetric(v, unit)
		} else {
			b.Fatalf("metric %q missing", metric)
		}
	}
}

// BenchmarkTableI_FeatureMatrix regenerates Table I (experiment E1).
func BenchmarkTableI_FeatureMatrix(b *testing.B) {
	reportMetrics(b, map[string]string{"rows": "rows"}, experiments.TableIFeatures)
}

// BenchmarkTableII_Area regenerates Table II (E2): area reductions from
// the gate-equivalent model; the reported metric is the worst deviation
// from the paper's percentages, in points.
func BenchmarkTableII_Area(b *testing.B) {
	reportMetrics(b, map[string]string{"worst_deviation_points": "pts-vs-paper"}, experiments.TableIIArea)
}

// BenchmarkTableIII_Setup regenerates Table III (E3): cycle-accurate
// connection set-up through daelite's broadcast tree versus aelite's
// network-carried register writes. Headline: mean speed-up (paper: one
// order of magnitude).
func BenchmarkTableIII_Setup(b *testing.B) {
	reportMetrics(b, map[string]string{
		"mean_speedup":             "x-speedup",
		"daelite_slot_sensitivity": "daelite-4slot/1slot",
		"aelite_slot_sensitivity":  "aelite-4slot/1slot",
	}, experiments.TableIIISetup)
}

// BenchmarkLatency_Traversal regenerates the 33%-latency claim (E4): 2 vs
// 3 cycles per hop measured end to end.
func BenchmarkLatency_Traversal(b *testing.B) {
	reportMetrics(b, map[string]string{"mean_reduction": "frac-reduction"}, experiments.TraversalLatency)
}

// BenchmarkHeaderOverhead regenerates the payload-efficiency claim (E5):
// daelite has no header overhead, aelite loses 11-33%.
func BenchmarkHeaderOverhead(b *testing.B) {
	reportMetrics(b, map[string]string{
		"daelite_efficiency":          "daelite-efficiency",
		"aelite_overhead_consecutive": "aelite-ovh-3slot",
		"aelite_overhead_scattered":   "aelite-ovh-1slot",
	}, experiments.HeaderOverhead)
}

// BenchmarkConfigSlotLoss regenerates the reserved-slot claim (E6): 6.25%
// of NI-link bandwidth lost by aelite at a 16-slot wheel.
func BenchmarkConfigSlotLoss(b *testing.B) {
	reportMetrics(b, map[string]string{"aelite_loss_16": "frac-loss"}, experiments.ConfigSlotLoss)
}

// BenchmarkMultipathGain regenerates the multipath claim (E7): splitting
// connections over several paths admits more bandwidth (paper cites 24%
// average from [29]).
func BenchmarkMultipathGain(b *testing.B) {
	reportMetrics(b, map[string]string{"mean_gain": "frac-gain"}, experiments.MultipathGain)
}

// BenchmarkSchedulingLatency regenerates the slot-size claim (E8).
func BenchmarkSchedulingLatency(b *testing.B) {
	reportMetrics(b, map[string]string{
		"wait_sw1": "cycles-1word",
		"wait_sw2": "cycles-2word",
		"wait_sw3": "cycles-3word",
	}, experiments.SchedulingLatency)
}

// BenchmarkFig6Setup replays the paper's Fig. 6 path set-up example (E9)
// through the real decoders and measures it.
func BenchmarkFig6Setup(b *testing.B) {
	reportMetrics(b, map[string]string{
		"setup_cycles":     "cycles",
		"setup_words":      "cfg-words",
		"host_words_32bit": "host-words",
	}, experiments.Fig6PathSetup)
}

// BenchmarkMulticastTreeVsUnicast regenerates Fig. 7's efficiency
// argument (E10).
func BenchmarkMulticastTreeVsUnicast(b *testing.B) {
	reportMetrics(b, map[string]string{
		"tree_slots_n6":    "tree-srclink-slots",
		"unicast_slots_n6": "unicast-srclink-slots",
	}, experiments.MulticastTreeVsUnicast)
}

// BenchmarkContentionFreedom soaks the contention-free invariant (E11).
func BenchmarkContentionFreedom(b *testing.B) {
	reportMetrics(b, map[string]string{"violations": "violations"}, experiments.ContentionFreedom)
}

// BenchmarkCriticalPath regenerates the frequency claim (E12).
func BenchmarkCriticalPath(b *testing.B) {
	reportMetrics(b, map[string]string{
		"daelite_mhz": "daelite-MHz",
		"aelite_mhz":  "aelite-MHz",
	}, experiments.CriticalPath)
}

// BenchmarkUseCaseSwitch regenerates the use-case reconfiguration
// scenario (E13).
func BenchmarkUseCaseSwitch(b *testing.B) {
	reportMetrics(b, map[string]string{"switch_cycles": "cycles"}, experiments.UseCaseSwitch)
}

// BenchmarkFaultRepair regenerates the chaos experiment (E15): repair
// latency after a link failure, daelite's tree-configured re-set-up versus
// aelite's register-written one.
func BenchmarkFaultRepair(b *testing.B) {
	reportMetrics(b, map[string]string{
		"repair_cycles":         "cycles-repair",
		"aelite_resetup_cycles": "cycles-aelite",
		"resetup_speedup":       "x-speedup",
	}, experiments.FaultRepair)
}

// --- Micro-benchmarks of the core machinery ---

// benchPlatformCycle measures raw simulation throughput of a loaded 4x4
// platform (cycles per second of wall clock drive the harness cost),
// optionally with a telemetry registry attached and harvesting, and
// optionally with the causal tracer attached.
func benchPlatformCycle(b *testing.B, withTelemetry, withTracing bool) {
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	if withTelemetry {
		p.AttachTelemetry(telemetry.NewRegistry(), 0)
	}
	if withTracing {
		p.AttachTracer(tracing.New(tracing.Options{}))
	}
	c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 1, 0), Dst: p.Mesh.NI(3, 3, 0), SlotsFwd: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.AwaitOpen(c, 100000); err != nil {
		b.Fatal(err)
	}
	src := p.NI(c.Spec.Src)
	dst := p.NI(c.Spec.Dst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(c.SrcChannel, phit.Word(i))
		p.Run(1)
		for {
			if _, ok := dst.Recv(c.DstChannel); !ok {
				break
			}
		}
	}
}

// BenchmarkPlatformCycle is the baseline simulation throughput, telemetry
// detached — the cost every run pays.
func BenchmarkPlatformCycle(b *testing.B) { benchPlatformCycle(b, false, false) }

// BenchmarkPlatformCycleTelemetry is the same platform with a telemetry
// registry attached at the default harvest interval; the gap to
// BenchmarkPlatformCycle is the observability overhead the cost contract
// bounds (<= 5%, gated by daelite-benchdiff).
func BenchmarkPlatformCycleTelemetry(b *testing.B) { benchPlatformCycle(b, true, false) }

// BenchmarkPlatformCycleTracing is the same platform with the causal
// tracer attached. Spans are created only around configuration
// transactions, never on the per-cycle datapath, so steady-state
// stepping must stay inside the same <= 5% cost contract as telemetry.
func BenchmarkPlatformCycleTracing(b *testing.B) { benchPlatformCycle(b, false, true) }

// BenchmarkPlatformCycleFastForward measures the fast-forward
// machinery's floor: the same loaded 4x4 platform as
// BenchmarkPlatformCycle, drained and settled with fast-forwarding
// armed. One op runs a whole hyper-period, which the kernel skips in
// closed form — the cost is the quiescence re-scan plus the skip
// arithmetic and catch-up hooks, not per-component evaluation. The gap
// to BenchmarkPlatformCycle (times the hyper-period length) is the
// cycles/sec win on settled platforms; daelite-benchdiff gates it
// against regression like the rest of the PlatformCycle trio.
func BenchmarkPlatformCycleFastForward(b *testing.B) {
	params := core.DefaultParams()
	params.FastForward = true
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1}, params, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 1, 0), Dst: p.Mesh.NI(3, 3, 0), SlotsFwd: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.AwaitOpen(c, 100000); err != nil {
		b.Fatal(err)
	}
	period := uint64(p.Params.Wheel * p.Params.SlotWords)
	p.Run(20 * period) // through the settle window; skipping engages
	if p.Sim.SkippedCycles() == 0 {
		b.Fatal("fast-forward never engaged on the drained platform")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(period)
	}
	b.ReportMetric(float64(period)*float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkBigMesh16x16 measures raw kernel throughput (one simulated
// cycle per op) on the full 16x16 torus platform — 512 elements set up
// through six hierarchical config regions. The 7-bit config ID space
// caps a single region at 127 elements; the region partition is what
// lets this platform configure at all.
func BenchmarkBigMesh16x16(b *testing.B) {
	bm, err := experiments.BuildBigMesh(16, 16, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Run(1)
	}
}

// BenchmarkConnectionOpenClose measures the host-side cost of a full
// connection lifecycle including simulation until settled.
func BenchmarkConnectionOpenClose(b *testing.B) {
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 3, Height: 3, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(1, 0, 0), Dst: p.Mesh.NI(2, 2, 0), SlotsFwd: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.AwaitOpen(c, 100000); err != nil {
			b.Fatal(err)
		}
		if err := p.Close(c); err != nil {
			b.Fatal(err)
		}
		if _, err := p.CompleteConfig(100000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design-choice sensitivity, DESIGN.md §5) ---

// BenchmarkAblationWheelSize sweeps the TDM wheel size.
func BenchmarkAblationWheelSize(b *testing.B) {
	reportMetrics(b, map[string]string{
		"setup_w8":  "cycles-8slots",
		"setup_w64": "cycles-64slots",
	}, experiments.AblationWheelSize)
}

// BenchmarkAblationCooldown sweeps the configuration cool-down.
func BenchmarkAblationCooldown(b *testing.B) {
	reportMetrics(b, map[string]string{
		"setup_cd0":  "cycles-cd0",
		"setup_cd16": "cycles-cd16",
	}, experiments.AblationCooldown)
}

// BenchmarkAblationTreeDepth sweeps the host placement.
func BenchmarkAblationTreeDepth(b *testing.B) {
	reportMetrics(b, map[string]string{
		"setup_host00": "cycles-corner",
		"setup_host11": "cycles-central",
	}, experiments.AblationTreeDepth)
}

// BenchmarkAblationQueueDepth sweeps the NI receive-queue depth.
func BenchmarkAblationQueueDepth(b *testing.B) {
	reportMetrics(b, map[string]string{
		"rate_d2":  "wpc-depth2",
		"rate_d32": "wpc-depth32",
	}, experiments.AblationQueueDepth)
}

// BenchmarkAttainedBandwidth regenerates E14: attained equals reserved
// under simultaneous saturation (TDM exclusivity).
func BenchmarkAttainedBandwidth(b *testing.B) {
	reportMetrics(b, map[string]string{"worst_fraction": "attained/reserved"}, experiments.AttainedBandwidth)
}

// BenchmarkAblationLongLinks sweeps pipeline stages on long links.
func BenchmarkAblationLongLinks(b *testing.B) {
	reportMetrics(b, map[string]string{
		"latency_s0": "cycles-0stages",
		"latency_s4": "cycles-4stages",
	}, experiments.AblationLongLinks)
}

// BenchmarkSlotPlacement sweeps clustered vs spread slot selection (A8).
func BenchmarkSlotPlacement(b *testing.B) {
	reportMetrics(b, map[string]string{
		"clustered_worst": "cycles-clustered",
		"spread_worst":    "cycles-spread",
	}, experiments.SlotPlacement)
}

// BenchmarkPartialReconfig measures grafting a destination onto a live
// multicast tree (A9).
func BenchmarkPartialReconfig(b *testing.B) {
	reportMetrics(b, map[string]string{
		"full_setup": "cycles-full-setup",
		"graft_2":    "cycles-graft",
	}, experiments.PartialReconfig)
}
