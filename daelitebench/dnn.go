package main

import (
	"fmt"
	"time"

	"daelite/internal/core"
	"daelite/internal/spec"
	"daelite/internal/telemetry"
	"daelite/internal/workload"
)

// dnn8-pack: a seeded DNN workload pack on the 8x8 mesh, compiled and
// run through workload.Compile/workload.Run with fast-forward on, as
// `daelite-conform -workload ... -fastforward` runs it. The timed window
// runs the seed's dnnPacks packs round-robin, each on a fresh platform,
// until the measured seconds are up and every pack has run once. The
// operations are the phases of each pack's first run, so a seed always
// attempts and fails the same ones however long the window is; a pack
// run again must reproduce its first run's fingerprint, cycle count and
// failed phases.
const (
	dnnSide   = 8
	dnnLayers = 4
	dnnPacks  = 16
	// dnnSetups is how often each pack run compiles the pack and builds
	// its platform; the last build runs the pack.
	dnnSetups = 3
)

// dnnSpec expands a seed into pack k: two memory tiles on the top row
// broadcast each layer's weights, and the four layers partition the 56
// tiles below between them, 14 each, so like a real mapping the network
// occupies the whole array. The memory tiles' columns depend on k alone,
// so every seed's packs use the same set of them: how far a broadcast
// reaches sets its path-cache memory and cycles. The seed places the
// layers' tiles.
func dnnSpec(seed uint64, k int) *workload.Spec {
	rng := newRand(seed, 0x646e6e3800+uint64(k))
	s := &workload.Spec{
		Kind: "dnn", Name: fmt.Sprintf("dnn8-seed%d-%d", seed, k), Seed: seed<<8 | uint64(k),
		Mesh: spec.MeshSpec{Width: dnnSide, Height: dnnSide},
		DNN:  &workload.DNNSpec{BytesPerWord: 4},
	}
	x0 := k % dnnSide
	x1 := (x0 + 3 + 2*(k/dnnSide%2)) % dnnSide
	s.DNN.MemoryTiles = []spec.Coord{{X: x0, Y: 0}, {X: x1, Y: 0}}
	var pool []spec.Coord
	for y := 1; y < dnnSide; y++ {
		for x := 0; x < dnnSide; x++ {
			pool = append(pool, spec.Coord{X: x, Y: y})
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	// Tile (7,7) goes to one of the two middle layers, alternating with
	// k, so every pack fails the same number of phases on the NI77
	// defect (NOTES.md) and the packs' times form one cluster.
	per := len(pool) / dnnLayers
	at := (1+k%2)*per + rng.IntN(per)
	for i, t := range pool {
		if t == (spec.Coord{X: dnnSide - 1, Y: dnnSide - 1}) {
			pool[i], pool[at] = pool[at], pool[i]
		}
	}
	for l := 0; l < dnnLayers; l++ {
		n := len(pool) / (dnnLayers - l) // every tile goes to a layer
		ls := workload.LayerSpec{
			Name:            fmt.Sprintf("layer%d", l),
			Neurons:         16 + rng.IntN(240),
			WeightBytes:     512,
			ActivationBytes: 256,
			BroadcastSlots:  2,
			ActivationSlots: 1,
		}
		ls.Tiles, pool = pool[:n], pool[n:]
		s.DNN.Layers = append(s.DNN.Layers, ls)
	}
	return s
}

// packRun is one measured execution of the pack.
type packRun struct {
	res     *workload.Result
	setup   float64       // median seconds of dnnSetups compiles + platform builds
	pack    time.Duration // workload.Run
	cycles  uint64
	heapMB  float64 // live heap with the run's platform still held
	workers int
	failed  int
	reasons []string
	layers  map[string]float64
}

// runPack compiles the pack, builds a fresh fast-forwarding platform and
// runs it. An operation is one phase: it fails on a differential-check
// failure or an invariant violation recorded inside the phase.
func runPack(s *workload.Spec, spans *SpanLog, op int, traced bool) (*packRun, error) {
	r := &packRun{}
	var c *workload.Compiled
	var p *core.Platform
	var setups []float64
	for i := 0; i < dnnSetups; i++ {
		if p != nil {
			p.Sim.Shutdown()
		}
		var err error
		d := spans.Time("workload", "Compile+BuildPlatform", op, func() {
			if c, err = workload.Compile(s); err == nil {
				p, err = c.BuildPlatform(0, true)
			}
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	r.setup = median(setups)
	defer p.Sim.Shutdown()
	reg := telemetry.NewRegistry()
	a0, alloc0 := snapActivity(p), totalAlloc()
	var err error
	r.pack = spans.Time("workload", "Run", op, func() {
		r.res, err = workload.Run(c, workload.RunOptions{Platform: p, FastForward: true, Registry: reg})
	})
	if err != nil {
		return nil, err
	}
	r.cycles = p.Cycle()
	r.workers = p.Sim.Workers()
	r.heapMB = heapMB()
	var violations []telemetry.Event
	for _, e := range reg.Events() {
		if e.Kind == "conformance_violation" {
			violations = append(violations, e)
		}
	}
	for _, ph := range r.res.Phases {
		end := ph.StartCycle + ph.Cycles
		n := 0
		for _, v := range violations {
			if v.Cycle >= ph.StartCycle && v.Cycle < end {
				n++
			}
		}
		if len(ph.Failures) > 0 || n > 0 {
			r.failed++
			r.reasons = append(r.reasons, fmt.Sprintf("phase %s: %d check failures, %d recorded violations", ph.Name, len(ph.Failures), n))
		}
	}
	if traced {
		r.layers = packLayers(p, r, a0, alloc0, reg)
	}
	return r, nil
}

// packLayers derives the per-layer metrics of one traced pack run.
func packLayers(p *core.Platform, r *packRun, a0 activity, alloc0 uint64, reg *telemetry.Registry) map[string]float64 {
	m := map[string]float64{}
	a0.addLayers(snapActivity(p), m)
	var setupC, drainC, allC, opened, nofit, requested float64
	for _, ph := range r.res.Phases {
		setupC += float64(ph.SetupCycles)
		drainC += float64(ph.DrainCycles - ph.SetupCycles)
		allC += float64(ph.Cycles)
		opened += float64(ph.Opened)
		nofit += float64(ph.NoFit)
		requested += float64(ph.Requested)
	}
	var words, settle, setups float64
	for _, sp := range reg.Spans() {
		if sp.Op == "setup" {
			setups++
			words += float64(sp.Words)
			settle += float64(sp.Cycles())
		}
	}
	cache := p.Alloc.CacheStats()
	m["sim.ns_per_cycle"] = ratio(float64(r.pack.Nanoseconds()), float64(r.cycles))
	m["sim.cycles_per_open"] = ratio(setupC, opened)
	m["sim.skipped_frac"] = ratio(float64(r.res.Skipped), float64(r.cycles))
	m["sim.workers"] = float64(p.Sim.Workers())
	m["configtree.words_per_open"] = ratio(words, setups)
	m["configtree.settle_cycles_per_open"] = ratio(settle, setups)
	m["alloc.path_cache_hit_ratio"] = ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses))
	m["alloc.nofit_frac"] = ratio(nofit, requested)
	m["workload.setup_cycles_frac"] = ratio(setupC, allC)
	m["workload.drain_cycles_frac"] = ratio(drainC, allC)
	m["conformance.violations"] = float64(r.res.Violations)
	m["runtime.alloc_bytes_per_cycle"] = ratio(float64(totalAlloc()-alloc0), float64(r.cycles))
	return m
}

// packWindow runs the packs round-robin, starting after the runs made
// so far, until the seconds are up and at least minRuns have run.
func packWindow(specs []*workload.Spec, seconds float64, spans *SpanLog, traced bool, first, minRuns int) ([]*packRun, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var runs []*packRun
	for len(runs) < max(minRuns, 1) || time.Now().Before(deadline) {
		i := first + len(runs)
		r, err := runPack(specs[i%len(specs)], spans, i, traced)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func runDNN(opt Options) (*Outcome, error) {
	specs := make([]*workload.Spec, dnnPacks)
	for k := range specs {
		specs[k] = dnnSpec(opt.Seed, k)
	}
	win := opt.Seconds
	if opt.Trace {
		win /= 2
	}
	runs, err := packWindow(specs, win, nil, false, 0, len(specs))
	if err != nil {
		return nil, err
	}
	out := &Outcome{Gated: map[string]float64{}, FastForward: true, Workers: runs[0].workers}
	var traced []*packRun
	layers := zeroLayers()
	if opt.Trace {
		prof, err := startProfile(opt.Profile)
		if err != nil {
			return nil, err
		}
		traced, err = packWindow(specs, win, opt.Spans, true, len(runs), 1)
		if err != nil {
			return nil, err
		}
		if err := prof.Stop(layers); err != nil {
			return nil, err
		}
	}
	var setups, packs, rates []float64
	var heapSum float64
	var packD []time.Duration
	var skipped, cycles uint64
	first := map[int]*packRun{}
	for i, r := range append(append([]*packRun(nil), runs...), traced...) {
		k := i % dnnPacks
		f, seen := first[k]
		switch {
		case !seen:
			first[k] = r
			heapSum += r.heapMB
			out.Attempted += len(r.res.Phases)
			out.Failed += r.failed
			for _, msg := range r.reasons {
				out.Failures = append(out.Failures, specs[k].Name+": "+msg)
			}
		case r.res.Fingerprint != f.res.Fingerprint || r.cycles != f.cycles || r.failed != f.failed:
			out.Problems = append(out.Problems, fmt.Sprintf("run %d of %s diverged: fingerprint %016x, %d cycles, %d failed phases; first run %016x, %d cycles, %d failed phases",
				i, specs[k].Name, r.res.Fingerprint, r.cycles, r.failed, f.res.Fingerprint, f.cycles, f.failed))
		}
		if i < len(runs) {
			setups = append(setups, r.setup)
			packs = append(packs, r.pack.Seconds())
			packD = append(packD, r.pack)
			rates = append(rates, float64(r.cycles)/r.pack.Seconds())
			skipped += r.res.Skipped
			cycles += r.cycles
		}
	}
	out.Gated["setup_s"] = median(setups)
	// The heap is averaged over the first round, one reading per pack:
	// later readings also hold the results of however many runs the
	// window got through, and a single pack's depends on its layout.
	out.Gated["heap_mb"] = heapSum / dnnPacks
	out.Gated["sim_cycles_per_s"] = median(rates)
	out.Gated["wait_p50_ms"] = percentile(packD, 50)
	out.Report = []Named{
		{"pack_s", median(packs), "s"},
		{"pack_runs", float64(len(runs)), "count"},
		{"skipped_frac", ratio(float64(skipped), float64(cycles)), "ratio"},
	}
	// The first pack's counts and the operation counts repeat for the
	// seed whatever the window's length.
	ref := runs[0]
	out.Counts = map[string]uint64{
		"pack_fingerprint": ref.res.Fingerprint,
		"pack_cycles":      ref.cycles,
		"pack_phases":      uint64(len(ref.res.Phases)),
		"delivered_words":  ref.res.Delivered,
		"opened":           uint64(ref.res.Opened),
		"violations":       ref.res.Violations,
		"skipped_cycles":   ref.res.Skipped,
		"ops_attempted":    uint64(out.Attempted),
		"ops_failed":       uint64(out.Failed),
	}
	if opt.Trace {
		// Per-layer counts are summed over the traced runs, the other
		// figures averaged; the overhead compares the traced runs' median
		// pack time with the untraced ones'.
		for k := range traced[0].layers {
			var sum float64
			for _, r := range traced {
				sum += r.layers[k]
			}
			if k != "conformance.violations" && k != "ni.words_delivered" {
				sum /= float64(len(traced))
			}
			layers[k] = sum
		}
		var tp []float64
		for _, r := range traced {
			tp = append(tp, r.pack.Seconds())
		}
		layers["trace.overhead_frac"] = ratio(median(tp), median(packs)) - 1
		out.Layers = layers
	}
	return out, nil
}
