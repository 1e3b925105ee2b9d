package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"daelite/internal/conformance"
	"daelite/internal/core"
	"daelite/internal/ni"
	"daelite/internal/phit"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// torus16-stream: the 16x16 torus (512 elements, six configuration
// regions) with the default kernel, a seeded set of unicast and
// multicast connections opened through the real configuration path, and
// CBR and bursty sources below their reservations. The timed window is
// whole torusChunk-cycle Run calls until the measured seconds are up.
const (
	torusSide      = 16
	torusWheel     = 16
	torusUnicasts  = 256
	torusMulticast = 32
	torusChunk     = 1024
	torusSetups    = 5
	// torusCheckpoint is the chunk after which the simulated counts are
	// recorded; every run reaches it, so they repeat for a seed.
	torusCheckpoint = 8
	// torusDrain is the margin after the sources stop within which every
	// offered word must arrive: far above the worst path latency plus a
	// full send queue drained at one slot per wheel.
	torusDrain = 4096
	// torusLoad is the share of each reservation the sources offer.
	torusLoad = 0.75
)

type torusFlow struct {
	conn  *core.Connection
	src   *traffic.Source
	sinks []*traffic.Sink
}

type torusBench struct {
	p         *core.Platform
	flows     []*torusFlow
	requested int
}

// buildTorus builds the platform, opens the seeded connection set in one
// batch, settles its configuration and attaches the traffic.
func buildTorus(seed uint64) (*torusBench, error) {
	params := core.DefaultParams()
	params.Wheel = torusWheel
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: torusSide, Height: torusSide, NIsPerRouter: 1, Wrap: true}, params, 0, 0)
	if err != nil {
		return nil, err
	}
	// The torus looks the same from every node, so the work a connection
	// costs the allocator and the datapath depends only on the offsets
	// from its source to its destinations. Every seed opens the same
	// fixed multiset of offsets from its own random sources: the inputs
	// differ, the amount of work does not.
	shape := newRand(0, 0x746f727573)
	rng := newRand(seed, 0x746f727573)
	offset := func() [2]int {
		for {
			dx, dy := shape.IntN(torusSide/2+1), shape.IntN(torusSide/2+1)
			if d := dx + dy; d >= 2 && d <= torusSide/2 {
				return [2]int{dx, dy}
			}
		}
	}
	at := func(x, y int, d [2]int) topology.NodeID {
		return p.Mesh.NI((x+d[0])%torusSide, (y+d[1])%torusSide, 0)
	}
	var specs []core.ConnectionSpec
	for i := 0; i < torusUnicasts; i++ {
		d, slots := offset(), 1+shape.IntN(2)
		x, y := rng.IntN(torusSide), rng.IntN(torusSide)
		specs = append(specs, core.ConnectionSpec{Src: at(x, y, [2]int{}), Dst: at(x, y, d), SlotsFwd: slots})
	}
	for i := 0; i < torusMulticast; i++ {
		n := 3 + shape.IntN(4)
		seen := map[[2]int]bool{}
		var offs [][2]int
		for len(offs) < n {
			if d := offset(); !seen[d] {
				seen[d] = true
				offs = append(offs, d)
			}
		}
		x, y := rng.IntN(torusSide), rng.IntN(torusSide)
		var dsts []topology.NodeID
		for _, d := range offs {
			dsts = append(dsts, at(x, y, d))
		}
		specs = append(specs, core.ConnectionSpec{Src: at(x, y, [2]int{}), Dsts: dsts, SlotsFwd: 1})
	}
	tb := &torusBench{p: p, requested: len(specs)}
	conns, errs := p.OpenBatch(specs)
	if _, err := p.CompleteConfig(1 << 22); err != nil {
		p.Sim.Shutdown()
		return nil, err
	}
	for i, c := range conns {
		if errs[i] != nil || c == nil {
			continue // no fit: an input the platform refused, not an operation
		}
		if c.State == core.Opening {
			c.State = core.Open
		}
		tb.flows = append(tb.flows, tb.attach(len(tb.flows), c, seed))
	}
	return tb, nil
}

// attach drives one connection with a source below its reservation and
// one verifying sink per destination: every word must arrive once, in
// order, with the payload its sequence number predicts.
func (tb *torusBench) attach(i int, c *core.Connection, seed uint64) *torusFlow {
	p := tb.p
	payload := func(seq uint64) phit.Word { return phit.Word(mix64(uint64(i)<<40 ^ seq ^ seed<<20)) }
	pattern := traffic.CBR
	if i%2 == 1 {
		pattern = traffic.Bursty
	}
	f := &torusFlow{conn: c}
	f.src = traffic.NewSource(p.Sim, fmt.Sprintf("bench-src%d", i), p.NI(c.Spec.Src), c.SrcChannel, traffic.SourceConfig{
		Pattern: pattern,
		Rate:    torusLoad * float64(c.Spec.SlotsFwd) / float64(p.Params.Wheel),
		Seed:    seed ^ uint64(i)*0x9e3779b97f4a7c15,
		Payload: payload,
	})
	sink := func(n topology.NodeID, ch int) {
		k := traffic.NewSink(p.Sim, fmt.Sprintf("bench-sink%d.%d", i, len(f.sinks)), p.NI(n), ch)
		next := uint64(0)
		k.SetVerify(func(d ni.Delivery) error {
			if d.Tag.Seq != next {
				return fmt.Errorf("word %d arrived when %d was due", d.Tag.Seq, next)
			}
			if d.Word != payload(next) {
				return fmt.Errorf("word %d corrupted", next)
			}
			next++
			return nil
		})
		f.sinks = append(f.sinks, k)
	}
	if c.Tree != nil {
		for _, d := range c.Spec.Dsts {
			sink(d, c.DstChannels[d])
		}
	} else {
		sink(c.Spec.Dst, c.DstChannel)
	}
	return f
}

func (tb *torusBench) delivered() uint64 {
	var n uint64
	for _, f := range tb.flows {
		for _, k := range f.sinks {
			n += k.Received()
		}
	}
	return n
}

// window runs whole chunks until the seconds are up and returns each
// chunk's duration and the window's simulated cycles and wall time.
// onChunk, when set, runs after each chunk.
func (tb *torusBench) window(seconds float64, spans *SpanLog, onChunk func(n int)) (chunks []time.Duration, cycles uint64, elapsed time.Duration) {
	start := time.Now()
	c0 := tb.p.Cycle()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for len(chunks) == 0 || time.Now().Before(deadline) {
		d := spans.Time("sim", "Platform.Run", len(chunks), func() { tb.p.Run(torusChunk) })
		chunks = append(chunks, d)
		if onChunk != nil {
			onChunk(len(chunks))
		}
	}
	return chunks, tb.p.Cycle() - c0, time.Since(start)
}

func runTorus(opt Options) (*Outcome, error) {
	var setups []float64
	var tb *torusBench
	for i := 0; i < torusSetups; i++ {
		if tb != nil {
			tb.p.Sim.Shutdown()
		}
		t0 := time.Now()
		var err error
		if tb, err = buildTorus(opt.Seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p := tb.p
	defer p.Sim.Shutdown()
	out := &Outcome{Gated: map[string]float64{}, Counts: map[string]uint64{}, Workers: p.Sim.Workers()}
	var configWords, settleCycles uint64
	for _, f := range tb.flows {
		configWords += uint64(f.conn.Setup.Words)
		settleCycles += f.conn.Setup.Cycles()
	}
	out.Counts["conns_requested"] = uint64(tb.requested)
	out.Counts["conns_opened"] = uint64(len(tb.flows))
	out.Counts["config_words"] = configWords
	out.Counts["setup_cycles"] = p.Cycle()

	win := opt.Seconds
	if opt.Trace {
		win /= 2
	}
	// The heap is read at the checkpoint too: sinks keep every latency
	// sample, so at the window's end it would grow with the cycles a
	// faster kernel gets through.
	checkpoint := func(n int) {
		if n == torusCheckpoint {
			out.Counts["checkpoint_cycle"] = p.Cycle()
			out.Counts["checkpoint_delivered_words"] = tb.delivered()
			out.Gated["heap_mb"] = heapMB()
		}
	}
	w0 := snapActivity(p)
	chunks, cycles, elapsed := tb.window(win, nil, checkpoint)
	w1 := snapActivity(p)
	if _, ok := out.Counts["checkpoint_cycle"]; !ok {
		// A run shorter than the checkpoint still records it.
		p.Run(uint64(torusCheckpoint-len(chunks)) * torusChunk)
		checkpoint(torusCheckpoint)
	}
	// Medians over the chunks keep a burst of host noise shorter than
	// half the window out of the figures.
	chunkMS := percentile(chunks, 50)
	cps := 1e3 * torusChunk / chunkMS
	out.Gated["setup_s"] = median(setups)
	out.Gated["sim_cycles_per_s"] = cps
	out.Gated["wait_p50_ms"] = chunkMS
	out.Report = []Named{
		{"window_cycles_per_s", float64(cycles) / elapsed.Seconds(), "cycles/s"},
		{"window_cycles", float64(cycles), "cycles"},
		{"conns_opened", float64(len(tb.flows)), "count"},
		{"router_outputs_live_frac", w0.liveOutputs(w1), "ratio"},
	}

	if opt.Trace {
		layers := zeroLayers()
		prof, err := startProfile(opt.Profile)
		if err != nil {
			return nil, err
		}
		a0, alloc0 := snapActivity(p), totalAlloc()
		tchunks, tcycles, telapsed := tb.window(win, opt.Spans, nil)
		a1, alloc1 := snapActivity(p), totalAlloc()
		if err := prof.Stop(layers); err != nil {
			return nil, err
		}
		a0.addLayers(a1, layers)
		layers["sim.ns_per_cycle"] = ratio(float64(telapsed.Nanoseconds()), float64(tcycles))
		layers["sim.workers"] = float64(p.Sim.Workers())
		layers["sim.skipped_frac"] = ratio(float64(p.Sim.SkippedCycles()), float64(p.Cycle()))
		layers["configtree.words_per_open"] = ratio(float64(configWords), float64(len(tb.flows)))
		layers["configtree.settle_cycles_per_open"] = ratio(float64(settleCycles), float64(len(tb.flows)))
		layers["runtime.alloc_bytes_per_cycle"] = ratio(float64(alloc1-alloc0), float64(tcycles))
		layers["trace.overhead_frac"] = ratio(percentile(tchunks, 50), chunkMS) - 1
		// The invariant checkers run after the profiled window, so their
		// cost does not blur the kernel's profile.
		ck := conformance.Attach(p, telemetry.NewRegistry(), conformance.Options{LineRate: true})
		p.Run(4 * torusChunk)
		layers["conformance.violations"] = float64(ck.Violations())
		out.Report = append(out.Report, violationReport(ck)...)
		out.Layers = layers
	}

	// Stop offering, let every offered word arrive, then check each
	// connection: an operation is one connection.
	for _, f := range tb.flows {
		f.src.Detach()
	}
	p.Run(torusDrain)
	out.Attempted = len(tb.flows)
	for i, f := range tb.flows {
		if err := f.check(); err != nil {
			out.Failed++
			out.Failures = append(out.Failures, fmt.Sprintf("conn %d: %v", i, err))
		}
	}
	out.Counts["ops_failed"] = uint64(out.Failed)
	return out, nil
}

func (f *torusFlow) check() error {
	for j, k := range f.sinks {
		if err := k.VerifyErr(); err != nil {
			return fmt.Errorf("sink %d: %w", j, err)
		}
		if k.OutOfOrder() != 0 {
			return fmt.Errorf("sink %d: %d words out of order", j, k.OutOfOrder())
		}
		if k.Received() != f.src.Sent() {
			return fmt.Errorf("sink %d: %d of %d offered words delivered", j, k.Received(), f.src.Sent())
		}
	}
	return nil
}

// newRand returns the generator of one input stream of a seed. Both PCG
// words are hashed: seeds or streams that differ in a few bits would
// otherwise start from nearby states and draw correlated inputs.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(mix64(seed^0x9e3779b97f4a7c15), mix64(stream+seed*0xd1b54a32d192ed03)))
}

// mix64 is the splitmix64 finalizer: payloads every word of which
// depends on its connection and sequence number.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
