package daelite

// The chaos determinism soak: a full platform under seeded CBR traffic,
// fault injection and online repair must reproduce a pinned result. A
// probe fingerprints every NI output wire every cycle, so even a single
// transiently different flit anywhere in the network — not just a
// different end-to-end outcome — fails the comparison. This is the
// system-level counterpart of the pinned kernel-level fingerprints in
// internal/sim.

import (
	"fmt"
	"testing"

	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/sim"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// fnvMix folds v into an FNV-1a style running hash.
func fnvMix(h, v uint64) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xFF
		h *= 1099511628211
	}
	return h
}

// soakResult captures everything observable about one soak run.
type soakResult struct {
	wireHash  uint64
	sent      uint64
	received  uint64
	ooo       uint64
	repairs   int
	activated uint64
	endCycle  uint64
}

// runChaosSoak builds a 4x4 platform, opens seeded connections with CBR
// sources and sinks, schedules link failures mid-run, and repairs stalled
// connections as the health monitor latches them. Everything is derived
// from seed; the return value is a pure function of (seed, cycles).
func runChaosSoak(t *testing.T, seed uint64, cycles int) soakResult {
	t.Helper()
	params := core.DefaultParams()
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1}, params, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)

	type stream struct {
		src  *traffic.Source
		sink *traffic.Sink
	}
	var streams []stream
	tries := 0
	for len(streams) < 5 && tries < 100 {
		tries++
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
		src := traffic.NewSource(p.Sim, fmt.Sprintf("src%d", c.ID), p.NI(s), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.04 + 0.02*float64(rng.Intn(3)), Seed: rng.Uint64()})
		sink := traffic.NewSink(p.Sim, fmt.Sprintf("sink%d", c.ID), p.NI(d), c.DstChannel)
		streams = append(streams, stream{src: src, sink: sink})
	}
	if len(streams) == 0 {
		t.Fatal("no connections could be opened")
	}

	// Two seeded link failures spread across the soak window.
	sites := fault.PickLinks(rng, fault.RouterLinks(p), 2)
	var faults []fault.Fault
	start := p.Cycle()
	for i, l := range sites {
		at := start + uint64((i+1)*cycles/(len(sites)+1))
		faults = append(faults, fault.Fault{Kind: fault.LinkDown, Link: l, From: at})
	}
	inj, err := fault.Attach(p, rng.Uint64(), faults...)
	if err != nil {
		t.Fatal(err)
	}

	// The probe hashes every NI output wire after every commit: any
	// divergence anywhere in the network, on any cycle, changes the hash.
	var res soakResult
	outs := p.Mesh.AllNIs
	p.Sim.AddProbe(func(cycle uint64) {
		for _, id := range outs {
			f := p.NI(id).OutputWire().Get()
			if f.Valid {
				res.wireHash = fnvMix(res.wireHash, uint64(f.Data))
				res.wireHash = fnvMix(res.wireHash, cycle)
			}
		}
	})

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
		repaired, err := p.RepairStalled(mon, 1_000_000)
		if err != nil {
			t.Fatalf("repair at cycle %d: %v", p.Cycle(), err)
		}
		res.repairs += len(repaired)
	}

	for _, st := range streams {
		res.sent += st.src.Sent()
		res.received += st.sink.Received()
		res.ooo += st.sink.OutOfOrder()
	}
	res.activated = inj.Counters().Total()
	res.endCycle = p.Cycle()
	return res
}

// TestChaosSoakFingerprintPinned holds the same seeded chaos soak —
// traffic, injected link failures, online repair — to the result the
// full-register-sweep kernel produced, down to every flit on every NI
// wire: the write-driven kernel and the routers' and NIs' skipped
// re-drives must not move a single value.
func TestChaosSoakFingerprintPinned(t *testing.T) {
	const seed, cycles = 42, 12000
	want := soakResult{
		wireHash:  0x377492fba7460e9,
		sent:      3640,
		received:  3606,
		repairs:   1,
		activated: 92,
		endCycle:  12354,
	}
	got := runChaosSoak(t, seed, cycles)
	if got != want {
		t.Fatalf("chaos soak diverged from the pinned result:\n got %+v\nwant %+v", got, want)
	}
}
