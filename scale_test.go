package daelite

// TestScale16x16 gates the tentpole claim of the hierarchical config
// region work: a 16x16 torus — 512 elements, four times the old 7-bit
// ceiling — completes connection set-up, stalled-connection repair and
// teardown entirely through the per-region configuration trees (no
// direct slot-table programming exists outside the decoders), with the
// conformance checkers attached throughout and zero violations.

import (
	"fmt"
	"testing"

	"daelite/internal/conformance"
	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

func TestScale16x16(t *testing.T) {
	params := core.DefaultParams()
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 16, Height: 16, NIsPerRouter: 1, Wrap: true}, params, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.Mesh.NumNodes(); n != 512 {
		t.Fatalf("16x16 torus has %d elements, want 512", n)
	}
	if p.Regions.Num() < 2 {
		t.Fatalf("512 elements partitioned into %d region(s)", p.Regions.Num())
	}

	reg := telemetry.NewRegistry()
	ck := conformance.Attach(p, reg, conformance.Options{SampleEvery: 64})
	tr := tracing.New(tracing.Options{})
	p.AttachTracer(tr)

	noViolations := func(stage string) {
		t.Helper()
		ck.CheckNow()
		if v := ck.Violations(); v != 0 {
			t.Fatalf("%s: %d conformance violations, first: %+v", stage, v, ck.Recorded()[0])
		}
	}

	// A seeded batch: row connections whose paths cross several region
	// boundaries, plus a multicast spanning three regions.
	var conns []*core.Connection
	for y := 0; y < 16; y += 3 {
		c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, y, 0), Dst: p.Mesh.NI(8, y, 0), SlotsFwd: 2})
		if err != nil {
			t.Fatalf("open row %d: %v", y, err)
		}
		conns = append(conns, c)
	}
	mc, err := p.Open(core.ConnectionSpec{
		Src:      p.Mesh.NI(2, 2, 0),
		Dsts:     []topology.NodeID{p.Mesh.NI(5, 2, 0), p.Mesh.NI(10, 2, 0), p.Mesh.NI(15, 2, 0)},
		SlotsFwd: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	conns = append(conns, mc)
	for _, c := range conns {
		if err := p.AwaitOpen(c, 1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range conns[:len(conns)-1] {
		if c.Setup.Regions < 2 {
			t.Fatalf("conn %d (%s) set up through %d region(s), want >= 2", c.ID, c.Setup.Detail, c.Setup.Regions)
		}
	}

	// The causal trace of every regioned set-up must be one root span
	// fanning out into per-region inject children plus a settle child,
	// and its cycle count must reconcile exactly with the telemetry
	// span's SetupCycles — the tracer and the span ledger are two views
	// of one transaction.
	spans := tr.Spans()
	children := map[uint64][]tracing.Span{}
	rootByName := map[string]tracing.Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			rootByName[s.Name] = s
		}
	}
	for _, c := range conns {
		name := fmt.Sprintf("setup #%d", c.Setup.ID)
		root, ok := rootByName[name]
		if !ok {
			t.Fatalf("no trace root %q for connection %d", name, c.ID)
		}
		if got, want := root.Cycles(), c.SetupCycles(); got != want {
			t.Fatalf("conn %d: trace root spans %d cycles, telemetry span %d", c.ID, got, want)
		}
		var injects int
		var settleEnd uint64
		for _, ch := range children[root.ID] {
			switch ch.Cat {
			case "inject":
				injects++
				if ch.Start != root.Start {
					t.Fatalf("conn %d: inject child starts at %d, root at %d", c.ID, ch.Start, root.Start)
				}
				if ch.End > root.End {
					t.Fatalf("conn %d: inject child ends at %d after root %d", c.ID, ch.End, root.End)
				}
			case "settle":
				settleEnd = ch.End
			}
		}
		if injects != c.Setup.Regions {
			t.Fatalf("conn %d: %d inject children, telemetry says %d regions", c.ID, injects, c.Setup.Regions)
		}
		if settleEnd != root.End {
			t.Fatalf("conn %d: settle child ends at %d, root at %d", c.ID, settleEnd, root.End)
		}
	}
	ck.Resync()
	p.Run(2000)
	noViolations("after set-up")

	// Fault and repair: kill a router-router link in the middle of the
	// first row connection's forward path, let the health monitor latch
	// the stall, and repair through the config trees.
	victim := conns[0]
	path := victim.Fwd.Paths[0].Path
	dead := path[len(path)/2]
	src := traffic.NewSource(p.Sim, "scale-src", p.NI(victim.Spec.Src), victim.SrcChannel,
		traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.2, Seed: 11})
	sink := traffic.NewSink(p.Sim, "scale-sink", p.NI(victim.Spec.Dst), victim.DstChannel)
	if _, err := fault.Attach(p, 7, fault.Fault{Kind: fault.LinkDown, Link: dead, From: p.Cycle() + 200}); err != nil {
		t.Fatal(err)
	}
	mon := core.NewHealthMonitor(p, 256)
	if _, ok := p.Sim.RunUntil(func() bool { return len(mon.Stalled()) > 0 }, 50_000); !ok {
		t.Fatal("stall never detected after link failure")
	}
	repaired, err := p.RepairStalled(mon, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) == 0 {
		t.Fatal("RepairStalled repaired nothing")
	}
	ck.Resync()
	before := sink.Received()
	p.Run(2000)
	if got := sink.Received(); got <= before {
		t.Fatalf("no traffic delivered after repair (%d -> %d)", before, got)
	}
	if src.Sent() == 0 {
		t.Fatal("source injected nothing")
	}
	noViolations("after repair")

	// Teardown: close everything through the trees and verify the
	// platform conforms with zero live connections (all slot tables must
	// fold back to idle).
	for _, c := range p.Connections() {
		if err := p.Close(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.CompleteConfig(1_000_000); err != nil {
		t.Fatal(err)
	}
	ck.Resync()
	p.Run(1000)
	noViolations("after teardown")
}
