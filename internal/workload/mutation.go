package workload

import (
	"fmt"

	"daelite/internal/conformance"
	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
)

// MutationSmoke proves the pack-as-test machinery can actually see
// corruption: it opens the pack's first broadcast-capable phase on a
// healthy cycle-accurate platform, drives its traffic, then flips a
// programmed slot-table entry on a tree (or path) link mid-broadcast.
// The conformance checkers must report table/contention violations; a
// harness that cannot see a planted flip proves nothing about real ones.
// Returns the violation count observed after the flip.
func MutationSmoke(c *Compiled, workers int) (uint64, error) {
	if len(c.Phases) == 0 {
		return 0, fmt.Errorf("workload: pack %s has no phases", c.Name())
	}
	// Prefer a broadcast phase — the flip must land during a multicast —
	// and fall back to the first phase for packs without one.
	ph := &c.Phases[0]
	for i := range c.Phases {
		if c.Phases[i].Kind == "broadcast" {
			ph = &c.Phases[i]
			break
		}
	}

	p, err := c.BuildPlatform(workers, false)
	if err != nil {
		return 0, err
	}
	reg := telemetry.NewRegistry()
	ck := conformance.Attach(p, reg, conformance.Options{SampleEvery: 32, LineRate: true})
	node := func(co ConnReq) core.ConnectionSpec {
		cs := core.ConnectionSpec{Src: p.Mesh.NI(co.Src.X, co.Src.Y, co.Src.NI), SlotsFwd: co.Slots}
		if co.Dst != nil {
			cs.Dst = p.Mesh.NI(co.Dst.X, co.Dst.Y, co.Dst.NI)
		}
		for _, d := range co.Dsts {
			cs.Dsts = append(cs.Dsts, p.Mesh.NI(d.X, d.Y, d.NI))
		}
		return cs
	}
	specs := make([]core.ConnectionSpec, len(ph.Conns))
	for i, cn := range ph.Conns {
		specs[i] = node(cn)
	}
	conns, _ := p.OpenBatch(specs)
	var victim topology.LinkID = -1
	for _, cn := range conns {
		if cn == nil {
			continue
		}
		if victim < 0 {
			// The flip targets a router's slot table, so the corrupted
			// hop must be router-owned (the first tree edge is the NI's
			// injection link).
			if cn.Tree != nil {
				for _, e := range cn.Tree.Edges {
					if p.Routers[p.Mesh.Graph.Link(e.Link).From] != nil {
						victim = e.Link
						break
					}
				}
			} else if cn.Fwd != nil && len(cn.Fwd.Paths[0].Path) >= 2 {
				victim = cn.Fwd.Paths[0].Path[1]
			}
		}
	}
	if victim < 0 {
		return 0, fmt.Errorf("workload: pack %s: no routed link to corrupt", c.Name())
	}
	if _, err := p.CompleteConfig(5_000_000); err != nil {
		return 0, err
	}
	for _, cn := range conns {
		if cn != nil && cn.State == core.Opening {
			cn.State = core.Open
		}
	}
	ck.Resync()
	p.Run(256)
	if ck.Violations() != 0 {
		return 0, fmt.Errorf("workload: healthy phase reported %d violations before the flip", ck.Violations())
	}

	link := p.Mesh.Graph.Link(victim)
	occ := p.Alloc.LinkOccupancy(link.ID)
	if occ.Count() == 0 {
		return 0, fmt.Errorf("workload: victim link %d carries no reservation", link.ID)
	}
	slot := occ.Slots()[0]
	if _, err := fault.Attach(p, c.Spec.Seed, fault.Fault{
		Kind: fault.SlotTableFlip, Router: link.From, Out: link.FromPort,
		Slot: slot, From: p.Cycle() + 8,
	}); err != nil {
		return 0, err
	}
	p.Run(512)
	caught := ck.ViolationCount(conformance.CheckTable) + ck.ViolationCount(conformance.CheckContention)
	if caught == 0 {
		return 0, fmt.Errorf("workload: planted slot-table flip on link %d went undetected", link.ID)
	}
	return caught, nil
}
