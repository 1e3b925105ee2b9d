package workload

// Property test for the DNN compiler's admissibility contract: for any
// seeded layer graph, (1) the multicast broadcast demand of every
// compiled phase, summed per link, never exceeds the wheel capacity the
// allocator actually claims — checked bit-for-bit against the allocator
// after opening the phase — and (2) tearing the phase down returns the
// allocator to its pre-phase fingerprint exactly.

import (
	"testing"

	"daelite/internal/conformance"
	"daelite/internal/core"
	"daelite/internal/sim"
	"daelite/internal/spec"
)

// randomDNNSpec expands a seed into a valid-by-construction DNN pack:
// random mesh, memory tiles, layer widths and transfer sizes. Consumer
// tiles never collide with memory tiles, so every draw must compile.
func randomDNNSpec(seed uint64) *Spec {
	rng := sim.NewRNG(seed)
	width := 3 + rng.Intn(2)
	height := 3 + rng.Intn(2)
	s := &Spec{
		Kind: "dnn", Name: "dnn-prop", Seed: seed,
		Mesh: spec.MeshSpec{Width: width, Height: height},
		DNN:  &DNNSpec{BytesPerWord: 4},
	}
	// Memory tiles on the top row, consumers strictly below it.
	nmem := 1 + rng.Intn(2)
	for i := 0; i < nmem; i++ {
		s.DNN.MemoryTiles = append(s.DNN.MemoryTiles, spec.Coord{X: i % width, Y: 0})
	}
	var pool []spec.Coord
	for y := 1; y < height; y++ {
		for x := 0; x < width; x++ {
			pool = append(pool, spec.Coord{X: x, Y: y})
		}
	}
	layers := 2 + rng.Intn(3)
	for l := 0; l < layers; l++ {
		// Random distinct tiles from the consumer pool.
		perm := make([]int, len(pool))
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		ntiles := 1 + rng.Intn(3)
		ls := LayerSpec{
			Neurons:         8 + rng.Intn(64),
			WeightBytes:     4 + rng.Intn(512),
			ActivationBytes: 4 + rng.Intn(256),
		}
		for i := 0; i < ntiles; i++ {
			ls.Tiles = append(ls.Tiles, pool[perm[i]])
		}
		s.DNN.Layers = append(s.DNN.Layers, ls)
	}
	return s
}

func TestDNNPackAdmissibilityProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		s := randomDNNSpec(seed)
		c, err := Compile(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p, err := c.BuildPlatform(1, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		model := conformance.NewModel(p)
		wheel := p.Params.Wheel
		for pi := range c.Phases {
			ph := &c.Phases[pi]
			preFP := p.Alloc.Fingerprint()
			specs := make([]core.ConnectionSpec, len(ph.Conns))
			for i, cn := range ph.Conns {
				cs := core.ConnectionSpec{Src: p.Mesh.NI(cn.Src.X, cn.Src.Y, cn.Src.NI), SlotsFwd: cn.Slots}
				if cn.Dst != nil {
					cs.Dst = p.Mesh.NI(cn.Dst.X, cn.Dst.Y, cn.Dst.NI)
				}
				for _, d := range cn.Dsts {
					cs.Dsts = append(cs.Dsts, p.Mesh.NI(d.X, d.Y, d.NI))
				}
				specs[i] = cs
			}
			conns, errs := p.OpenBatch(specs)
			live := make([]*core.Connection, 0, len(conns))
			for i, cn := range conns {
				if cn == nil || errs[i] != nil {
					continue
				}
				live = append(live, cn)
			}
			if _, err := p.CompleteConfig(5_000_000); err != nil {
				t.Fatalf("seed %d phase %s: settle: %v", seed, ph.Name, err)
			}
			for _, cn := range live {
				if cn.State == core.Opening {
					cn.State = core.Open
				}
			}

			// Property 1: per-link demand claimed by the allocator equals
			// the model's closed-form occupancy and never exceeds the
			// wheel.
			occ := model.LinkOccupancy(live)
			for _, l := range p.Mesh.Links() {
				got := p.Alloc.LinkOccupancy(l.ID)
				if got.Count() > wheel {
					t.Fatalf("seed %d phase %s: link %d claims %d slots against a %d-slot wheel",
						seed, ph.Name, l.ID, got.Count(), wheel)
				}
				if want := occ[l.ID]; got.Bits != want.Bits {
					t.Fatalf("seed %d phase %s: link %d occupancy %#x, model says %#x",
						seed, ph.Name, l.ID, got.Bits, want.Bits)
				}
			}

			// Property 2: teardown restores the pre-phase allocator
			// fingerprint bit for bit.
			for _, cn := range live {
				if err := p.Close(cn); err != nil {
					t.Fatalf("seed %d phase %s: close: %v", seed, ph.Name, err)
				}
			}
			if _, err := p.CompleteConfig(5_000_000); err != nil {
				t.Fatalf("seed %d phase %s: settle teardown: %v", seed, ph.Name, err)
			}
			if got := p.Alloc.Fingerprint(); got != preFP {
				t.Fatalf("seed %d phase %s: teardown fingerprint %016x != pre-phase %016x",
					seed, ph.Name, got, preFP)
			}
		}
	}
}

// TestDNNPackPropertyEndToEnd runs one random pack through the full
// runner, whose differential checks subsume the static properties and
// add the latency and delivery laws.
func TestDNNPackPropertyEndToEnd(t *testing.T) {
	c, err := Compile(randomDNNSpec(99))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("random pack failed:\n%s\n%v", res.Summary(), res.Failures)
	}
}
