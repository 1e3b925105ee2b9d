package trace

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"daelite/internal/core"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

func TestRecorderCapturesChangesOnly(t *testing.T) {
	s := sim.New()
	w := sim.NewReg(s, phit.Idle())
	r := New(s)
	sig := r.AddValid("link.valid", w)
	// 4 idle cycles, then one active, then idle again.
	cyc := 0
	s.Add(&sim.Func{Label: "drv", OnEval: func(uint64) {
		cyc++
		if cyc == 5 {
			w.Set(phit.Flit{Valid: true, Data: 1})
		} else {
			w.Set(phit.Idle())
		}
	}})
	s.Run(10)
	// Changes: initial 0, rise, fall = 3.
	if got := sig.Changes(); got != 3 {
		t.Fatalf("changes = %d, want 3", got)
	}
}

func TestVCDOutput(t *testing.T) {
	s := sim.New()
	w := sim.NewReg(s, phit.Idle())
	cw := sim.NewReg(s, phit.ConfigWord{})
	r := New(s)
	r.AddFlitWire("data", w)
	r.AddConfigWire("cfg", cw)
	count := 0
	r.AddCounter("count", func() int { return count })
	s.Add(&sim.Func{Label: "drv", OnEval: func(c uint64) {
		if c == 3 {
			w.Set(phit.Flit{Valid: true, Data: 0xABCD})
			cw.Set(phit.NewConfigWord(0x55))
			count = 7
		} else {
			w.Set(phit.Idle())
			cw.Set(phit.ConfigWord{})
		}
	}})
	s.Run(8)
	var b strings.Builder
	if err := r.WriteVCD(&b, "1ns"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"$var wire 36 ! data $end",
		"$var wire 8 \" cfg $end",
		"$var real 64 # count $end",
		"$enddefinitions $end",
		"r7 #",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD missing %q:\n%s", want, out)
		}
	}
	// The data word appears as part of a binary vector change.
	if !strings.Contains(out, "1010101111001101 !") {
		t.Fatalf("payload bits missing:\n%s", out)
	}
	// Time markers are present and ordered.
	if !strings.Contains(out, "#4") {
		t.Fatalf("change timestamp missing:\n%s", out)
	}
}

func TestVCDIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		id := vcdID(i)
		if seen[id] {
			t.Fatalf("duplicate id %q at %d", id, i)
		}
		seen[id] = true
	}
}

func TestSanitize(t *testing.T) {
	if sanitize("NI00->R00[2]") != "NI00__R00_2_" {
		t.Fatalf("sanitize = %q", sanitize("NI00->R00[2]"))
	}
}

// TestGaugeSignalsDeterministicAcrossWorkers drives Real-kind VCD signals
// from telemetry gauges: the waveform and the registry are sampled in the
// same probe pass, so the emitted VCD must be byte-identical for every
// worker count and the last traced value must equal what the
// registry reports.
func TestGaugeSignalsDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		params := core.DefaultParams()
		params.Workers = workers
		p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 2, Height: 2, NIsPerRouter: 1}, params, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		p.AttachTelemetry(reg, 4)
		rec := New(p.Sim)
		c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(1, 1, 0), SlotsFwd: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AwaitOpen(c, 10000); err != nil {
			t.Fatal(err)
		}
		srcName := p.Mesh.Node(c.Spec.Src).Name
		q := reg.Gauge("ni_send_queue_depth",
			telemetry.L("ni", srcName), telemetry.L("ch", strconv.Itoa(c.SrcChannel)))
		sq := rec.AddGauge(srcName+".sendq", q)
		rec.AddGauge("cycle", reg.Gauge("cycle"))
		// Oversubscribe the 2/8 reservation so the send queue visibly
		// fills and drains.
		traffic.NewSource(p.Sim, "src", p.NI(c.Spec.Src), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.5, Seed: 5})
		traffic.NewSink(p.Sim, "sink", p.NI(c.Spec.Dst), c.DstChannel)
		p.Run(512)
		if sq.Changes() == 0 {
			t.Fatal("send-queue gauge never changed in the trace")
		}
		// The last traced value is the registry's current value.
		if got := sq.last; got != strconv.FormatInt(q.Value(), 10) {
			t.Fatalf("trace ends at %s, registry says %d", got, q.Value())
		}
		var b strings.Builder
		if err := rec.WriteVCD(&b, ""); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	base := run(1)
	for _, w := range []int{2, runtime.NumCPU()} {
		if got := run(w); got != base {
			t.Fatalf("VCD differs between workers=1 and workers=%d", w)
		}
	}
}

// TestTraceRealPlatform attaches the recorder to a live platform and
// checks the traced link shows exactly the configured TDM cadence.
func TestTraceRealPlatform(t *testing.T) {
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 2, Height: 2, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := New(p.Sim)
	src := p.Mesh.NI(1, 0, 0)
	sig := rec.AddValid("ni10.out.valid", p.NI(src).OutputWire())
	c, err := p.Open(core.ConnectionSpec{Src: src, Dst: p.Mesh.NI(0, 1, 0), SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 10000); err != nil {
		t.Fatal(err)
	}
	before := sig.Changes()
	for i := 0; i < 4; i++ {
		p.NI(src).Send(c.SrcChannel, phit.Word(i))
	}
	p.Run(64)
	if sig.Changes() <= before {
		t.Fatal("traffic produced no signal changes")
	}
	var b strings.Builder
	if err := rec.WriteVCD(&b, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ni10.out.valid") {
		t.Fatal("signal missing from VCD")
	}
}
