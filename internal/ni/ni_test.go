package ni

import (
	"testing"

	"daelite/internal/cfgproto"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
)

func params() Params {
	return Params{Wheel: 8, SlotWords: 2, NumChannels: 4, SendQueueDepth: 8, RecvQueueDepth: 16}
}

// pair wires two NIs directly together (a single-link "network"): A's
// output is B's input and vice versa. A word injected at slot s arrives
// in the peer's receive table slot s+1.
func pair(t *testing.T, p Params) (*sim.Simulator, *NI, *NI) {
	t.Helper()
	s := sim.New()
	a, err := New(s, "A", 1, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(s, "B", 2, p)
	if err != nil {
		t.Fatal(err)
	}
	a.ConnectInput(b.OutputWire())
	b.ConnectInput(a.OutputWire())
	return s, a, b
}

// arm configures a bidirectional channel 0 between a and b. A hop is two
// cycles, so the receive-table slot trails the injection slot by
// 2/SlotWords positions — one with daelite's 2-word slots (the paper's
// design point, where the config protocol's rotate-by-one law holds), two
// with 1-word slots.
func arm(t *testing.T, a, b *NI, txA, txB slots.Mask, credit int, multicast bool) {
	t.Helper()
	rot := 2 / a.params.SlotWords
	if err := a.Table().SetSend(txA, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Table().SetReceive(txA.RotateUp(rot), 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Table().SetSend(txB, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Table().SetReceive(txB.RotateUp(rot), 0); err != nil {
		t.Fatal(err)
	}
	flags := cfgproto.FlagOpen
	if multicast {
		flags |= cfgproto.FlagMulticast
	}
	as := (*niSink)(a)
	bs := (*niSink)(b)
	as.WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, 0), flags)
	bs.WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, 0), flags)
	as.WriteReg(cfgproto.RegSelect(cfgproto.RegCredit, 0), uint8(credit))
	bs.WriteReg(cfgproto.RegSelect(cfgproto.RegCredit, 0), uint8(credit))
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Wheel: 0, SlotWords: 2, NumChannels: 4, SendQueueDepth: 8, RecvQueueDepth: 16},
		{Wheel: 8, SlotWords: 0, NumChannels: 4, SendQueueDepth: 8, RecvQueueDepth: 16},
		{Wheel: 8, SlotWords: 2, NumChannels: 0, SendQueueDepth: 8, RecvQueueDepth: 16},
		{Wheel: 8, SlotWords: 2, NumChannels: 99, SendQueueDepth: 8, RecvQueueDepth: 16},
		{Wheel: 8, SlotWords: 2, NumChannels: 4, SendQueueDepth: 0, RecvQueueDepth: 16},
		{Wheel: 8, SlotWords: 2, NumChannels: 4, SendQueueDepth: 8, RecvQueueDepth: 64},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if err := params().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRequiresOpenChannel(t *testing.T) {
	s, a, _ := pair(t, params())
	if a.Send(0, 1) {
		t.Fatal("closed channel accepted a word")
	}
	(*niSink)(a).WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, 0), cfgproto.FlagOpen)
	if !a.Send(0, 1) {
		t.Fatal("open channel rejected a word")
	}
	_ = s
}

func TestSendQueueBound(t *testing.T) {
	p := params()
	_, a, _ := pair(t, p)
	(*niSink)(a).WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, 0), cfgproto.FlagOpen)
	for i := 0; i < p.SendQueueDepth; i++ {
		if !a.Send(0, phit.Word(i)) {
			t.Fatalf("send %d rejected below depth", i)
		}
	}
	if a.Send(0, 99) {
		t.Fatal("send accepted beyond queue depth")
	}
	if a.CanSend(0) {
		t.Fatal("CanSend true at full queue")
	}
	if got := a.SendQueueLen(0); got != p.SendQueueDepth {
		t.Fatalf("queue len = %d", got)
	}
}

func TestEndToEndDeliveryAndOrder(t *testing.T) {
	s, a, b := pair(t, params())
	arm(t, a, b, slots.MaskOf(8, 1, 5), slots.MaskOf(8, 3), 16, false)
	for i := 0; i < 6; i++ {
		if !a.Send(0, phit.Word(0x40+i)) {
			t.Fatalf("send %d rejected", i)
		}
	}
	s.Run(100)
	if got := b.RecvLen(0); got != 6 {
		t.Fatalf("delivered %d of 6", got)
	}
	for i := 0; i < 6; i++ {
		d, ok := b.Recv(0)
		if !ok || d.Word != phit.Word(0x40+i) {
			t.Fatalf("word %d = %v %v", i, d.Word, ok)
		}
		if d.Tag.Seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", d.Tag.Seq, i)
		}
	}
	if _, ok := b.Recv(0); ok {
		t.Fatal("phantom delivery")
	}
}

// TestSlotAlignment pins the +1 law on a single link: injection at slot s
// is accepted by the peer's receive entry at slot s+1 and only there.
func TestSlotAlignment(t *testing.T) {
	p := params()
	s := sim.New()
	a, _ := New(s, "A", 1, p)
	b, _ := New(s, "B", 2, p)
	b.ConnectInput(a.OutputWire())
	_ = a.Table().SetSend(slots.MaskOf(8, 2), 0)
	// Deliberately misalign the receive entry: nothing may arrive.
	_ = b.Table().SetReceive(slots.MaskOf(8, 2), 0)
	(*niSink)(a).WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, 0), cfgproto.FlagOpen)
	(*niSink)(a).WriteReg(cfgproto.RegSelect(cfgproto.RegCredit, 0), 8)
	(*niSink)(b).WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, 0), cfgproto.FlagOpen)
	a.Send(0, 0xEE)
	s.Run(64)
	if b.RecvLen(0) != 0 {
		t.Fatal("misaligned receive entry accepted data")
	}
	// Fix the alignment: slot 3 = injection slot 2 + 1.
	_ = b.Table().SetReceive(slots.MaskOf(8, 2), slots.NoChannel)
	_ = b.Table().SetReceive(slots.MaskOf(8, 3), 0)
	a.Send(0, 0xEF)
	s.Run(64)
	if b.RecvLen(0) != 1 {
		t.Fatal("aligned receive entry missed data")
	}
}

func TestCreditPiggybackRoundTrip(t *testing.T) {
	p := params()
	p.RecvQueueDepth = 4
	s, a, b := pair(t, p)
	arm(t, a, b, slots.MaskOf(8, 1), slots.MaskOf(8, 4), 4, false)
	// Fill the destination queue: credits exhausted at 4 in flight.
	for i := 0; i < 8; i++ {
		a.Send(0, phit.Word(i))
	}
	s.Run(200)
	if got := b.RecvLen(0); got != 4 {
		t.Fatalf("delivered %d, want 4 (credit bound)", got)
	}
	if a.Credit(0) != 0 {
		t.Fatalf("source credit = %d, want 0", a.Credit(0))
	}
	// Consume two words; two credits flow back on B's TX slots; two
	// more words arrive.
	b.Recv(0)
	b.Recv(0)
	s.Run(200)
	if got := b.RecvLen(0); got != 4 {
		t.Fatalf("after credit return: delivered %d in queue, want 4", got)
	}
	injected, _ := a.Stats()
	if injected != 6 {
		t.Fatalf("injected = %d, want 6", injected)
	}
}

func TestMulticastFlagBypassesCredits(t *testing.T) {
	p := params()
	s, a, b := pair(t, p)
	// Credit 0, multicast flag set: words must still flow.
	arm(t, a, b, slots.MaskOf(8, 2), slots.MaskOf(8, 6), 0, true)
	for i := 0; i < 5; i++ {
		a.Send(0, phit.Word(i))
	}
	s.Run(120)
	if got := b.RecvLen(0); got != 5 {
		t.Fatalf("multicast delivered %d of 5", got)
	}
}

func TestRecvQueueOverflowDropsOnlyWithoutFlowControl(t *testing.T) {
	p := params()
	p.RecvQueueDepth = 2
	s, a, b := pair(t, p)
	arm(t, a, b, slots.MaskOf(8, 1), slots.MaskOf(8, 5), 0, true) // multicast: no credits
	for i := 0; i < 6; i++ {
		a.Send(0, phit.Word(i))
	}
	s.Run(200)
	// Without flow control and a consumer, the queue caps at 2 and the
	// surplus is dropped — the behaviour the paper warns about for
	// multicast destinations that cannot keep up.
	if got := b.RecvLen(0); got != 2 {
		t.Fatalf("queue holds %d, want 2", got)
	}
	injected, _ := a.Stats()
	if injected != 6 {
		t.Fatalf("source stalled: injected %d", injected)
	}
}

func TestConfigReadbackRegisters(t *testing.T) {
	_, a, _ := pair(t, params())
	sink := (*niSink)(a)
	sink.WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, 1), cfgproto.FlagOpen)
	sink.WriteReg(cfgproto.RegSelect(cfgproto.RegCredit, 1), 13)
	sink.WriteReg(cfgproto.RegSelect(cfgproto.RegDelivered, 1), 5)
	if v, ok := sink.ReadReg(cfgproto.RegSelect(cfgproto.RegFlags, 1)); !ok || v != cfgproto.FlagOpen {
		t.Fatalf("flags readback = %d %v", v, ok)
	}
	if v, ok := sink.ReadReg(cfgproto.RegSelect(cfgproto.RegCredit, 1)); !ok || v != 13 {
		t.Fatalf("credit readback = %d %v", v, ok)
	}
	if v, ok := sink.ReadReg(cfgproto.RegSelect(cfgproto.RegDelivered, 1)); !ok || v != 5 {
		t.Fatalf("delivered readback = %d %v", v, ok)
	}
	// Out-of-range channel: silent.
	if _, ok := sink.ReadReg(cfgproto.RegSelect(cfgproto.RegCredit, 31)); ok {
		t.Fatal("out-of-range channel answered")
	}
}

// busRecorder captures deserialized bus configuration words.
type busRecorder struct{ words []uint32 }

func (b *busRecorder) ConfigWrite(v uint32) { b.words = append(b.words, v) }

func TestBusConfigDeserialization(t *testing.T) {
	_, a, _ := pair(t, params())
	rec := &busRecorder{}
	a.SetBusConfigPort(rec)
	sink := (*niSink)(a)
	// Four 7-bit writes assemble one 28-bit word; position 3 flushes.
	want := uint32(0x0ABCDEF)
	for i := 0; i < 4; i++ {
		shift := uint(7 * (3 - i))
		sink.WriteReg(cfgproto.RegSelect(cfgproto.RegBus, i), uint8(want>>shift&0x7F))
	}
	if len(rec.words) != 1 || rec.words[0] != want {
		t.Fatalf("bus config = %#x, want %#x", rec.words, want)
	}
}

func TestApplySlotsIgnoresMalformedSpecs(t *testing.T) {
	_, a, _ := pair(t, params())
	sink := (*niSink)(a)
	// Router-layout spec addressed to an NI: ignored.
	sink.ApplySlots(slots.MaskOf(8, 1), cfgproto.RouterSpec(1, 1))
	// Out-of-range channel: ignored.
	sink.ApplySlots(slots.MaskOf(8, 1), cfgproto.NISpec(true, true, 20))
	if !a.Table().OccupiedMask().Empty() {
		t.Fatal("malformed spec modified the table")
	}
}

// TestOneWordSlots exercises the paper's "could be decreased to a single
// word" option: with 1-word slots credits transfer 3 bits per slot and
// everything still flows with flow control intact.
func TestOneWordSlots(t *testing.T) {
	p := params()
	p.SlotWords = 1
	p.RecvQueueDepth = 6
	s, a, b := pair(t, p)
	arm(t, a, b, slots.MaskOf(8, 1, 4), slots.MaskOf(8, 6), 6, false)
	sent := 0
	for sent < 6 {
		if a.Send(0, phit.Word(sent)) {
			sent++
		} else {
			s.Run(8)
		}
	}
	s.Run(100)
	if got := b.RecvLen(0); got != 6 {
		t.Fatalf("credit bound violated with 1-word slots: %d", got)
	}
	if a.Credit(0) != 0 {
		t.Fatalf("credit = %d, want 0", a.Credit(0))
	}
	// Drain and confirm the remaining words flow in order once credits
	// return (3 bits per 1-word slot).
	seen := 0
	for seen < 12 {
		if sent < 12 && a.Send(0, phit.Word(sent)) {
			sent++
		}
		d, ok := b.Recv(0)
		if ok {
			if d.Word != phit.Word(seen) {
				t.Fatalf("word %d = %v", seen, d.Word)
			}
			seen++
			continue
		}
		s.Run(20)
		if s.Cycle() > 5000 {
			t.Fatalf("stalled at %d of 12 (sent %d)", seen, sent)
		}
	}
}

func TestAccessors(t *testing.T) {
	_, a, _ := pair(t, params())
	if a.Name() != "A" || a.ID() != 1 {
		t.Fatal("accessors wrong")
	}
	if a.Flags(0) != 0 {
		t.Fatal("fresh flags not zero")
	}
}

func TestDroppedCounter(t *testing.T) {
	p := params()
	p.RecvQueueDepth = 2
	s, a, b := pair(t, p)
	arm(t, a, b, slots.MaskOf(8, 1), slots.MaskOf(8, 5), 0, true) // multicast: no credits
	for i := 0; i < 6; i++ {
		a.Send(0, phit.Word(i))
	}
	s.Run(200)
	if got := b.Dropped(); got != 4 {
		t.Fatalf("dropped = %d, want 4 (6 sent, 2-word queue, no consumer)", got)
	}
	// Flow-controlled channels never drop.
	s2, c, d := pair(t, params())
	arm(t, c, d, slots.MaskOf(8, 2), slots.MaskOf(8, 6), 16, false)
	for i := 0; i < 10; i++ {
		c.Send(0, phit.Word(i))
	}
	s2.Run(400)
	if d.Dropped() != 0 {
		t.Fatalf("flow-controlled channel dropped %d", d.Dropped())
	}
}

// TestSteadyStreamAllocatesNothing: once its queues have grown to their
// working depth, an NI pushing and popping a continuous word stream
// allocates nothing per cycle — the send and receive queues reuse their
// backing arrays instead of re-slicing past them.
func TestSteadyStreamAllocatesNothing(t *testing.T) {
	p := params()
	s, a, b := pair(t, p)
	tx := slots.MaskOf(p.Wheel, 0, 2, 4, 6)
	arm(t, a, b, tx, tx, p.RecvQueueDepth, false)
	var sent, received uint64
	cycle := func() {
		if a.CanSend(0) && a.Send(0, phit.Word(sent)) {
			sent++
		}
		for {
			if _, ok := b.Recv(0); !ok {
				break
			}
			received++
		}
		s.Step()
	}
	for i := 0; i < 2000; i++ {
		cycle()
	}
	// One measured run of 10k cycles: AllocsPerRun divides the count by
	// the run count in integers, so per-cycle runs would hide an
	// allocation every few cycles.
	const cycles = 10_000
	before := received
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < cycles; i++ {
			cycle()
		}
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocations in %d cycles, want 0", allocs, cycles)
	}
	if received-before < cycles/4 {
		t.Fatalf("only %d words delivered in the measured window", received-before)
	}
}
