// Package ni implements the daelite network interface (Fig. 5 of the
// paper). The NI owns the end-to-end connection machinery the routers are
// oblivious to: per-channel send and receive queues, the TDM slot table
// governing both packet departures and arrivals, credit-based end-to-end
// flow control carried on dedicated sideband wires alongside the data of
// the opposite-direction channel, connection state flags, and a
// configuration submodule that updates all of this through the broadcast
// configuration tree.
//
// A channel is the local endpoint of one direction of a connection: at the
// same local index an NI keeps the send queue and credit counter for its
// outgoing direction, plus the receive queue and delivered-word counter
// for the incoming direction. Credits for the incoming direction ride on
// the TX slots of the same local channel, and credits arriving on RX slots
// replenish the counter of the same local channel, which is exactly the
// pairing the paper describes ("credits for one direction are sent on
// separate bit-lines alongside data in the opposite direction").
package ni

import (
	"fmt"

	"daelite/internal/cfgproto"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
)

// Params holds the static hardware parameters of an NI.
type Params struct {
	// Wheel is the slot-table size.
	Wheel int
	// SlotWords is the slot length in words (2 in daelite).
	SlotWords int
	// NumChannels is the number of channel endpoints.
	NumChannels int
	// SendQueueDepth and RecvQueueDepth are per-channel queue
	// capacities in words. RecvQueueDepth bounds the credit counter and
	// must fit the 6-bit credit transfer (<= 63).
	SendQueueDepth int
	RecvQueueDepth int
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Wheel <= 0 || p.Wheel > slots.MaxTableSize {
		return fmt.Errorf("ni: wheel %d out of range", p.Wheel)
	}
	if p.SlotWords <= 0 {
		return fmt.Errorf("ni: slot words %d out of range", p.SlotWords)
	}
	if p.NumChannels <= 0 || p.NumChannels > cfgproto.MaxNIChannel+1 {
		return fmt.Errorf("ni: %d channels out of range 1..%d", p.NumChannels, cfgproto.MaxNIChannel+1)
	}
	if p.SendQueueDepth <= 0 || p.RecvQueueDepth <= 0 {
		return fmt.Errorf("ni: queue depths must be positive")
	}
	if p.RecvQueueDepth > phit.MaxCreditValue {
		return fmt.Errorf("ni: recv queue depth %d exceeds max credit value %d", p.RecvQueueDepth, phit.MaxCreditValue)
	}
	return nil
}

// Delivery is one word handed to the IP side, with simulation provenance.
type Delivery struct {
	Word  phit.Word
	Tag   phit.Tag
	Cycle uint64 // cycle the word entered the receive queue
}

// fifo is a queue over a reusable backing array: popping advances a
// head index, and a push that finds the array full first slides the
// live entries down to the front. A queue whose depth is bounded
// therefore stops allocating once its array has grown to that depth.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// at returns the i-th live entry, 0 being the head.
func (q *fifo[T]) at(i int) T { return q.buf[q.head+i] }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// pop drops k entries from the head.
func (q *fifo[T]) pop(k int) {
	q.head += k
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// channel is the per-channel state. IP-side mutations (Send, Recv) are
// buffered in pending fields and applied at Commit, so that the NI's Eval
// always observes last cycle's settled queues regardless of component
// evaluation order.
type channel struct {
	flags uint8
	// touched marks a channel that Send or Recv changed this cycle; it
	// is on the NI's touched list until Commit applies the change.
	touched bool

	sendQ    fifo[queuedWord]
	pendSend []queuedWord
	recvQ    fifo[Delivery]
	// recvCursor counts words the IP consumed this cycle; the head of
	// recvQ is popped at Commit.
	recvCursor int

	// credit is the source-side counter: free words at the remote
	// receive queue. Initialized by configuration at set-up.
	credit int
	// delivered is the destination-side counter: words handed to the IP
	// that have not yet been returned to the remote source as credits.
	delivered     int
	pendDelivered int

	// The 6-bit credit value crosses a slot 3 bits per word.
	txCreditLatch uint8 // value being transmitted this slot
	rxCreditAccum uint8 // bits collected so far this slot

	seq uint64 // next sequence number for injected words

	// rxWords counts every word that entered the receive queue over the
	// channel's lifetime — the monotonic progress signal health
	// monitoring compares against the remote send queue's occupancy.
	rxWords uint64
	// txWords counts every word injected on the channel, the matching
	// source-side progress signal.
	txWords uint64
	// creditStall counts TX slots in which the channel had a queued word
	// but zero credit — the cycles end-to-end flow control held the
	// reserved bandwidth idle. A growing stall count with a healthy
	// network means the consumer is slow; with a dead reverse path it is
	// the first symptom of the failure.
	creditStall uint64
}

type queuedWord struct {
	word phit.Word
	tag  phit.Tag
}

// NI is one daelite network interface instance.
type NI struct {
	name   string
	id     int
	params Params

	inWire  *sim.Reg[phit.Flit] // from router (owned by router)
	inReg   *sim.Reg[phit.Flit] // first buffering stage
	outWire *sim.Reg[phit.Flit] // to router (owned by NI)
	// inIdle and outIdle record that inReg and outWire already hold the
	// zero flit, so an idle value is not re-driven. Invariant: the flag
	// implies the register carries phit.Idle(); the fault injector, the
	// only other writer of outWire, only overwrites driven wires.
	inIdle, outIdle bool

	table    *slots.NITable
	channels []*channel
	dec      *cfgproto.Decoder

	// Pending queue mutations applied at Commit so that IP-side reads
	// within the same cycle observe pre-edge state.
	pendingPush []pendingDelivery
	pendingPop  []int // channels whose send queue head was consumed
	// touched lists the channels Send or Recv changed this cycle, the
	// only ones whose pending IP-side state Commit must apply.
	touched []int

	// Configuration tree node state (NIs are leaves of the tree but the
	// plumbing is generic).
	cfgIn     *sim.Reg[phit.ConfigWord]
	cfgInReg  *sim.Reg[phit.ConfigWord]
	cfgOuts   []*sim.Reg[phit.ConfigWord]
	respIns   []*sim.Reg[phit.Response]
	respMerge *sim.Reg[phit.Response]
	respOut   *sim.Reg[phit.Response]

	// busShell accumulates RegBus writes for the adjacent bus's
	// configuration port (deserialized into wide words by the shell).
	busShell BusConfigPort
	busAccum uint32

	// Statistics.
	injected  uint64
	delivered uint64
	dropped   uint64
	rejected  uint64
	// curCycle tracks the last evaluated cycle so that IP-side Send
	// calls can stamp submission times.
	curCycle uint64
}

// pendingDelivery queues a word for a receive queue until Commit.
type pendingDelivery struct {
	ch int
	d  Delivery
}

// BusConfigPort receives deserialized configuration writes for the bus
// adjacent to this NI.
type BusConfigPort interface {
	ConfigWrite(value uint32)
}

// New creates an NI, registers it with s, and returns it.
func New(s *sim.Simulator, name string, id int, params Params) (*NI, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := &NI{
		name:      name,
		id:        id,
		params:    params,
		inReg:     sim.NewReg(s, phit.Idle()),
		outWire:   sim.NewReg(s, phit.Idle()),
		table:     slots.NewNITable(params.Wheel),
		cfgInReg:  sim.NewReg(s, phit.ConfigWord{}),
		respMerge: sim.NewReg(s, phit.Response{}),
		respOut:   sim.NewReg(s, phit.Response{}),
		inIdle:    true,
		outIdle:   true,
	}
	n.channels = make([]*channel, params.NumChannels)
	for i := range n.channels {
		n.channels[i] = &channel{}
	}
	n.dec = cfgproto.NewNIDecoder(id, params.Wheel, (*niSink)(n))
	s.Add(n)
	return n, nil
}

// Name implements sim.Component.
func (n *NI) Name() string { return n.name }

// ID returns the configuration element ID.
func (n *NI) ID() int { return n.id }

// ConnectInput attaches the wire arriving from the router.
func (n *NI) ConnectInput(wire *sim.Reg[phit.Flit]) { n.inWire = wire }

// OutputWire returns the wire this NI drives toward its router.
func (n *NI) OutputWire() *sim.Reg[phit.Flit] { return n.outWire }

// ConnectConfigIn attaches the forward configuration wire from the tree
// parent.
func (n *NI) ConnectConfigIn(wire *sim.Reg[phit.ConfigWord]) { n.cfgIn = wire }

// AddConfigChild allocates a forward wire toward a tree child.
func (n *NI) AddConfigChild(s *sim.Simulator) *sim.Reg[phit.ConfigWord] {
	w := sim.NewReg(s, phit.ConfigWord{})
	n.cfgOuts = append(n.cfgOuts, w)
	return w
}

// AddResponseChild attaches a child's reverse wire.
func (n *NI) AddResponseChild(wire *sim.Reg[phit.Response]) {
	n.respIns = append(n.respIns, wire)
}

// ResponseWire returns the reverse wire toward the tree parent.
func (n *NI) ResponseWire() *sim.Reg[phit.Response] { return n.respOut }

// SetBusConfigPort attaches the adjacent bus's configuration port.
func (n *NI) SetBusConfigPort(p BusConfigPort) { n.busShell = p }

// Table exposes the NI slot table for tests and probes.
func (n *NI) Table() *slots.NITable { return n.table }

// --- IP-side API (called from other components' Eval; effects are
// two-phase safe: pushes are visible next cycle, reads see settled state).

// CanSend reports whether channel ch can accept another word from the IP.
func (n *NI) CanSend(ch int) bool {
	c := n.channels[ch]
	return c.sendQ.len()+len(c.pendSend) < n.params.SendQueueDepth
}

// Send enqueues one word for transmission on channel ch. It returns false
// if the queue is full or the channel is not open. The word becomes
// eligible for injection on the next cycle (two-phase safety).
func (n *NI) Send(ch int, w phit.Word) bool {
	c := n.channels[ch]
	if c.flags&cfgproto.FlagOpen == 0 || c.sendQ.len()+len(c.pendSend) >= n.params.SendQueueDepth {
		n.rejected++
		return false
	}
	tag := phit.Tag{Channel: n.id<<8 | ch, Seq: c.seq, SubmitCycle: n.curCycle}
	c.seq++
	c.pendSend = append(c.pendSend, queuedWord{word: w, tag: tag})
	n.touch(ch, c)
	return true
}

// touch puts channel ch on the touched list once per cycle.
func (n *NI) touch(ch int, c *channel) {
	if !c.touched {
		c.touched = true
		n.touched = append(n.touched, ch)
	}
}

// RecvLen returns the number of words available to the IP on channel ch.
func (n *NI) RecvLen(ch int) int {
	c := n.channels[ch]
	return c.recvQ.len() - c.recvCursor
}

// Recv pops one delivered word from channel ch, returning ok=false when
// the queue is empty. Popping frees buffer space and therefore schedules a
// credit to be returned to the remote source.
func (n *NI) Recv(ch int) (Delivery, bool) {
	c := n.channels[ch]
	if c.recvCursor >= c.recvQ.len() {
		return Delivery{}, false
	}
	d := c.recvQ.at(c.recvCursor)
	c.recvCursor++
	c.pendDelivered++
	n.touch(ch, c)
	return d, true
}

// SendQueueLen returns the occupancy of channel ch's send queue.
func (n *NI) SendQueueLen(ch int) int {
	c := n.channels[ch]
	return c.sendQ.len() + len(c.pendSend)
}

// Credit returns the source-side credit counter of channel ch.
func (n *NI) Credit(ch int) int { return n.channels[ch].credit }

// RxWords returns the lifetime count of words received into channel ch's
// queue (delivered to the IP or still waiting). Health monitors use it as
// the destination-side progress signal.
func (n *NI) RxWords(ch int) uint64 { return n.channels[ch].rxWords }

// TxWords returns the lifetime count of words injected on channel ch.
func (n *NI) TxWords(ch int) uint64 { return n.channels[ch].txWords }

// DeliveredCredits returns the destination-side unreturned-delivery
// counter of channel ch: words handed to the IP whose credits have not
// yet been latched for return to the remote source. Together with the
// source credit counter, the words in flight and the receive queue it
// completes the end-to-end credit conservation law that the conformance
// checker verifies online.
func (n *NI) DeliveredCredits(ch int) int { return n.channels[ch].delivered }

// CreditStallCycles returns how many TX slots channel ch spent with a
// queued word but no credit — reserved bandwidth held idle by end-to-end
// flow control.
func (n *NI) CreditStallCycles(ch int) uint64 { return n.channels[ch].creditStall }

// Flags returns the state flags of channel ch.
func (n *NI) Flags(ch int) uint8 { return n.channels[ch].flags }

// Rejected returns the number of Send calls refused because the channel
// was not open or its send queue was full — the IP-side injection
// back-pressure counter.
func (n *NI) Rejected() uint64 { return n.rejected }

// Stats returns the total words injected into and delivered from the
// network by this NI.
func (n *NI) Stats() (injected, delivered uint64) { return n.injected, n.delivered }

// Dropped returns words discarded at full receive queues. Zero for
// correctly flow-controlled channels; non-zero only when a multicast
// destination fails to consume at line rate (the failure mode the paper
// warns about).
func (n *NI) Dropped() uint64 { return n.dropped }

// Eval implements sim.Component. Like the router's, it writes a register
// only when the value changes: idle flits are not re-driven over idle
// ones, and the configuration-tree stages are compared first.
func (n *NI) Eval(cycle uint64) {
	n.curCycle = cycle
	// Stage 1: latch the input wire.
	var inFlit phit.Flit
	if n.inWire != nil {
		inFlit = n.inWire.Get()
	}
	if idle := inFlit.IsIdle(); !idle || !n.inIdle {
		n.inReg.Set(inFlit)
		n.inIdle = idle
	}

	// The slot/word position of the value our registers present next
	// cycle.
	c1 := cycle + 1
	slot := slots.SlotOfCycle(c1, n.params.SlotWords, n.params.Wheel)
	wordIdx := int(c1 % uint64(n.params.SlotWords))
	entry := n.table.Entry(slot)

	// Transmit path.
	out := phit.Idle()
	if entry.TX != slots.NoChannel && entry.TX < len(n.channels) {
		ch := n.channels[entry.TX]
		if ch.flags&cfgproto.FlagOpen != 0 {
			// Credits for the opposite direction of this
			// connection ride in every slot of the channel,
			// 3 bits per word, high bits first: a slot of S
			// words transfers 3*S credit bits (6 with daelite's
			// 2-word slots, matching the paper's 6-bit counter).
			if wordIdx == 0 {
				max := 1<<(phit.CreditWires*n.params.SlotWords) - 1
				if max > phit.MaxCreditValue {
					max = phit.MaxCreditValue
				}
				v := ch.delivered
				if v > max {
					v = max
				}
				ch.txCreditLatch = uint8(v)
				ch.delivered -= v
			}
			shift := uint(phit.CreditWires * (n.params.SlotWords - 1 - wordIdx))
			out.Credit = (ch.txCreditLatch >> shift) & (1<<phit.CreditWires - 1)
			out.CreditValid = true

			// Payload: send if a word is queued and, unless
			// multicast, a credit is available.
			if ch.sendQ.len() > 0 && (ch.flags&cfgproto.FlagMulticast != 0 || ch.credit > 0) {
				qw := ch.sendQ.at(0)
				n.pendingPop = append(n.pendingPop, entry.TX)
				if ch.flags&cfgproto.FlagMulticast == 0 {
					ch.credit--
				}
				out.Valid = true
				out.Data = qw.word
				out.Tag = qw.tag
				out.Tag.InjectCycle = c1
				n.injected++
				ch.txWords++
			} else if ch.sendQ.len() > 0 {
				ch.creditStall++
			}
		}
	}
	if idle := out.IsIdle(); !idle || !n.outIdle {
		n.outWire.Set(out)
		n.outIdle = idle
	}

	// Receive path: the second buffering stage accepts the input
	// register's value during the slot after it appeared on the link.
	in := n.inReg.Get()
	if entry.RX != slots.NoChannel && entry.RX < len(n.channels) {
		ch := n.channels[entry.RX]
		if in.CreditValid {
			ch.rxCreditAccum = ch.rxCreditAccum<<phit.CreditWires | in.Credit&(1<<phit.CreditWires-1)
			if wordIdx == n.params.SlotWords-1 {
				ch.credit += int(ch.rxCreditAccum)
				ch.rxCreditAccum = 0
			}
		}
		if in.Valid {
			if ch.recvQ.len()+n.pendingFor(entry.RX) < n.params.RecvQueueDepth {
				n.pendingPush = append(n.pendingPush, pendingDelivery{
					ch: entry.RX,
					d:  Delivery{Word: in.Data, Tag: in.Tag, Cycle: c1},
				})
				n.delivered++
				ch.rxWords++
			} else {
				n.dropped++
			}
			// A full queue drops the word; with correct credit
			// configuration this cannot happen for flow-controlled
			// channels, and tests assert it does not.
		}
	}

	// Configuration tree node.
	var cfgWord phit.ConfigWord
	if n.cfgIn != nil {
		cfgWord = n.cfgIn.Get()
	}
	if n.cfgInReg.Get() != cfgWord {
		n.cfgInReg.Set(cfgWord)
	}
	word := n.cfgInReg.Get()
	for _, outw := range n.cfgOuts {
		if outw.Get() != word {
			outw.Set(word)
		}
	}
	localResp := n.dec.Feed(word)
	merged := localResp
	for _, inw := range n.respIns {
		merged = phit.Merge(merged, inw.Get())
	}
	if n.respMerge.Get() != merged {
		n.respMerge.Set(merged)
	}
	if m := n.respMerge.Get(); n.respOut.Get() != m {
		n.respOut.Set(m)
	}
}

func (n *NI) pendingFor(ch int) int {
	cnt := 0
	for _, p := range n.pendingPush {
		if p.ch == ch {
			cnt++
		}
	}
	return cnt
}

// Commit implements sim.Component: apply queue mutations decided in Eval
// (network-side pops and pushes, each on its own list) and by the
// IP-side API during other components' Eval (pending sends, consumed
// deliveries — only on the channels Send and Recv touched).
func (n *NI) Commit() {
	for _, ch := range n.pendingPop {
		if c := n.channels[ch]; c.sendQ.len() > 0 {
			c.sendQ.pop(1)
		}
	}
	n.pendingPop = n.pendingPop[:0]
	for _, p := range n.pendingPush {
		n.channels[p.ch].recvQ.push(p.d)
	}
	n.pendingPush = n.pendingPush[:0]
	for _, ch := range n.touched {
		c := n.channels[ch]
		c.touched = false
		for _, qw := range c.pendSend {
			c.sendQ.push(qw)
		}
		c.pendSend = c.pendSend[:0]
		c.recvQ.pop(c.recvCursor)
		c.recvCursor = 0
		c.delivered += c.pendDelivered
		c.pendDelivered = 0
	}
	n.touched = n.touched[:0]
}

// Quiescence implements sim.Quiescer. The NI is quiet when every
// channel's queues and credit-return machinery are drained — no queued
// or pending words, no deliveries awaiting credit return, no credit
// value mid-flight on the sideband — and its wires carry only inert
// flits, its configuration-tree stages are empty, and its decoder is
// between transactions. In that state the NI's only output is the
// hyper-period-periodic zero-credit carrier on its open TX slots, so
// every counter (injected, delivered, txWords, rxWords, creditStall)
// is frozen.
func (n *NI) Quiescence(now uint64) sim.Quiescence {
	for _, c := range n.channels {
		if c.sendQ.len() > 0 || len(c.pendSend) > 0 || c.recvQ.len() > 0 ||
			c.recvCursor != 0 || c.delivered != 0 || c.pendDelivered != 0 ||
			c.txCreditLatch != 0 || c.rxCreditAccum != 0 {
			return sim.Quiescence{}
		}
	}
	if len(n.pendingPush) > 0 || len(n.pendingPop) > 0 {
		return sim.Quiescence{}
	}
	if !n.inReg.Get().Inert() || !n.outWire.Get().Inert() {
		return sim.Quiescence{}
	}
	if n.cfgInReg.Get() != (phit.ConfigWord{}) {
		return sim.Quiescence{}
	}
	for _, out := range n.cfgOuts {
		if out.Get() != (phit.ConfigWord{}) {
			return sim.Quiescence{}
		}
	}
	if n.respMerge.Get() != (phit.Response{}) || n.respOut.Get() != (phit.Response{}) {
		return sim.Quiescence{}
	}
	if n.dec.Busy() {
		return sim.Quiescence{}
	}
	return sim.Quiescence{Quiet: true}
}

// OnFastForward implements sim.FastForwarder: resync the submission
// clock so IP-side Send calls issued after a skip stamp the correct
// cycle. Eval(cycle) sets curCycle = cycle; after a skip to `to`, the
// next real Eval will run with cycle = to, so mirror the state Eval
// would have left at to-1.
func (n *NI) OnFastForward(from, to uint64) {
	n.curCycle = to - 1
}

// niSink adapts the NI to cfgproto.Sink.
type niSink NI

func (ns *niSink) ApplySlots(mask slots.Mask, spec cfgproto.PortSpec) {
	n := (*NI)(ns)
	if !spec.ForNI || spec.Channel >= len(n.channels) {
		return
	}
	channel := spec.Channel
	if !spec.Enable {
		channel = slots.NoChannel
	}
	if spec.Send {
		_ = n.table.SetSend(mask, channel)
	} else {
		_ = n.table.SetReceive(mask, channel)
	}
}

func (ns *niSink) WriteReg(reg, value uint8) {
	n := (*NI)(ns)
	ch := cfgproto.RegChannel(reg)
	switch cfgproto.RegClass(reg) {
	case cfgproto.RegFlags:
		if ch < len(n.channels) {
			n.channels[ch].flags = value
		}
	case cfgproto.RegCredit:
		if ch < len(n.channels) {
			n.channels[ch].credit = int(value)
		}
	case cfgproto.RegDelivered:
		if ch < len(n.channels) {
			n.channels[ch].delivered = int(value)
		}
	case cfgproto.RegBus:
		if n.busShell != nil {
			n.busDeser(ch, value)
		}
	}
}

// busDeser deserializes successive 7-bit RegBus writes into 28-bit wide
// words for the adjacent bus configuration port: channel field 0..3 gives
// the symbol position, position 3 flushes.
func (n *NI) busDeser(pos int, value uint8) {
	n.busAccum = n.busAccum<<7 | uint32(value&0x7F)
	if pos == 3 {
		n.busShell.ConfigWrite(n.busAccum)
		n.busAccum = 0
	}
}

func (ns *niSink) ReadReg(reg uint8) (uint8, bool) {
	n := (*NI)(ns)
	ch := cfgproto.RegChannel(reg)
	if ch >= len(n.channels) {
		return 0, false
	}
	switch cfgproto.RegClass(reg) {
	case cfgproto.RegFlags:
		return n.channels[ch].flags & 0x7F, true
	case cfgproto.RegCredit:
		v := n.channels[ch].credit
		if v > 0x7F {
			v = 0x7F
		}
		return uint8(v), true
	case cfgproto.RegDelivered:
		v := n.channels[ch].delivered
		if v > 0x7F {
			v = 0x7F
		}
		return uint8(v), true
	default:
		return 0, false
	}
}
