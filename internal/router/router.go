// Package router implements the daelite network router (Fig. 4 of the
// paper): a blindly-switching TDM crossbar with a slot table per output
// port, a fixed two-cycle hop latency (one cycle of link traversal, one of
// crossbar traversal — data is buffered twice), a configuration submodule
// fed by the broadcast configuration tree, and multicast by construction
// (several outputs may select the same input in the same slot).
//
// Timing convention (shared by the whole repository): a component's Eval
// at cycle c computes the values its output registers present during cycle
// c+1, exactly like RTL next-state logic. A flit on the router's input
// wire during slot s appears on the selected output wire during slot s+1,
// so the slot-table index of a router equals the source injection slot
// plus the router's position along the path — the invariant the
// configuration protocol's mask rotation relies on.
package router

import (
	"fmt"

	"daelite/internal/cfgproto"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
)

// Params holds the static hardware parameters of a router.
type Params struct {
	// Wheel is the slot-table size (number of TDM slots).
	Wheel int
	// SlotWords is the slot length in words (2 in daelite).
	SlotWords int
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Wheel <= 0 || p.Wheel > slots.MaxTableSize {
		return fmt.Errorf("router: wheel %d out of range", p.Wheel)
	}
	if p.SlotWords <= 0 {
		return fmt.Errorf("router: slot words %d out of range", p.SlotWords)
	}
	return nil
}

// Router is one daelite router instance.
type Router struct {
	name   string
	id     int // configuration element ID
	params Params

	// Data path. inWires[i] is the wire feeding input port i; outWires[o]
	// is the wire driven by output port o. The router owns the output
	// wires; upstream elements own the input wires.
	inWires  []*sim.Reg[phit.Flit]
	inRegs   []*sim.Reg[phit.Flit] // first buffering stage
	outWires []*sim.Reg[phit.Flit]
	// inIdle[i] and outIdle[o] record that input register i and output
	// wire o already hold the zero flit, so an idle value needs no
	// re-drive. Invariant: the flag implies the register carries
	// phit.Idle(). Only the router writes inRegs; the one external
	// writer of output wires, the fault injector, only ever overwrites
	// driven (non-idle) wires, and a forced value is idle or a flipped
	// valid flit, never a non-idle value on an idle wire.
	inIdle  []bool
	outIdle []bool

	table *slots.RouterTable
	dec   *cfgproto.Decoder

	// Configuration tree node. cfgIn is owned by the parent; cfgInReg is
	// the first buffering stage; cfgOuts are owned by this router and
	// feed the children. The reverse path mirrors this.
	cfgIn     *sim.Reg[phit.ConfigWord]
	cfgInReg  *sim.Reg[phit.ConfigWord]
	cfgOuts   []*sim.Reg[phit.ConfigWord]
	respIns   []*sim.Reg[phit.Response]
	respMerge *sim.Reg[phit.Response]
	respOut   *sim.Reg[phit.Response]

	// forwarded counts valid words driven on any output (activity for
	// the energy model); outBusy attributes the same count to each
	// output port, so per-link slot occupancy can be compared against
	// the allocator's reservations.
	forwarded uint64
	outBusy   []uint64
}

// New creates a router with the given port counts, registers its state
// with s, and returns it. inWires are the link wires feeding each input
// port (may contain nils to be connected later via ConnectInput).
func New(s *sim.Simulator, name string, id int, numIn, numOut int, params Params) (*Router, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if numOut > cfgproto.MaxRouterPort+1 || numIn > cfgproto.MaxRouterPort+1 {
		return nil, fmt.Errorf("router %s: arity %d/%d exceeds configuration encoding limit %d",
			name, numIn, numOut, cfgproto.MaxRouterPort+1)
	}
	r := &Router{
		name:      name,
		id:        id,
		params:    params,
		inWires:   make([]*sim.Reg[phit.Flit], numIn),
		inRegs:    make([]*sim.Reg[phit.Flit], numIn),
		outWires:  make([]*sim.Reg[phit.Flit], numOut),
		inIdle:    make([]bool, numIn),
		outIdle:   make([]bool, numOut),
		outBusy:   make([]uint64, numOut),
		table:     slots.NewRouterTable(numOut, params.Wheel),
		cfgInReg:  sim.NewReg(s, phit.ConfigWord{}),
		respMerge: sim.NewReg(s, phit.Response{}),
		respOut:   sim.NewReg(s, phit.Response{}),
	}
	for i := range r.inRegs {
		r.inRegs[i] = sim.NewReg(s, phit.Idle())
		r.inIdle[i] = true
	}
	for o := range r.outWires {
		r.outWires[o] = sim.NewReg(s, phit.Idle())
		r.outIdle[o] = true
	}
	r.dec = cfgproto.NewDecoder(id, params.Wheel, (*routerSink)(r))
	s.Add(r)
	return r, nil
}

// Name implements sim.Component.
func (r *Router) Name() string { return r.name }

// ID returns the configuration element ID.
func (r *Router) ID() int { return r.id }

// ConnectInput attaches the wire feeding input port i.
func (r *Router) ConnectInput(i int, wire *sim.Reg[phit.Flit]) {
	r.inWires[i] = wire
}

// OutputWire returns the wire driven by output port o, to be connected as
// the downstream element's input.
func (r *Router) OutputWire(o int) *sim.Reg[phit.Flit] { return r.outWires[o] }

// ConnectConfigIn attaches the forward configuration wire from the tree
// parent.
func (r *Router) ConnectConfigIn(wire *sim.Reg[phit.ConfigWord]) { r.cfgIn = wire }

// AddConfigChild allocates a forward wire toward a tree child and the
// reverse wire back from it; the child connects to both. Returns the
// forward wire; the caller passes respIn (the child's respOut).
func (r *Router) AddConfigChild(s *sim.Simulator) *sim.Reg[phit.ConfigWord] {
	w := sim.NewReg(s, phit.ConfigWord{})
	r.cfgOuts = append(r.cfgOuts, w)
	return w
}

// AddResponseChild attaches a child's reverse wire.
func (r *Router) AddResponseChild(wire *sim.Reg[phit.Response]) {
	r.respIns = append(r.respIns, wire)
}

// ResponseWire returns this router's reverse wire toward its tree parent.
func (r *Router) ResponseWire() *sim.Reg[phit.Response] { return r.respOut }

// Table exposes the slot table for inspection by tests and probes.
func (r *Router) Table() *slots.RouterTable { return r.table }

// Forwarded returns the number of valid words this router has driven on
// its outputs — the activity count the energy model multiplies by the
// per-traversal energy.
func (r *Router) Forwarded() uint64 { return r.forwarded }

// OutputBusy returns the number of valid words driven on output port o,
// the per-link slot-occupancy counter telemetry exports.
func (r *Router) OutputBusy(o int) uint64 { return r.outBusy[o] }

// NumOutputs returns the router's output port count.
func (r *Router) NumOutputs() int { return len(r.outWires) }

// Eval implements sim.Component. Registers are written only when their
// value changes: an idle flit is not re-latched over an idle one, and
// the configuration-tree stages are compared before they are driven.
// By the inIdle/outIdle invariant and because the router owns the
// config-tree registers, a skipped write leaves exactly the value the
// write would have latched.
func (r *Router) Eval(cycle uint64) {
	// Stage 1: latch input wires into the input registers.
	for i, w := range r.inWires {
		var f phit.Flit
		if w != nil {
			f = w.Get()
		}
		if f.IsIdle() {
			if r.inIdle[i] {
				continue
			}
			r.inIdle[i] = true
		} else {
			r.inIdle[i] = false
		}
		r.inRegs[i].Set(f)
	}

	// Stage 2: crossbar. The output registers present their values
	// during cycle+1, so the slot table is indexed by the slot of
	// cycle+1 (the output slot).
	outSlot := slots.SlotOfCycle(cycle+1, r.params.SlotWords, r.params.Wheel)
	for o := range r.outWires {
		// Bitset early-out: one occupancy-word test replaces the packed
		// selector decode for the (common) unreserved slots.
		var f phit.Flit
		if r.table.Occupied(o, outSlot) {
			if in := r.table.Input(o, outSlot); in < len(r.inRegs) {
				f = r.inRegs[in].Get()
			}
		}
		if f.IsIdle() {
			// An already-idle wire needs no re-drive at all.
			if !r.outIdle[o] {
				r.outWires[o].Set(f)
				r.outIdle[o] = true
			}
			continue
		}
		r.outIdle[o] = false
		if f.Valid {
			r.forwarded++
			r.outBusy[o]++
		}
		r.outWires[o].Set(f)
	}

	// Configuration tree node: buffer twice per hop, feed the decoder
	// from the first stage.
	var inWord phit.ConfigWord
	if r.cfgIn != nil {
		inWord = r.cfgIn.Get()
	}
	if r.cfgInReg.Get() != inWord {
		r.cfgInReg.Set(inWord)
	}
	word := r.cfgInReg.Get()
	for _, out := range r.cfgOuts {
		if out.Get() != word {
			out.Set(word)
		}
	}
	localResp := r.dec.Feed(word)

	// Reverse path: merge children and local response, buffered twice.
	merged := localResp
	for _, in := range r.respIns {
		merged = phit.Merge(merged, in.Get())
	}
	if r.respMerge.Get() != merged {
		r.respMerge.Set(merged)
	}
	if m := r.respMerge.Get(); r.respOut.Get() != m {
		r.respOut.Set(m)
	}
}

// Commit implements sim.Component; all state lives in sim.Reg.
func (r *Router) Commit() {}

// Quiescence implements sim.Quiescer. The router is quiet when its data
// path carries only inert flits (idle, or the zero-credit carriers of
// settled open connections — those repeat every hyper-period and touch
// no counter: forwarded/outBusy move on Valid words only), its
// configuration-tree stage registers are empty, and its decoder is
// between transactions. Input wires are owned and accounted for
// upstream.
func (r *Router) Quiescence(now uint64) sim.Quiescence {
	for _, w := range r.outWires {
		if !w.Get().Inert() {
			return sim.Quiescence{}
		}
	}
	for _, reg := range r.inRegs {
		if !reg.Get().Inert() {
			return sim.Quiescence{}
		}
	}
	if r.cfgInReg.Get() != (phit.ConfigWord{}) {
		return sim.Quiescence{}
	}
	for _, out := range r.cfgOuts {
		if out.Get() != (phit.ConfigWord{}) {
			return sim.Quiescence{}
		}
	}
	if r.respMerge.Get() != (phit.Response{}) || r.respOut.Get() != (phit.Response{}) {
		return sim.Quiescence{}
	}
	if r.dec.Busy() {
		return sim.Quiescence{}
	}
	return sim.Quiescence{Quiet: true}
}

// routerSink adapts the router to cfgproto.Sink.
type routerSink Router

func (rs *routerSink) ApplySlots(mask slots.Mask, spec cfgproto.PortSpec) {
	r := (*Router)(rs)
	if spec.ForNI {
		return // malformed: NI spec addressed to a router; ignore
	}
	if spec.Out < 0 || spec.Out >= r.table.NumOutputs() {
		return // out-of-range output: drop, as hardware would
	}
	_ = r.table.Set(spec.Out, mask, spec.In)
}

func (rs *routerSink) WriteReg(reg, value uint8) {
	// Routers hold no writable registers beyond the slot table.
}

func (rs *routerSink) ReadReg(reg uint8) (uint8, bool) {
	return 0, false
}
