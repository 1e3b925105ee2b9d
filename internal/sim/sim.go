// Package sim provides a synchronous, two-phase, cycle-accurate simulation
// kernel used by all hardware models in this repository.
//
// The kernel models a single clock domain the way synthesizable RTL behaves:
// every component computes its next state from the *current* values of all
// registers (the Eval phase), and only afterwards is all state advanced at
// once (the Commit phase), exactly like flip-flops latching on a clock edge.
// Because Eval never observes a value written in the same cycle, the result
// is independent of component evaluation order and therefore deterministic.
//
// The kernel is sequential and write-driven. A register that is Set joins
// its simulator's dirty list, and the register-commit phase latches only
// that list, so a cycle costs in proportion to the registers actually
// written rather than to the registers that exist. Components that
// deliberately break the order-independence contract — traffic endpoints
// that drain NI queues, fault injectors that override pending wire
// values — register through AddOrdered instead of Add and run, in
// registration order, after the Add'ed set in both phases.
package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Component is a piece of synchronous hardware. Eval computes next state
// from current state; Commit latches it. Eval must not observe any state
// written during the same Eval phase (use Reg for all inter-component
// signals to get this for free).
type Component interface {
	// Name identifies the component in traces and error messages.
	Name() string
	// Eval computes the next state for the current cycle.
	Eval(cycle uint64)
	// Commit latches the state computed by Eval.
	Commit()
}

// Reg is a single-cycle register (a bank of flip-flops) holding a value of
// type T. Get returns the currently latched value; Set schedules the value
// to appear after the next clock edge. A register that is not Set in a
// cycle keeps its value and costs the kernel nothing.
type Reg[T any] struct {
	cur, next T
	dirty     bool
	s         *Simulator
}

// NewReg returns a register initialized to v, owned by s: s latches it at
// the end of every cycle in which it was Set.
func NewReg[T any](s *Simulator, v T) *Reg[T] {
	s.regs++
	return &Reg[T]{cur: v, s: s}
}

// Get returns the currently latched value.
func (r *Reg[T]) Get() T { return r.cur }

// Set schedules v to become visible after the next clock edge. The first
// Set of a cycle puts the register on its simulator's dirty list; later
// Sets in the same cycle only replace the pending value. A Set made
// between Steps (from a probe or host code) is latched by the next Step.
func (r *Reg[T]) Set(v T) {
	r.next = v
	if !r.dirty {
		r.dirty = true
		r.s.dirty = append(r.s.dirty, r)
	}
}

// Peek returns the pending next value if one was Set this cycle, else the
// current value. Intended for testing and tracing only.
func (r *Reg[T]) Peek() T {
	if r.dirty {
		return r.next
	}
	return r.cur
}

func (r *Reg[T]) commit() {
	r.cur = r.next
	r.dirty = false
}

// committer is the untyped view of a register used by the simulator.
type committer interface{ commit() }

// Probe is called after every Commit with the cycle number that just
// completed. Probes observe fully settled state.
type Probe func(cycle uint64)

// idler is an Add'ed component that implements Idler. skip records the
// Idle() verdict taken in the Eval phase so the Commit phase skips the
// exact same set.
type idler struct {
	c    Component
	idl  Idler
	skip bool
}

// Simulator owns the clock, the component lists, and the dirty list of
// registers written in the current cycle.
type Simulator struct {
	// The Add'ed set is split so the common case, a component that never
	// idles, costs one interface call per phase and nothing else.
	components []Component
	idlers     []idler
	// quiescers has one entry per Add'ed component, in Add order: its
	// Quiescer view, or nil when it has none.
	quiescers []Quiescer
	ordered   []Component
	dirty     []committer
	regs      int
	probes    []Probe
	cycle     uint64

	// Fast-forward state (see fastforward.go). nonQuiescers counts
	// registered components — Add'ed and ordered — that do not
	// implement Quiescer; any such component pins the simulator to
	// cycle-accurate execution (default-deny).
	nonQuiescers int
	gates        []QuiescenceFunc
	forwarders   []FastForwarder
	ffHooks      []FastForwardHook
	ffPeriod     uint64
	ffSettle     uint64
	ffLastBusy   uint64
	ffSkipped    uint64
	ffQuiet      bool
	ffHorizon    uint64
	ffBusy       func(uint64) Quiescence

	// Stop may arrive from another goroutine (a signal handler), so the
	// flag Run polls every cycle is atomic and the reason is guarded.
	stopped    atomic.Bool
	stopMu     sync.Mutex
	stopReason string
}

// New returns an empty simulator at cycle 0.
func New() *Simulator { return &Simulator{} }

// Add registers a component with the simulator. Its Eval must only read
// foreign state through Reg.Get and write through Regs (or plain state)
// it owns, so that the result is independent of evaluation order: the
// kernel evaluates components that implement Idler after the others.
func (s *Simulator) Add(c Component) {
	if idl, ok := c.(Idler); ok {
		s.idlers = append(s.idlers, idler{c: c, idl: idl})
	} else {
		s.components = append(s.components, c)
	}
	q, _ := c.(Quiescer)
	s.quiescers = append(s.quiescers, q)
	if q == nil {
		s.nonQuiescers++
	}
	if f, ok := c.(FastForwarder); ok {
		s.forwarders = append(s.forwarders, f)
	}
	s.ffQuiet = false
}

// AddOrdered registers a component that depends on evaluation order:
// its Eval reads or writes state owned by other components (a traffic
// endpoint draining an NI queue, a fault injector overriding pending
// wire values via Peek/Set). Ordered components run in registration
// order after all Add'ed components have finished each phase.
func (s *Simulator) AddOrdered(c Component) {
	s.ordered = append(s.ordered, c)
	if _, ok := c.(Quiescer); !ok {
		s.nonQuiescers++
	}
	if f, ok := c.(FastForwarder); ok {
		s.forwarders = append(s.forwarders, f)
	}
	s.ffQuiet = false
}

// AddProbe registers a probe run after each cycle's commit phase.
func (s *Simulator) AddProbe(p Probe) {
	s.probes = append(s.probes, p)
}

// Cycle returns the number of fully completed cycles.
func (s *Simulator) Cycle() uint64 { return s.cycle }

// Stop requests that the simulation halt after the current cycle completes.
// It is safe to call from another goroutine; the first caller's reason is
// retained.
func (s *Simulator) Stop(reason string) {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	if !s.stopped.Load() {
		s.stopReason = reason
		s.stopped.Store(true)
	}
}

// Stopped reports whether Stop has been called, and why.
func (s *Simulator) Stopped() (bool, string) {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	return s.stopped.Load(), s.stopReason
}

// Workers returns 1: the kernel is sequential. It remains for callers
// that report the kernel's worker count.
func (s *Simulator) Workers() int { return 1 }

// Shutdown is a no-op kept for callers written against the former
// worker-pool kernel, which had goroutines to release.
func (s *Simulator) Shutdown() {}

// Step advances the simulation by exactly one clock cycle: Eval of every
// component (Add'ed set, then ordered tail), Commit likewise, then the
// latch of every register Set this cycle, then the probes.
func (s *Simulator) Step() {
	cycle := s.cycle
	for _, c := range s.components {
		c.Eval(cycle)
	}
	for i := range s.idlers {
		m := &s.idlers[i]
		if m.skip = m.idl.Idle(); !m.skip {
			m.c.Eval(cycle)
		}
	}
	for _, c := range s.ordered {
		c.Eval(cycle)
	}
	for _, c := range s.components {
		c.Commit()
	}
	for i := range s.idlers {
		if m := &s.idlers[i]; !m.skip {
			m.c.Commit()
		}
	}
	for _, c := range s.ordered {
		c.Commit()
	}
	for _, r := range s.dirty {
		r.commit()
	}
	s.dirty = s.dirty[:0]
	s.cycle++
	for _, p := range s.probes {
		p(s.cycle)
	}
}

// Run advances the simulation by n cycles or until Stop is called,
// whichever comes first, and returns the number of cycles executed.
// Cycles skipped by fast-forward (see EnableFastForward) count as
// executed. Step and RunUntil never fast-forward; only Run does.
func (s *Simulator) Run(n uint64) uint64 {
	// Host-side state may have changed since the last Run (submissions,
	// set-up requests), so any cached quiescence verdict is stale.
	s.ffQuiet = false
	var done uint64
	for done < n && !s.stopped.Load() {
		if s.ffPeriod > 0 {
			if skip := s.tryFastForward(n - done); skip > 0 {
				done += skip
				continue
			}
		}
		s.Step()
		done++
	}
	return done
}

// RunUntil steps the simulation until cond returns true (checked after each
// cycle) or the cycle budget is exhausted. It returns the cycle at which the
// condition first held and true, or the current cycle and false on timeout.
func (s *Simulator) RunUntil(cond func() bool, budget uint64) (uint64, bool) {
	for i := uint64(0); i < budget; i++ {
		if s.stopped.Load() {
			return s.cycle, false
		}
		s.Step()
		if cond() {
			return s.cycle, true
		}
	}
	return s.cycle, cond()
}

// ComponentNames returns the sorted names of all registered components
// (Add'ed set and ordered tail), useful for debugging platform assembly.
func (s *Simulator) ComponentNames() []string {
	names := make([]string, 0, len(s.quiescers)+len(s.ordered))
	for _, c := range s.components {
		names = append(names, c.Name())
	}
	for _, m := range s.idlers {
		names = append(names, m.c.Name())
	}
	for _, c := range s.ordered {
		names = append(names, c.Name())
	}
	sort.Strings(names)
	return names
}

// Func wraps plain functions as a Component, for probes and test stimuli
// that need to participate in the Eval/Commit protocol.
type Func struct {
	Label    string
	OnEval   func(cycle uint64)
	OnCommit func()
}

// Name implements Component.
func (f *Func) Name() string { return f.Label }

// Eval implements Component.
func (f *Func) Eval(cycle uint64) {
	if f.OnEval != nil {
		f.OnEval(cycle)
	}
}

// Commit implements Component.
func (f *Func) Commit() {
	if f.OnCommit != nil {
		f.OnCommit()
	}
}

// String renders a short simulator status line.
func (s *Simulator) String() string {
	return fmt.Sprintf("sim{cycle=%d components=%d+%d regs=%d}",
		s.cycle, len(s.quiescers), len(s.ordered), s.regs)
}
