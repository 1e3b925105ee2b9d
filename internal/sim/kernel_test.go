package sim

import "testing"

// buildChain wires n relays shifting a driven value through n+1 registers
// and returns the simulator plus the register at tap (observation point).
func buildChain(n, tap int) (*Simulator, *Reg[int]) {
	s := New()
	regs := make([]*Reg[int], n+1)
	for i := range regs {
		regs[i] = NewReg(s, 0)
	}
	for i := 0; i < n; i++ {
		s.Add(&relay{label: "relay", src: regs[i], dst: regs[i+1]})
	}
	s.Add(&Func{Label: "drive", OnEval: func(cy uint64) { regs[0].Set(int(cy) + 1) }})
	return s, regs[tap]
}

// TestChainFingerprintPinned folds the values observed at one tap of a
// 5000-relay shift register over 300 cycles and compares the fold with
// the value the full-sweep kernel produced, so the dirty-list commit is
// held to the old kernel's exact stream.
func TestChainFingerprintPinned(t *testing.T) {
	const want = 0xa3b025882afbf589
	s, tap := buildChain(5000, 128)
	var fp Fingerprint
	for i := 0; i < 300; i++ {
		s.Step()
		fp = fp.Mix(uint64(tap.Get()))
	}
	if fp.Sum() != want {
		t.Fatalf("chain fingerprint %#x, want %#x", fp.Sum(), uint64(want))
	}
}

// TestChainHaltCyclePinned pins the cycle at which RunUntil sees the
// value 40 arrive at the tail of a 200-relay chain.
func TestChainHaltCyclePinned(t *testing.T) {
	s, tail := buildChain(200, 200)
	cycle, ok := s.RunUntil(func() bool { return tail.Get() >= 40 }, 10_000)
	if !ok || cycle != 240 {
		t.Fatalf("RunUntil = %d, %v; want 240, true", cycle, ok)
	}
}

// TestStopFromProbeMidRun covers the probe -> Stop path: probes run
// after commit, and a Stop they issue must halt Run after the current
// cycle with the cycle counter intact.
func TestStopFromProbeMidRun(t *testing.T) {
	s, _ := buildChain(100, 0)
	s.AddProbe(func(cy uint64) {
		if cy == 7 {
			s.Stop("probe says enough")
		}
	})
	ran := s.Run(1000)
	if ran != 7 {
		t.Fatalf("Run executed %d cycles, want 7", ran)
	}
	if s.Cycle() != 7 {
		t.Fatalf("Cycle() = %d, want 7", s.Cycle())
	}
	stopped, reason := s.Stopped()
	if !stopped || reason != "probe says enough" {
		t.Fatalf("Stopped() = %v %q", stopped, reason)
	}
}

// TestStopFromAnotherGoroutine covers the signal-handler path: Stop
// issued from a goroutine other than the stepping one halts Run.
func TestStopFromAnotherGoroutine(t *testing.T) {
	s, _ := buildChain(10, 0)
	reached := make(chan struct{})
	s.AddProbe(func(cy uint64) {
		if cy == 10 {
			close(reached)
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-reached
		s.Stop("signal")
	}()
	ran := s.Run(1 << 40)
	<-done
	if stopped, reason := s.Stopped(); !stopped || reason != "signal" || ran < 10 {
		t.Fatalf("Run executed %d cycles, Stopped() = %v %q", ran, stopped, reason)
	}
}

// idle is a component that never Sets any register.
type idle struct{ evals int }

func (c *idle) Name() string { return "idle" }
func (c *idle) Eval(uint64)  { c.evals++ }
func (c *idle) Commit()      {}

// TestComponentNeverSets covers the never-Set edge case: a register no
// one writes never reaches the dirty list and keeps its initial value
// while thousands of others are committed around it, and the silent
// component's Eval still runs every cycle.
func TestComponentNeverSets(t *testing.T) {
	s := New()
	quiet := NewReg(s, 42)
	silent := &idle{}
	s.Add(silent)
	regs := make([]*Reg[int], 5001)
	for i := range regs {
		regs[i] = NewReg(s, 0)
	}
	for i := 0; i < 5000; i++ {
		s.Add(&relay{label: "relay", src: regs[i], dst: regs[i+1]})
	}
	s.Run(25)
	if got := quiet.Get(); got != 42 {
		t.Fatalf("untouched register changed to %d", got)
	}
	if silent.evals != 25 {
		t.Fatalf("silent component evaluated %d times, want 25", silent.evals)
	}
}

// TestOrderedTailSemantics pins the AddOrdered contract the fault injector
// and traffic endpoints rely on: ordered components run after the whole
// Add'ed set each phase, observe pending values via Peek, and may
// override them.
func TestOrderedTailSemantics(t *testing.T) {
	s := New()
	wires := make([]*Reg[int], 100)
	for i := range wires {
		i := i
		wires[i] = NewReg(s, 0)
		s.Add(&Func{Label: "drv", OnEval: func(cy uint64) { wires[i].Set(int(cy) + 100) }})
	}
	var sawPending bool
	s.AddOrdered(&Func{Label: "override", OnEval: func(cy uint64) {
		if wires[0].Peek() == int(cy)+100 {
			sawPending = true
		}
		wires[0].Set(-1)
	}})
	s.Step()
	if !sawPending {
		t.Fatal("ordered component did not observe the pending value")
	}
	if got := wires[0].Get(); got != -1 {
		t.Fatalf("override lost, wire committed %d", got)
	}
	if got := wires[1].Get(); got != 100 {
		t.Fatalf("untouched wire committed %d, want 100", got)
	}
}

// TestShutdownFallsBackSequential verifies that Shutdown, kept for
// callers of the former worker-pool kernel, leaves a simulator that
// reports one worker and keeps stepping.
func TestShutdownFallsBackSequential(t *testing.T) {
	s, tail := buildChain(200, 10)
	s.Run(50)
	mid := tail.Get()
	s.Shutdown()
	if s.Workers() != 1 {
		t.Fatalf("Workers() after Shutdown = %d", s.Workers())
	}
	s.Run(50)
	if tail.Get() <= mid {
		t.Fatal("simulation did not progress after Shutdown")
	}
	s.Shutdown() // idempotent
}

// TestRegSetTwiceCommitsLastOnce: two Sets in one cycle put the register
// on the dirty list once, and the later value is the one latched.
func TestRegSetTwiceCommitsLastOnce(t *testing.T) {
	s := New()
	r := NewReg(s, 0)
	s.Add(&Func{Label: "twice", OnEval: func(cy uint64) {
		r.Set(1)
		r.Set(int(cy) + 2)
	}})
	s.AddOrdered(&Func{Label: "check", OnEval: func(uint64) {
		if len(s.dirty) != 1 {
			t.Errorf("dirty list holds %d entries after two Sets, want 1", len(s.dirty))
		}
	}})
	s.Step()
	if got := r.Get(); got != 2 {
		t.Fatalf("after cycle 0 Get = %d, want 2", got)
	}
	s.Step()
	if got := r.Get(); got != 3 {
		t.Fatalf("after cycle 1 Get = %d, want 3", got)
	}
}

// TestSetOutsideStepLatchesOnNextStep: a Set from a probe, or from host
// code between Run calls, is invisible until the next Step and visible
// after it — what the full register sweep did.
func TestSetOutsideStepLatchesOnNextStep(t *testing.T) {
	s := New()
	fromProbe := NewReg(s, 0)
	fromHost := NewReg(s, 0)
	s.AddProbe(func(cy uint64) {
		if cy == 3 {
			fromProbe.Set(7)
		}
	})
	s.Run(3)
	if got := fromProbe.Get(); got != 0 {
		t.Fatalf("probe Set visible before the next Step: %d", got)
	}
	fromHost.Set(9)
	if got := fromHost.Get(); got != 0 {
		t.Fatalf("host Set visible before the next Step: %d", got)
	}
	s.Run(1)
	if fromProbe.Get() != 7 || fromHost.Get() != 9 {
		t.Fatalf("after next Step: probe reg %d, host reg %d; want 7, 9", fromProbe.Get(), fromHost.Get())
	}
	s.Run(5)
	if fromProbe.Get() != 7 || fromHost.Get() != 9 {
		t.Fatalf("values not held: probe reg %d, host reg %d", fromProbe.Get(), fromHost.Get())
	}
}

// TestPeekAfterCommit: Peek returns the pending value until the edge and
// the latched one after it.
func TestPeekAfterCommit(t *testing.T) {
	s := New()
	r := NewReg(s, 1)
	r.Set(5)
	if r.Peek() != 5 || r.Get() != 1 {
		t.Fatalf("before Step: Peek %d Get %d, want 5 1", r.Peek(), r.Get())
	}
	s.Step()
	if r.Peek() != 5 || r.Get() != 5 {
		t.Fatalf("after Step: Peek %d Get %d, want 5 5", r.Peek(), r.Get())
	}
}

// TestDirtyListEmptyAfterStep: every Step drains the dirty list, whatever
// mix of written and unwritten registers the cycle had.
func TestDirtyListEmptyAfterStep(t *testing.T) {
	s := New()
	regs := make([]*Reg[int], 64)
	for i := range regs {
		regs[i] = NewReg(s, 0)
	}
	s.Add(&Func{Label: "sparse", OnEval: func(cy uint64) {
		for i := int(cy % 7); i < len(regs); i += 7 {
			regs[i].Set(int(cy))
		}
	}})
	s.AddProbe(func(cy uint64) {
		if len(s.dirty) != 0 {
			t.Errorf("cycle %d: %d registers left on the dirty list", cy, len(s.dirty))
		}
	})
	for i := 0; i < 50; i++ {
		s.Step()
		if len(s.dirty) != 0 {
			t.Fatalf("after Step %d: %d registers left on the dirty list", i, len(s.dirty))
		}
	}
}
