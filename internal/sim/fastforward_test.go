package sim

import "testing"

// quietComp is a component that is always quiescent: its Eval counts
// invocations (so tests can see exactly which cycles ran for real) but
// changes no simulated state.
type quietComp struct {
	evals uint64
	until uint64
}

func (q *quietComp) Name() string      { return "quiet" }
func (q *quietComp) Eval(cycle uint64) { q.evals++ }
func (q *quietComp) Commit()           {}
func (q *quietComp) Quiescence(now uint64) Quiescence {
	return Quiescence{Quiet: true, Until: q.until}
}

// tickComp acts exactly once, at cycle `at`, and is quiet otherwise with
// a precise Until bound.
type tickComp struct {
	at    uint64
	fired uint64
}

func (t *tickComp) Name() string { return "tick" }
func (t *tickComp) Eval(cycle uint64) {
	if cycle == t.at {
		t.fired++
	}
}
func (t *tickComp) Commit() {}
func (t *tickComp) Quiescence(now uint64) Quiescence {
	if now <= t.at {
		return Quiescence{Quiet: true, Until: t.at}
	}
	return Quiescence{Quiet: true}
}

// mute is a component with no Quiescer — its presence must pin the
// simulator to cycle-accurate execution.
type mute struct{}

func (mute) Name() string      { return "mute" }
func (mute) Eval(cycle uint64) {}
func (mute) Commit()           {}

func TestFastForwardSkipsQuiescentStretch(t *testing.T) {
	s := New()
	q := &quietComp{}
	s.Add(q)
	const period, settle = 16, 64
	s.EnableFastForward(period, settle)
	const n = 1000
	if got := s.Run(n); got != n {
		t.Fatalf("Run returned %d, want %d", got, n)
	}
	if s.Cycle() != n {
		t.Fatalf("Cycle() = %d, want %d", s.Cycle(), n)
	}
	// Cycles 0..settle-1 run for real; at cycle `settle` the largest
	// period-multiple within the remaining budget is skipped; the
	// sub-period remainder runs for real.
	wantSkip := uint64((n - settle) / period * period)
	if s.SkippedCycles() != wantSkip {
		t.Fatalf("SkippedCycles = %d, want %d", s.SkippedCycles(), wantSkip)
	}
	if q.evals != n-wantSkip {
		t.Fatalf("quiet component evaluated %d times, want %d", q.evals, n-wantSkip)
	}
}

func TestFastForwardHonorsUntilHorizon(t *testing.T) {
	const period, settle = 8, 16
	const n = 4000
	const at = 2500

	run := func(ff bool) (*tickComp, uint64) {
		s := New()
		tc := &tickComp{at: at}
		s.Add(tc)
		if ff {
			s.EnableFastForward(period, settle)
		}
		s.Run(n)
		return tc, s.Cycle()
	}

	ref, refCycle := run(false)
	got, gotCycle := run(true)
	if refCycle != gotCycle {
		t.Fatalf("final cycle differs: ff=%d ref=%d", gotCycle, refCycle)
	}
	if got.fired != ref.fired || got.fired != 1 {
		t.Fatalf("tick fired %d times under fast-forward, %d without (want 1)", got.fired, ref.fired)
	}
}

func TestFastForwardDefaultDeny(t *testing.T) {
	s := New()
	s.Add(&quietComp{})
	s.Add(mute{})
	s.EnableFastForward(8, 16)
	s.Run(500)
	if s.SkippedCycles() != 0 {
		t.Fatalf("skipped %d cycles with a non-Quiescer component registered", s.SkippedCycles())
	}
}

func TestFastForwardOrderedDefaultDeny(t *testing.T) {
	s := New()
	s.Add(&quietComp{})
	s.AddOrdered(mute{})
	s.EnableFastForward(8, 16)
	s.Run(500)
	if s.SkippedCycles() != 0 {
		t.Fatalf("skipped %d cycles with a non-Quiescer ordered component", s.SkippedCycles())
	}
}

func TestFastForwardGateDeny(t *testing.T) {
	s := New()
	s.Add(&quietComp{})
	quiet := false
	s.AddQuiescer(func(now uint64) Quiescence { return Quiescence{Quiet: quiet} })
	s.EnableFastForward(8, 16)
	s.Run(500)
	if s.SkippedCycles() != 0 {
		t.Fatalf("skipped %d cycles while the gate reported busy", s.SkippedCycles())
	}
	quiet = true
	s.Run(500)
	if s.SkippedCycles() == 0 {
		t.Fatal("no cycles skipped after the gate went quiet")
	}
}

func TestFastForwardHooksObserveSkip(t *testing.T) {
	s := New()
	s.Add(&quietComp{})
	var hookFrom, hookTo uint64
	s.AddFastForwardHook(func(from, to uint64) { hookFrom, hookTo = from, to })
	const period, settle = 16, 32
	s.EnableFastForward(period, settle)
	const n = 1000
	s.Run(n)
	skip := s.SkippedCycles()
	if skip == 0 {
		t.Fatal("expected a skip")
	}
	if hookFrom != settle || hookTo != settle+skip {
		t.Fatalf("hook saw [%d,%d), want [%d,%d)", hookFrom, hookTo, settle, uint64(settle)+skip)
	}
	if hookTo-hookFrom != skip {
		t.Fatalf("hook span %d != skipped %d", hookTo-hookFrom, skip)
	}
}

func TestFastForwardNeverInStepOrRunUntil(t *testing.T) {
	s := New()
	q := &quietComp{}
	s.Add(q)
	s.EnableFastForward(8, 16)
	for i := 0; i < 200; i++ {
		s.Step()
	}
	s.RunUntil(func() bool { return false }, 200)
	if s.SkippedCycles() != 0 {
		t.Fatalf("Step/RunUntil skipped %d cycles", s.SkippedCycles())
	}
	if q.evals != 400 {
		t.Fatalf("evals = %d, want 400", q.evals)
	}
}

func TestFastForwardSettleRestartsAfterActivity(t *testing.T) {
	// A gate that is busy through cycle 99 forces the settle window to
	// restart from the last busy scan, not from cycle 0.
	s := New()
	s.Add(&quietComp{})
	const busyThrough = 99
	s.AddQuiescer(func(now uint64) Quiescence {
		return Quiescence{Quiet: now > busyThrough}
	})
	const period, settle = 8, 40
	s.EnableFastForward(period, settle)
	const n = 1000
	s.Run(n)
	// Last busy scan is at cycle 99; first skip at 99+settle.
	wantSkip := uint64((n - busyThrough - settle) / period * period)
	if s.SkippedCycles() != wantSkip {
		t.Fatalf("SkippedCycles = %d, want %d", s.SkippedCycles(), wantSkip)
	}
}

// lazyComp counts Evals/Commits and implements Idler.
type lazyComp struct {
	idle           bool
	evals, commits int
}

func (l *lazyComp) Name() string      { return "lazy" }
func (l *lazyComp) Eval(cycle uint64) { l.evals++ }
func (l *lazyComp) Commit()           { l.commits++ }
func (l *lazyComp) Idle() bool        { return l.idle }

func TestIdlerSkipsEvalAndCommit(t *testing.T) {
	s := New()
	l := &lazyComp{idle: true}
	s.Add(l)
	busy := &quietComp{}
	s.Add(busy)
	s.Run(25)
	if l.evals != 0 || l.commits != 0 {
		t.Fatalf("idle component ran: %d evals, %d commits", l.evals, l.commits)
	}
	if busy.evals != 25 {
		t.Fatalf("non-idler evaluated %d times, want 25", busy.evals)
	}
	l.idle = false
	s.Run(10)
	if l.evals != 10 || l.commits != 10 {
		t.Fatalf("woken component ran %d evals, %d commits, want 10 each", l.evals, l.commits)
	}
}
