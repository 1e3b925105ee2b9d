package sim

import "testing"

// benchChain measures raw kernel throughput on n components, each
// moving a value from one register of a chain to the next.
func benchChain(b *testing.B, n int, link func(i int, src, dst *Reg[int]) Component) {
	s := New()
	regs := make([]*Reg[int], n+1)
	for i := range regs {
		regs[i] = NewReg(s, 0)
	}
	for i := 0; i < n; i++ {
		s.Add(link(i, regs[i], regs[i+1]))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// benchKernel runs a relay chain, in which every register is written
// every cycle: the kernel's worst case.
func benchKernel(b *testing.B, n int) {
	benchChain(b, n, func(_ int, src, dst *Reg[int]) Component {
		return &relay{label: "relay", src: src, dst: dst}
	})
}

func BenchmarkKernelStep16(b *testing.B)   { benchKernel(b, 16) }
func BenchmarkKernelStep256(b *testing.B)  { benchKernel(b, 256) }
func BenchmarkKernelStep4096(b *testing.B) { benchKernel(b, 4096) }

// BenchmarkKernelStep4096Sparse runs 4096 registers of which a rotating
// 10% are written per cycle, the shape of a platform whose wires mostly
// hold last cycle's value: the dirty-list commit costs in proportion to
// the writes, not to the registers.
func BenchmarkKernelStep4096Sparse(b *testing.B) {
	benchChain(b, 4096, func(i int, src, dst *Reg[int]) Component {
		return &sparseRelay{phase: uint64(i), src: src, dst: dst}
	})
}

// sparseRelay copies src into dst in one cycle out of ten, staggered by
// phase so that a tenth of a chain's relays write in every cycle.
type sparseRelay struct {
	phase    uint64
	src, dst *Reg[int]
}

func (r *sparseRelay) Name() string { return "sparse-relay" }
func (r *sparseRelay) Eval(cy uint64) {
	if (cy+r.phase)%10 == 0 {
		r.dst.Set(r.src.Get() + 1)
	}
}
func (r *sparseRelay) Commit() {}

// BenchmarkRegSetGet isolates the register primitive: one Set, one Get
// and the latch of a one-entry dirty list per iteration.
func BenchmarkRegSetGet(b *testing.B) {
	s := New()
	r := NewReg(s, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Set(r.Get() + 1)
		s.Step()
	}
}
