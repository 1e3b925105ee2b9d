package core

// Causal tracing attachment: an optional cycle-domain tracer recording
// every configuration transaction as a trace — one root span per set-up,
// teardown or repair, with one "inject" child per configuration region
// the transaction touches and a "settle" child for the post-drain
// quiet period. The region children end at the cycle their region's
// module was first observed idle (recorded inside CompleteConfig's
// drain predicate, which the kernel evaluates on the stepping goroutine
// after each cycle), so a cross-region set-up renders as a fan-out whose
// child durations are cycle-exact.
//
// Like the telemetry harvest, the tracer costs exactly zero when
// detached (every hook is behind a nil check) and all writers run on the
// stepping goroutine or the caller's control loop, so exported traces
// are byte-identical across worker counts.

import (
	"fmt"
	"strconv"

	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
)

// pendingTrace is one submitted-but-unsettled configuration
// transaction's trace state: the transaction span and its per-region
// inject children, ended by CompleteConfig.
type pendingTrace struct {
	root    tracing.SpanRef
	regions []regionInject
}

// regionInject pairs one involved region with its inject child span.
type regionInject struct {
	region int
	ref    tracing.SpanRef
}

// AttachTracer connects a causal tracer to the platform. Attach at most
// once, before the run whose transactions you want traced; a platform
// without a tracer pays zero cost.
func (p *Platform) AttachTracer(tr *tracing.Tracer) {
	if p.tracer != nil {
		panic("core: tracer already attached")
	}
	p.tracer = tr
}

// Tracer returns the attached tracer, or nil.
func (p *Platform) Tracer() *tracing.Tracer { return p.tracer }

// SetTraceParent sets the span adopted as parent by subsequently
// submitted configuration transactions — the admission control plane
// parents each set-up under its request span this way. Clear with the
// zero SpanRef; transactions without a parent open their own trace.
func (p *Platform) SetTraceParent(ref tracing.SpanRef) { p.traceParent = ref }

// TraceParent returns the currently set parent span.
func (p *Platform) TraceParent() tracing.SpanRef { return p.traceParent }

// traceConfig opens the trace of one just-submitted configuration
// transaction: the transaction span (under the set parent, or a fresh
// trace) plus one inject child per involved region, all starting at the
// submit cycle. CompleteConfig ends them when the trees drain.
func (p *Platform) traceConfig(s *telemetry.Span, packets []cfgPacket) {
	if p.tracer == nil {
		return
	}
	root := p.tracer.StartChild(p.traceParent, fmt.Sprintf("%s #%d", s.Op, s.ID), s.Op, s.SubmitCycle)
	p.tracer.SetAttr(root, "detail", s.Detail)
	p.tracer.SetAttr(root, "words", strconv.Itoa(s.Words))
	p.tracer.SetAttr(root, "span_regions", strconv.Itoa(s.Regions))
	pt := &pendingTrace{root: root}
	seen := make(map[int]bool, 2)
	for _, pkt := range packets {
		if seen[pkt.region] {
			continue
		}
		seen[pkt.region] = true
		ref := p.tracer.StartChild(root, fmt.Sprintf("inject r%d", pkt.region), "inject", s.SubmitCycle)
		// Packets already staged ahead of this transaction in the
		// region's module queue are part of its inject wait.
		p.tracer.SetAttr(ref, "queued_words", strconv.Itoa(p.Config.Region(pkt.region).QueueLen()))
		pt.regions = append(pt.regions, regionInject{region: pkt.region, ref: ref})
	}
	p.pendingTraces = append(p.pendingTraces, pt)
}

// settleTraces ends every pending transaction trace at the settle
// cycle: each region's inject child at the cycle its module was first
// observed idle (done when never observed — e.g. tracer attached
// mid-flight), then a settle child covering the drain tail, then the
// transaction span itself.
func (p *Platform) settleTraces(idle []uint64, done uint64) {
	if len(p.pendingTraces) == 0 {
		return
	}
	for _, pt := range p.pendingTraces {
		last := uint64(0)
		for _, ri := range pt.regions {
			end := done
			if idle != nil && idle[ri.region] != 0 && idle[ri.region] < done {
				end = idle[ri.region]
			}
			p.tracer.End(ri.ref, end)
			if end > last {
				last = end
			}
		}
		settle := p.tracer.StartChild(pt.root, "settle", "settle", last)
		p.tracer.End(settle, done)
		p.tracer.End(pt.root, done)
	}
	p.pendingTraces = p.pendingTraces[:0]
}
