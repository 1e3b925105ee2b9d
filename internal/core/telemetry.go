package core

// Telemetry attachment: an optional, probe-driven harvest of the
// platform's component counters into a telemetry.Registry.
//
// Components never talk to the registry on the datapath — they keep the
// same plain counters they always had, and the harvest probe (which the
// kernel runs sequentially on the stepping goroutine after each commit)
// mirrors them into the registry every SampleEvery cycles. This keeps the
// disabled cost at exactly zero, bounds the enabled cost to a handful of
// atomic stores per sampled cycle, and — because probes and the ordered
// tail are the only writers — makes every exported value bit-identical
// across worker counts.

import (
	"strconv"

	"daelite/internal/telemetry"
	"daelite/internal/topology"
)

// DefaultTelemetrySample is the default harvest interval in cycles.
const DefaultTelemetrySample = 16

// chanTel caches the registry handles of one NI channel. Handles are
// created lazily the first time the channel is observed configured, so an
// 8-channel NI with one open connection costs one channel, not eight.
type chanTel struct {
	stall, tx, rx        *telemetry.Counter
	sendQ, recvQ, credit *telemetry.Gauge
}

// niTel caches the registry handles of one NI.
type niTel struct {
	id                                     topology.NodeID
	name                                   string
	injected, delivered, dropped, rejected *telemetry.Counter
	chans                                  []*chanTel
}

// routerTel caches the registry handles of one router.
type routerTel struct {
	id        topology.NodeID
	forwarded *telemetry.Counter
	outBusy   []*telemetry.Counter
}

// telHarvest is the sampling probe's cached state.
type telHarvest struct {
	every   uint64
	cycle   *telemetry.Gauge
	nis     []*niTel
	routers []*routerTel
	// Admission-engine path cache counters (alloc.CacheStats mirror).
	cacheHits, cacheMisses, cacheInvalidations, cacheTruncations *telemetry.Counter
}

// AttachTelemetry connects a registry to the platform and registers the
// harvest probe. sampleEvery is the harvest interval in cycles (<= 0
// selects DefaultTelemetrySample); spans and events are always emitted
// immediately, independent of the interval. Attach at most once per
// platform, before the run whose data you want.
func (p *Platform) AttachTelemetry(reg *telemetry.Registry, sampleEvery int) {
	if p.tel != nil {
		panic("core: telemetry already attached")
	}
	if sampleEvery <= 0 {
		sampleEvery = DefaultTelemetrySample
	}
	p.tel = reg
	h := &telHarvest{
		every:              uint64(sampleEvery),
		cycle:              reg.Gauge("cycle"),
		cacheHits:          reg.Counter("alloc_path_cache_hits_total"),
		cacheMisses:        reg.Counter("alloc_path_cache_misses_total"),
		cacheInvalidations: reg.Counter("alloc_path_cache_invalidations_total"),
		cacheTruncations:   reg.Counter("alloc_path_truncations_total"),
	}
	// Nodes() is in ID order, so handle creation — and therefore the
	// registry contents — is deterministic.
	for _, n := range p.Mesh.Nodes() {
		switch n.Kind {
		case topology.NI:
			lbl := telemetry.L("ni", n.Name)
			h.nis = append(h.nis, &niTel{
				id:        n.ID,
				name:      n.Name,
				injected:  reg.Counter("ni_injected_words_total", lbl),
				delivered: reg.Counter("ni_delivered_words_total", lbl),
				dropped:   reg.Counter("ni_dropped_words_total", lbl),
				rejected:  reg.Counter("ni_rejected_sends_total", lbl),
				chans:     make([]*chanTel, p.Params.NumChannels),
			})
		case topology.Router:
			r := p.Routers[n.ID]
			rt := &routerTel{
				id:        n.ID,
				forwarded: reg.Counter("router_forwarded_words_total", telemetry.L("router", n.Name)),
			}
			for o := 0; o < r.NumOutputs(); o++ {
				rt.outBusy = append(rt.outBusy, reg.Counter("router_output_busy_cycles_total",
					telemetry.L("router", n.Name), telemetry.L("port", strconv.Itoa(o))))
			}
			h.routers = append(h.routers, rt)
		}
	}
	p.harvest = h
	p.Sim.AddProbe(func(cycle uint64) {
		if cycle%h.every != 0 {
			return
		}
		p.harvestTelemetry(cycle)
	})
}

// Telemetry returns the attached registry, or nil.
func (p *Platform) Telemetry() *telemetry.Registry { return p.tel }

// FlushTelemetry forces a harvest at the current cycle so an export sees
// up-to-date values regardless of the sampling interval. No-op without an
// attached registry.
func (p *Platform) FlushTelemetry() {
	if p.harvest == nil {
		return
	}
	p.harvestTelemetry(p.Sim.Cycle())
}

func (p *Platform) harvestTelemetry(cycle uint64) {
	h := p.harvest
	h.cycle.Set(int64(cycle))
	cs := p.Alloc.CacheStats()
	h.cacheHits.Store(cs.Hits)
	h.cacheMisses.Store(cs.Misses)
	h.cacheInvalidations.Store(cs.Invalidations)
	h.cacheTruncations.Store(cs.Truncations)
	for _, nt := range h.nis {
		n := p.NIs[nt.id]
		inj, del := n.Stats()
		nt.injected.Store(inj)
		nt.delivered.Store(del)
		nt.dropped.Store(n.Dropped())
		nt.rejected.Store(n.Rejected())
		for ch := range nt.chans {
			ct := nt.chans[ch]
			if ct == nil {
				if n.Flags(ch) == 0 {
					continue // never configured: keep the registry lean
				}
				lbls := []telemetry.Label{
					telemetry.L("ni", nt.name),
					telemetry.L("ch", strconv.Itoa(ch)),
				}
				ct = &chanTel{
					stall:  p.tel.Counter("ni_credit_stall_cycles_total", lbls...),
					tx:     p.tel.Counter("ni_tx_words_total", lbls...),
					rx:     p.tel.Counter("ni_rx_words_total", lbls...),
					sendQ:  p.tel.Gauge("ni_send_queue_depth", lbls...),
					recvQ:  p.tel.Gauge("ni_recv_queue_depth", lbls...),
					credit: p.tel.Gauge("ni_credit", lbls...),
				}
				nt.chans[ch] = ct
			}
			ct.stall.Store(n.CreditStallCycles(ch))
			ct.tx.Store(n.TxWords(ch))
			ct.rx.Store(n.RxWords(ch))
			ct.sendQ.Set(int64(n.SendQueueLen(ch)))
			ct.recvQ.Set(int64(n.RecvLen(ch)))
			ct.credit.Set(int64(n.Credit(ch)))
		}
	}
	for _, rt := range h.routers {
		r := p.Routers[rt.id]
		rt.forwarded.Store(r.Forwarded())
		for o, c := range rt.outBusy {
			c.Store(r.OutputBusy(o))
		}
	}
}
