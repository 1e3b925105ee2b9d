package main

import (
	"sort"

	"daelite/internal/conformance"
	"daelite/internal/core"
	"daelite/internal/topology"
)

// activity is a snapshot of the datapath counters the router and NI
// layers expose, taken from outside the kernel between Run calls.
type activity struct {
	cycle     uint64
	outBusy   []uint64 // per router output: OutputBusy
	forwarded uint64   // Σ router Forwarded
	delivered uint64   // Σ NI delivered words
	stall     []uint64
	tx        []uint64
}

func snapActivity(p *core.Platform) activity {
	a := activity{cycle: p.Cycle()}
	for _, id := range sortedIDs(p.Routers) {
		r := p.Routers[id]
		a.forwarded += r.Forwarded()
		for o := 0; o < r.NumOutputs(); o++ {
			a.outBusy = append(a.outBusy, r.OutputBusy(o))
		}
	}
	for _, id := range sortedIDs(p.NIs) {
		n := p.NIs[id]
		_, delivered := n.Stats()
		a.delivered += delivered
		for ch := 0; ch < p.Params.NumChannels; ch++ {
			a.stall = append(a.stall, n.CreditStallCycles(ch))
			a.tx = append(a.tx, n.TxWords(ch))
		}
	}
	return a
}

// addLayers stores the router and NI per-layer metrics of the window
// from a to b. The credit-stall share is taken over the NI channels that
// transmitted in the window.
func (a activity) addLayers(b activity, m map[string]float64) {
	cycles := float64(b.cycle - a.cycle)
	var busy uint64
	for i := range b.outBusy {
		busy += b.outBusy[i] - a.outBusy[i]
	}
	m["router.busy_frac"] = ratio(float64(busy), float64(len(b.outBusy))*cycles)
	m["router.words_per_cycle"] = ratio(float64(b.forwarded-a.forwarded), cycles)
	m["ni.words_delivered"] = float64(b.delivered - a.delivered)
	var stall uint64
	active := 0
	for i := range b.tx {
		if b.tx[i] > a.tx[i] {
			active++
			stall += b.stall[i] - a.stall[i]
		}
	}
	m["ni.credit_stall_frac"] = ratio(float64(stall), float64(active)*cycles)
}

// liveOutputs returns the share of router outputs that carried at
// least one word between a and b.
func (a activity) liveOutputs(b activity) float64 {
	live := 0
	for i := range b.outBusy {
		if b.outBusy[i] > a.outBusy[i] {
			live++
		}
	}
	return ratio(float64(live), float64(len(b.outBusy)))
}

func sortedIDs[T any](m map[topology.NodeID]T) []topology.NodeID {
	ids := make([]topology.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// zeroLayers returns the per-layer map with every metric at 0, the value
// a workload reports for a layer it does not exercise.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = 0
	}
	return m
}

// violationReport breaks a checker's violation total down by check.
func violationReport(ck *conformance.Checker) []Named {
	var out []Named
	for _, c := range []string{conformance.CheckContention, conformance.CheckTable, conformance.CheckOccupancy,
		conformance.CheckCredit, conformance.CheckConfigTree, conformance.CheckMulticast} {
		out = append(out, Named{"violations_" + c, float64(ck.ViolationCount(c)), "count"})
	}
	return out
}
