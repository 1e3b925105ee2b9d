package main

import (
	"os"
	"path/filepath"
	"sort"
	"time"

	"daelite/internal/core"
)

// tracedAdmission serves a second, profiled window with the invariant
// checkers attached, then replays its request log directly on a twin
// platform, timing each call into core and alloc. It returns the layer
// metrics, the violations by check, and the traced window's stats and
// problems for the run's accounting.
func tracedAdmission(opt Options, tmp string, base *churnStats) (map[string]float64, []Named, *churnStats, []string, error) {
	layers := zeroLayers()
	dir := filepath.Join(tmp, "traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, nil, err
	}
	sv, err := startServed(dir, true, true)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	prof, err := startProfile(opt.Profile)
	if err != nil {
		_ = sv.stop()
		return nil, nil, nil, nil, err
	}
	cache0 := sv.p.Alloc.CacheStats()
	st, problems := churn(sv, opt.Seed, opt.Seconds/2)
	cache1 := sv.p.Alloc.CacheStats()
	if err := prof.Stop(layers); err != nil {
		return nil, nil, nil, nil, err
	}
	layers["conformance.violations"] = float64(sv.ck.Violations())
	layers["admission.batch_size"] = ratio(float64(len(st.all)), float64(st.ticks))
	layers["runtime.alloc_bytes_per_cycle"] = ratio(float64(st.allocBytes), float64(st.cycles))
	layers["trace.overhead_frac"] = ratio(percentile(st.all, 50), percentile(base.all, 50)) - 1

	// Client-side spans of the served requests, then the replay.
	for ci, log := range st.logs {
		for i, e := range log {
			opt.Spans.Record("admission", e.req.kind.String(), ci<<24|i, st.start.Add(e.sent), e.lat)
		}
	}
	rp, err := newReplayer(opt.Spans)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	defer rp.p.Sim.Shutdown()
	a0 := snapActivity(rp.p)
	rp.replayLogs(st.logs)
	a0.addLayers(snapActivity(rp.p), layers)
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	layers["alloc.path_cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	rp.addLayers(layers)
	openUS := 1e3 * percentile(base.opens, 50)
	layers["admission.self_us"] = openUS - median(rp.openCoreUS)
	return layers, violationReport(sv.ck), st, problems, nil
}

// replayer applies a request stream directly to a platform, timing each
// call into core and alloc.
type replayer struct {
	p     *core.Platform
	spans *SpanLog
	live  map[int]*core.Connection

	openCoreUS                        []float64 // OpenBatch + CompleteConfig per accepted open
	openBatchUS, completeUS, closeUS  []float64
	dryrunUS                          []float64
	opens, nofit                      int
	openCycles, openWords, openSettle []float64
	configNS                          float64
	configCycles                      uint64
}

func newReplayer(spans *SpanLog) (*replayer, error) {
	p, _, err := admPlatform()
	if err != nil {
		return nil, err
	}
	warmPaths(p)
	return &replayer{p: p, spans: spans, live: map[int]*core.Connection{}}, nil
}

const replayBudget = 1 << 20 // the service's default SettleBudget

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// settle runs the configuration to completion, timed.
func (r *replayer) settle(op int) (time.Duration, error) {
	c0 := r.p.Cycle()
	var err error
	d := r.spans.Time("core", "Platform.CompleteConfig", op, func() { _, err = r.p.CompleteConfig(replayBudget) })
	r.completeUS = append(r.completeUS, us(d))
	r.configNS += float64(d.Nanoseconds())
	r.configCycles += r.p.Cycle() - c0
	return d, err
}

func (r *replayer) open(op int, spec core.ConnectionSpec) error {
	r.opens++
	c0 := r.p.Cycle()
	var conns []*core.Connection
	var errs []error
	d := r.spans.Time("core", "Platform.OpenBatch", op, func() { conns, errs = r.p.OpenBatch([]core.ConnectionSpec{spec}) })
	r.openBatchUS = append(r.openBatchUS, us(d))
	if errs[0] != nil {
		r.nofit++
		return nil
	}
	ds, err := r.settle(op)
	if err != nil {
		return err
	}
	c := conns[0]
	if c.State == core.Opening {
		c.State = core.Open
	}
	r.live[op] = c
	r.openCoreUS = append(r.openCoreUS, us(d+ds))
	r.openCycles = append(r.openCycles, float64(r.p.Cycle()-c0))
	r.openWords = append(r.openWords, float64(c.Setup.Words))
	r.openSettle = append(r.openSettle, float64(c.Setup.Cycles()))
	return nil
}

func (r *replayer) close(op, openOp int) error {
	c, ok := r.live[openOp]
	if !ok {
		return nil // the twin refused the open the served run accepted
	}
	delete(r.live, openOp)
	var err error
	d := r.spans.Time("core", "Platform.Close", op, func() { err = r.p.Close(c) })
	r.closeUS = append(r.closeUS, us(d))
	if err != nil {
		return err
	}
	_, err = r.settle(op)
	return err
}

func (r *replayer) whatif(op int, spec core.ConnectionSpec) error {
	_, item, err := core.AllocItem(spec)
	if err != nil {
		return err
	}
	d := r.spans.Time("alloc", "Allocator.DryRun", op, func() { _, _ = r.p.Alloc.DryRun(item.Reqs) })
	r.dryrunUS = append(r.dryrunUS, us(d))
	return nil
}

func (r *replayer) apply(op int, g genReq, closes int) error {
	switch g.kind {
	case kindClose:
		return r.close(op, closes)
	case kindWhatIf:
		return r.whatif(op, g.spec(r.p.Mesh))
	default:
		return r.open(op, g.spec(r.p.Mesh))
	}
}

// replayLogs applies the served clients' correctly answered requests in
// the order they were sent. Closes of opens the twin refused are skipped.
func (r *replayer) replayLogs(logs [][]logEntry) {
	type ref struct{ client, i int }
	var order []ref
	for ci, log := range logs {
		for i := range log {
			order = append(order, ref{ci, i})
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return logs[order[a].client][order[a].i].sent < logs[order[b].client][order[b].i].sent
	})
	for _, o := range order {
		e := logs[o.client][o.i]
		if e.verdict() != nil {
			continue
		}
		// Errors are platform-level and already counted in the served
		// run; the replay only times the calls.
		_ = r.apply(o.client<<24|o.i, e.req, o.client<<24|e.closes)
	}
}

func (r *replayer) addLayers(m map[string]float64) {
	m["sim.ns_per_cycle"] = ratio(r.configNS, float64(r.configCycles))
	m["sim.cycles_per_open"] = median(r.openCycles)
	m["sim.workers"] = float64(r.p.Sim.Workers())
	m["core.open_batch_us"] = median(r.openBatchUS)
	m["core.complete_config_us"] = median(r.completeUS)
	m["core.close_us"] = median(r.closeUS)
	m["configtree.words_per_open"] = median(r.openWords)
	m["configtree.settle_cycles_per_open"] = median(r.openSettle)
	m["alloc.dryrun_us"] = median(r.dryrunUS)
	m["alloc.nofit_frac"] = ratio(float64(r.nofit), float64(r.opens))
}

// admissionCounts replays the first admCountRequests requests of client
// 0's stream sequentially in-process: the simulated counts a seed must
// reproduce exactly, whatever the served interleaving did.
func admissionCounts(seed uint64) (map[string]uint64, error) {
	r, err := newReplayer(nil)
	if err != nil {
		return nil, err
	}
	defer r.p.Sim.Shutdown()
	gen := newReqGen(seed, 0)
	var live []int
	inputs := uint64(0)
	for op := 0; op < admCountRequests; op++ {
		g := gen.next(len(live))
		inputs = mix64(inputs ^ uint64(g.kind)<<32 ^ uint64(g.src[0]*admSide+g.src[1])<<16 ^ uint64(g.slots))
		closes := -1
		if g.kind == kindClose {
			i := int(g.pick * float64(len(live)))
			closes = live[i]
			live = append(live[:i], live[i+1:]...)
		}
		if err := r.apply(op, g, closes); err != nil {
			return nil, err
		}
		if _, ok := r.live[op]; ok {
			live = append(live, op)
		}
	}
	var words uint64
	for _, w := range r.openWords {
		words += uint64(w)
	}
	return map[string]uint64{
		"input_hash":     inputs,
		"replay_cycles":  r.p.Cycle(),
		"config_words":   words,
		"opens_accepted": uint64(len(r.openWords)),
		"opens_nofit":    uint64(r.nofit),
		"alloc_fp":       r.p.Alloc.Fingerprint(),
	}, nil
}
