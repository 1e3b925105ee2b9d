package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"daelite/internal/admission"
	"daelite/internal/conformance"
	"daelite/internal/core"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
)

// admission-churn: an in-process admission.Service on an 8x8 mesh (the
// smallest mesh with two configuration regions) configured like
// daelite-admd's defaults, served over loopback HTTP to a closed loop of
// admClients clients with no think time.
const (
	admSide    = 8
	admWheel   = 16 // daelite-admd's -wheel default
	admClients = 2
	admSetups  = 31
	admTimeout = 10 * time.Second
	admSlice   = 250 * time.Millisecond
	// admHeapMark is the answered-request count at which heap_mb is read,
	// about 4 s into the window on the reference host.
	admHeapMark = 1500
	// admCountRequests is the length of the sequential request prefix
	// replayed in-process to produce the seed's repeatable counts.
	admCountRequests = 64
)

var admTenants = []admission.TenantConfig{
	{Name: "alpha", Class: admission.Gold},
	{Name: "beta", Class: admission.Silver},
	{Name: "gamma", Class: admission.Bronze},
	{Name: "delta", Class: admission.Bronze},
}

func admPlatform() (*core.Platform, *telemetry.Registry, error) {
	params := core.DefaultParams()
	params.Wheel = admWheel
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: admSide, Height: admSide, NIsPerRouter: 1}, params, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	reg := telemetry.NewRegistry()
	p.AttachTelemetry(reg, core.DefaultTelemetrySample)
	return p, reg, nil
}

// reqKind is the kind of one generated request.
type reqKind int

const (
	kindUnicast reqKind = iota
	kindMulticast
	kindClose
	kindWhatIf
)

func (k reqKind) String() string {
	return [...]string{"open", "open-multicast", "close", "whatif"}[k]
}

// genReq is one generated request. The generator draws the same number
// of values for every request whatever the platform answered, so the
// input stream is a function of the seed alone; only which live handle
// a close names depends on the answers so far.
type genReq struct {
	kind   reqKind
	tenant int
	src    [2]int
	dsts   [][2]int // one entry for unicast
	slots  int
	pick   float64 // which live handle a close names
}

type reqGen struct{ rng *rand.Rand }

func newReqGen(seed uint64, client int) *reqGen {
	return &reqGen{rng: newRand(seed, 0x61646d00+uint64(client))}
}

// next draws one request: about 30% closes of the client's own handles
// (when it has any), 10% what-ifs, 15% multicast opens of 2–4
// destinations and the rest unicast opens of 1–3 slots.
func (g *reqGen) next(nlive int) genReq {
	r := g.rng.Float64()
	whatifMulticast := g.rng.Float64() < 0.3
	req := genReq{
		tenant: g.rng.IntN(len(admTenants)),
		src:    [2]int{g.rng.IntN(admSide), g.rng.IntN(admSide)},
		pick:   g.rng.Float64(),
	}
	var cand [6][2]int
	for i := range cand {
		cand[i] = [2]int{g.rng.IntN(admSide), g.rng.IntN(admSide)}
	}
	uniSlots := 1 + g.rng.IntN(3)
	fanout := 2 + g.rng.IntN(3)
	switch {
	case r < 0.30 && nlive > 0:
		req.kind = kindClose
		return req
	case r < 0.40:
		req.kind = kindWhatIf
	case r < 0.55:
		req.kind = kindMulticast
	default:
		req.kind = kindUnicast
	}
	multicast := req.kind == kindMulticast || req.kind == kindWhatIf && whatifMulticast
	want := 1
	req.slots = uniSlots
	if multicast {
		want, req.slots = fanout, 1
	}
	seen := map[[2]int]bool{req.src: true}
	for _, c := range cand {
		if len(req.dsts) < want && !seen[c] {
			seen[c] = true
			req.dsts = append(req.dsts, c)
		}
	}
	// Too few distinct candidates: walk the row from the source.
	for x := 1; len(req.dsts) < want; x++ {
		c := [2]int{(req.src[0] + x) % admSide, req.src[1]}
		if !seen[c] {
			seen[c] = true
			req.dsts = append(req.dsts, c)
		}
	}
	return req
}

func (r genReq) multicast() bool { return len(r.dsts) > 1 }

func (r genReq) wire() admission.OpenRequest {
	w := admission.OpenRequest{
		Tenant:   admTenants[r.tenant].Name,
		Src:      admission.CoordRef(r.src[0], r.src[1]),
		SlotsFwd: r.slots,
	}
	if r.multicast() {
		for _, d := range r.dsts {
			w.Dsts = append(w.Dsts, admission.CoordRef(d[0], d[1]))
		}
	} else {
		w.Dst = admission.CoordRef(r.dsts[0][0], r.dsts[0][1])
	}
	return w
}

func (r genReq) spec(m *topology.Mesh) core.ConnectionSpec {
	s := core.ConnectionSpec{Src: m.NI(r.src[0], r.src[1], 0), SlotsFwd: r.slots}
	if r.multicast() {
		for _, d := range r.dsts {
			s.Dsts = append(s.Dsts, m.NI(d[0], d[1], 0))
		}
	} else {
		s.Dst = m.NI(r.dsts[0][0], r.dsts[0][1], 0)
	}
	return s
}

// warmPaths fills the allocator's path caches the way a long-running
// service has them: a what-if for every ordered unicast pair, and
// multicast what-ifs from every source covering every destination.
func warmPaths(p *core.Platform) {
	nis := p.Mesh.AllNIs
	for _, src := range nis {
		var group []topology.NodeID
		for _, dst := range nis {
			if dst == src {
				continue
			}
			if _, item, err := core.AllocItem(core.ConnectionSpec{Src: src, Dst: dst, SlotsFwd: 1}); err == nil {
				_, _ = p.Alloc.DryRun(item.Reqs)
			}
			if group = append(group, dst); len(group) == 4 {
				if _, item, err := core.AllocItem(core.ConnectionSpec{Src: src, Dsts: group, SlotsFwd: 1}); err == nil {
					_, _ = p.Alloc.DryRun(item.Reqs)
				}
				group = nil
			}
		}
	}
}

// served is one running service with its HTTP endpoint.
type served struct {
	p       *core.Platform
	reg     *telemetry.Registry
	s       *admission.Service
	ck      *conformance.Checker
	srv     *http.Server
	serve   chan error
	base    string
	emptyFP uint64
	// setup is the time from the platform build to the first answer,
	// without warm, the time warmPaths took.
	setup, warm time.Duration
}

// startServed builds the platform and service (journal and snapshots in
// dir), optionally attaches the invariant checkers and warms the path
// caches, starts serving on a loopback port and waits for the first
// answer.
func startServed(dir string, checkers, warm bool) (*served, error) {
	t0 := time.Now()
	p, reg, err := admPlatform()
	if err != nil {
		return nil, err
	}
	s, err := admission.NewService(p, reg, admission.Config{
		Tenants:           admTenants,
		MaxBatch:          32,
		GatherWindow:      200 * time.Microsecond,
		DefaultQueueDepth: 64,
		JournalPath:       filepath.Join(dir, "journal.ndjson"),
		SnapshotPath:      filepath.Join(dir, "snapshot.json"),
		SnapshotEvery:     256,
	})
	if err != nil {
		p.Sim.Shutdown()
		return nil, err
	}
	sv := &served{p: p, reg: reg, s: s, serve: make(chan error, 1)}
	if checkers {
		sv.ck = conformance.Attach(p, reg, conformance.Options{})
	}
	sv.emptyFP, _, _ = s.Fingerprint()
	if warm {
		tw := time.Now()
		warmPaths(p)
		sv.warm = time.Since(tw)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.Stop()
		p.Sim.Shutdown()
		return nil, err
	}
	s.Start()
	sv.srv = &http.Server{Handler: s.Handler()}
	go func() { sv.serve <- sv.srv.Serve(ln) }()
	sv.base = "http://" + ln.Addr().String()
	resp, err := http.Get(sv.base + "/healthz")
	if err != nil {
		_ = sv.stop()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	sv.setup = time.Since(t0) - sv.warm
	return sv, nil
}

// stop shuts the HTTP endpoint and the service down and waits for both.
func (sv *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := sv.srv.Shutdown(ctx)
	<-sv.serve
	if serr := sv.s.Stop(); err == nil {
		err = serr
	}
	sv.p.Sim.Shutdown()
	return err
}

// logEntry is one answered request.
type logEntry struct {
	req    genReq
	closes int // for a close: the log index of the open it tears down
	status int
	sent   time.Duration // since the window started
	lat    time.Duration
	err    error
}

type liveHandle struct {
	handle uint64
	tenant int
	open   int // log index of the open
}

// client is one closed-loop client with its own connection.
type client struct {
	gen  *reqGen
	http *http.Client
	base string
	live []liveHandle
	log  []logEntry
}

func newClient(seed uint64, id int, base string) *client {
	return &client{
		gen:  newReqGen(seed, id),
		base: base,
		http: &http.Client{Timeout: admTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
	}
}

// do sends one request and waits for the answer.
func (c *client) do(method, path string, body any) (int, map[string]any, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("decode reply: %w", err)
	}
	return resp.StatusCode, out, nil
}

// step generates, sends and logs one request.
func (c *client) step(start time.Time) {
	g := c.gen.next(len(c.live))
	e := logEntry{req: g, closes: -1, sent: time.Since(start)}
	t0 := time.Now()
	var body map[string]any
	switch g.kind {
	case kindClose:
		i := int(g.pick * float64(len(c.live)))
		h := c.live[i]
		c.live[i] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
		e.closes, e.req.tenant = h.open, h.tenant
		e.status, body, e.err = c.do(http.MethodDelete, fmt.Sprintf("/v1/connections/%d?tenant=%s", h.handle, admTenants[h.tenant].Name), nil)
	case kindWhatIf:
		e.status, body, e.err = c.do(http.MethodPost, "/v1/whatif", g.wire())
	default:
		e.status, body, e.err = c.do(http.MethodPost, "/v1/connections", g.wire())
		if e.err == nil && e.status == http.StatusOK {
			h, ok := body["handle"].(float64)
			if !ok {
				e.err = fmt.Errorf("open answered 200 without a handle")
			} else {
				c.live = append(c.live, liveHandle{handle: uint64(h), tenant: g.tenant, open: len(c.log)})
			}
		}
	}
	e.lat = time.Since(t0)
	c.log = append(c.log, e)
}

// verdict classifies an answer: 409 (no fit) and 429 (quota) are valid
// refusals of an open; anything else but 200 is a wrong answer.
func (e *logEntry) verdict() error {
	if e.err != nil {
		return e.err
	}
	switch {
	case e.status == http.StatusOK:
		return nil
	case (e.req.kind == kindUnicast || e.req.kind == kindMulticast) &&
		(e.status == http.StatusConflict || e.status == http.StatusTooManyRequests):
		return nil
	}
	return fmt.Errorf("%s answered %d", e.req.kind, e.status)
}

// churnStats summarizes one served window.
type churnStats struct {
	requests            int // window requests plus the final closes
	start               time.Time
	elapsed             time.Duration
	all, opens, closes  []time.Duration
	whatifs             []time.Duration
	openOK, openRefused int
	cycles              int64   // platform cycles simulated in the window
	sliceRate           float64 // median cycles per second over admSlice slices
	ticks               uint64
	heapMB              float64
	allocBytes          uint64
	failures            []string
	logs                [][]logEntry
}

// churn runs the closed loop for the given seconds, then closes every
// live handle, stops the service and checks that the allocator returned
// to the empty platform's fingerprint.
func churn(sv *served, seed uint64, seconds float64) (*churnStats, []string) {
	cycle := sv.reg.Gauge("cycle")
	c0, tick0, alloc0 := cycle.Value(), sv.s.Tick(), totalAlloc()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	clients := make([]*client, admClients)
	var wg sync.WaitGroup
	// The heap is read once admHeapMark requests are answered: the
	// service's telemetry and the clients' logs grow with every request,
	// so at the window's end it would grow with the throughput.
	var answered atomic.Int64
	var heapAtMark float64
	// A sampler reads the platform's cycle gauge every admSlice; the
	// median slice rate keeps a burst of host noise shorter than half
	// the window out of sim_cycles_per_s.
	var rates []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(admSlice)
		defer tick.Stop()
		last, lastT := c0, start
		for now := range tick.C {
			if now.After(deadline) {
				return
			}
			c := cycle.Value()
			rates = append(rates, float64(c-last)/now.Sub(lastT).Seconds())
			last, lastT = c, now
		}
	}()
	for i := range clients {
		clients[i] = newClient(seed, i, sv.base)
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.step(start)
				if answered.Add(1) == admHeapMark {
					heapAtMark = heapMB()
				}
			}
		}(clients[i])
	}
	wg.Wait()
	st := &churnStats{start: start, elapsed: time.Since(start), sliceRate: median(rates)}
	st.cycles = cycle.Value() - c0
	st.ticks = sv.s.Tick() - tick0
	st.allocBytes = totalAlloc() - alloc0
	st.heapMB = heapAtMark
	if answered.Load() < admHeapMark {
		st.heapMB = heapMB() // a window too short to reach the mark
	}
	for ci, c := range clients {
		st.logs = append(st.logs, c.log)
		for i := range c.log {
			e := &c.log[i]
			st.requests++
			st.all = append(st.all, e.lat)
			switch e.req.kind {
			case kindClose:
				st.closes = append(st.closes, e.lat)
			case kindWhatIf:
				st.whatifs = append(st.whatifs, e.lat)
			default:
				st.opens = append(st.opens, e.lat)
				if e.status == http.StatusOK {
					st.openOK++
				} else {
					st.openRefused++
				}
			}
			if err := e.verdict(); err != nil {
				st.failures = append(st.failures, fmt.Sprintf("request %d of client %d: %v", i, ci, err))
			}
		}
	}
	// Tear down what is still open: each close is an operation too.
	var problems []string
	for _, c := range clients {
		for _, h := range c.live {
			st.requests++
			status, _, err := c.do(http.MethodDelete, fmt.Sprintf("/v1/connections/%d?tenant=%s", h.handle, admTenants[h.tenant].Name), nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("final close answered %d", status)
			}
			if err != nil {
				st.failures = append(st.failures, fmt.Sprintf("final close of handle %d: %v", h.handle, err))
			}
		}
		c.http.CloseIdleConnections()
	}
	if err := sv.stop(); err != nil {
		problems = append(problems, fmt.Sprintf("service stop: %v", err))
	}
	if fp, _, _ := sv.s.Fingerprint(); fp != sv.emptyFP {
		problems = append(problems, fmt.Sprintf("allocator fingerprint %016x after closing every handle, empty platform %016x", fp, sv.emptyFP))
	}
	return st, problems
}

func runAdmission(opt Options) (*Outcome, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "admission-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var setups []float64
	var sv *served
	for i := 0; i < admSetups; i++ {
		if sv != nil {
			if err := sv.stop(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(tmp, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if sv, err = startServed(dir, false, i == admSetups-1); err != nil {
			return nil, err
		}
		setups = append(setups, sv.setup.Seconds())
	}
	out := &Outcome{Gated: map[string]float64{}, Workers: sv.p.Sim.Workers()}

	win := opt.Seconds
	if opt.Trace {
		win /= 2
	}
	st, problems := churn(sv, opt.Seed, win)
	out.Problems = append(out.Problems, problems...)
	out.Attempted += st.requests
	out.Failed += len(st.failures)
	out.Failures = append(out.Failures, st.failures...)
	cps := st.sliceRate
	out.Gated["setup_s"] = median(setups)
	out.Gated["heap_mb"] = st.heapMB
	out.Gated["sim_cycles_per_s"] = cps
	out.Gated["wait_p50_ms"] = percentile(st.all, 50)
	out.Report = []Named{
		{"open_p50_ms", percentile(st.opens, 50), "ms"},
		{"open_p99_ms", percentile(st.opens, 99), "ms"},
		{"close_p50_ms", percentile(st.closes, 50), "ms"},
		{"whatif_p50_ms", percentile(st.whatifs, 50), "ms"},
		{"requests_per_s", float64(len(st.all)) / st.elapsed.Seconds(), "req/s"},
		{"opens_accepted_frac", ratio(float64(st.openOK), float64(st.openOK+st.openRefused)), "ratio"},
		{"samples_open", float64(len(st.opens)), "count"},
		{"samples_close", float64(len(st.closes)), "count"},
		{"samples_whatif", float64(len(st.whatifs)), "count"},
		{"warmup_s", sv.warm.Seconds(), "s"},
	}

	counts, err := admissionCounts(opt.Seed)
	if err != nil {
		return nil, err
	}
	out.Counts = counts

	if opt.Trace {
		layers, violations, traced, problems, err := tracedAdmission(opt, tmp, st)
		if err != nil {
			return nil, err
		}
		out.Layers = layers
		out.Report = append(out.Report, violations...)
		out.Problems = append(out.Problems, problems...)
		out.Attempted += traced.requests
		out.Failed += len(traced.failures)
		out.Failures = append(out.Failures, traced.failures...)
	}
	return out, nil
}
