// Package cli carries the command-line surface shared by the daelite
// simulation front-ends (daelite-sim, daelite-chaos): the mesh/wheel/
// workers platform flags, platform construction from them, and the
// optional telemetry exporters — a Prometheus text endpoint served over
// HTTP while the run is in flight, and an NDJSON snapshot written when it
// ends. Front-ends register the shared flags once and keep only their
// command-specific ones, so a new platform or telemetry flag lands in
// every command at the same time.
package cli

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"daelite/internal/core"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
)

// PlatformFlags is the shared flag set. Zero value is not useful; call
// RegisterPlatformFlags to bind it to a flag.FlagSet with defaults.
type PlatformFlags struct {
	// Mesh is the "-mesh WxH" dimension string.
	Mesh string
	// Wheel is the TDM slot-table size.
	Wheel int
	// Workers sizes the allocator's batch what-if evaluation
	// (core.Params.Workers; 0 = one per CPU). Results are identical for
	// every value; the simulation kernel is sequential.
	Workers int
	// FastForward arms model-guided fast-forwarding: the kernel skips
	// whole hyper-periods while the platform is provably quiescent.
	// Results are bit-identical to a cycle-accurate run.
	FastForward bool

	// MetricsAddr, when non-empty, serves Prometheus text exposition on
	// http://<addr>/metrics for the duration of the run.
	MetricsAddr string
	// TelemetryOut, when non-empty, writes an NDJSON snapshot of the
	// registry (metrics, spans, events) to this file at the end of the
	// run.
	TelemetryOut string
	// TelemetrySample is the harvest interval in cycles (<= 0 selects
	// core.DefaultTelemetrySample).
	TelemetrySample int

	// TraceOut, when non-empty, attaches the causal tracer and writes
	// the run's trace as Chrome trace-event JSON (Perfetto-loadable) to
	// this file at the end of the run.
	TraceOut string
	// FlightDump, when non-empty, attaches the causal tracer and arms
	// the flight recorder: on a trigger (conformance violation, health
	// stall, SIGQUIT) the recent span/event rings dump to
	// <prefix>-<reason>.ndjson and <prefix>-<reason>.trace.json.
	FlightDump string
	// Pprof registers net/http/pprof handlers on the -metrics-addr
	// listener under /debug/pprof/.
	Pprof bool
}

// RegisterPlatformFlags binds the shared flags to fs with the standard
// defaults. Call before fs.Parse.
func RegisterPlatformFlags(fs *flag.FlagSet) *PlatformFlags {
	f := &PlatformFlags{}
	fs.StringVar(&f.Mesh, "mesh", "4x4", "mesh dimensions WxH")
	fs.IntVar(&f.Wheel, "wheel", 16, "TDM slot-table size")
	fs.IntVar(&f.Workers, "workers", 0, "allocator batch workers (0 = one per CPU; results are identical, the simulation kernel is sequential)")
	fs.BoolVar(&f.FastForward, "fastforward", false, "skip whole hyper-periods while the platform is quiescent (bit-identical results)")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve Prometheus metrics on this address (host:port) during the run")
	fs.StringVar(&f.TelemetryOut, "telemetry-out", "", "write an NDJSON telemetry snapshot to this file at the end of the run")
	fs.IntVar(&f.TelemetrySample, "telemetry-sample", core.DefaultTelemetrySample, "telemetry harvest interval in cycles")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the causal trace (Chrome trace-event JSON) to this file at the end of the run")
	fs.StringVar(&f.FlightDump, "flight-dump", "", "arm the flight recorder; dumps write to <prefix>-<reason>.{ndjson,trace.json}")
	fs.BoolVar(&f.Pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/ on -metrics-addr")
	return f
}

// Params resolves the platform parameters the flags describe.
func (f *PlatformFlags) Params() core.Params {
	params := core.DefaultParams()
	params.Wheel = f.Wheel
	params.Workers = f.Workers
	params.FastForward = f.FastForward
	return params
}

// BuildMesh parses -mesh and constructs a mesh platform from the flags.
func (f *PlatformFlags) BuildMesh() (*core.Platform, error) {
	var w, h int
	if _, err := fmt.Sscanf(f.Mesh, "%dx%d", &w, &h); err != nil {
		return nil, fmt.Errorf("bad -mesh %q: %w", f.Mesh, err)
	}
	return core.NewMeshPlatform(topology.MeshSpec{Width: w, Height: h, NIsPerRouter: 1}, f.Params(), 0, 0)
}

// TelemetryEnabled reports whether any telemetry exporter flag was given.
func (f *PlatformFlags) TelemetryEnabled() bool {
	return f.MetricsAddr != "" || f.TelemetryOut != ""
}

// TracingEnabled reports whether any causal-tracing flag was given.
func (f *PlatformFlags) TracingEnabled() bool {
	return f.TraceOut != "" || f.FlightDump != ""
}

// Exporters is the live exporter state of one run: the registry the
// platform publishes into, the optional HTTP server, and the pending
// NDJSON output path. A nil *Exporters is valid and inert, so callers can
// unconditionally defer Close.
type Exporters struct {
	// Registry is the attached telemetry registry.
	Registry *telemetry.Registry
	// Tracer is the attached causal tracer (nil unless -trace-out or
	// -flight-dump was given).
	Tracer *tracing.Tracer
	// Recorder is the armed flight recorder (nil unless -flight-dump
	// was given). Front-ends hook their dump triggers (conformance
	// violations, health stalls) onto it; SIGQUIT is armed here.
	Recorder *tracing.Recorder

	p        *core.Platform
	srv      *http.Server
	ln       net.Listener
	out      string
	traceOut string
	addr     string
	sigDone  func()
}

// StartExporters attaches a telemetry registry to the platform and starts
// the exporters the flags ask for. Returns (nil, nil) when no telemetry
// flag was given — the platform then runs with zero telemetry cost. Call
// before opening connections so set-up spans are captured, and before
// stats.NewMonitor so the monitor publishes into the same registry.
//
// The /metrics handler renders whatever the harvest probe last mirrored —
// it never touches simulation state, so scraping is race-free while the
// run is stepping; values are at most one sample interval stale.
func (f *PlatformFlags) StartExporters(p *core.Platform) (*Exporters, error) {
	if f.Pprof && f.MetricsAddr == "" {
		return nil, fmt.Errorf("-pprof requires -metrics-addr")
	}
	if !f.TelemetryEnabled() && !f.TracingEnabled() {
		return nil, nil
	}
	reg := p.Telemetry()
	if reg == nil {
		reg = telemetry.NewRegistry()
		p.AttachTelemetry(reg, f.TelemetrySample)
	}
	e := &Exporters{Registry: reg, p: p, out: f.TelemetryOut, traceOut: f.TraceOut}
	if f.TracingEnabled() {
		e.Tracer = p.Tracer()
		if e.Tracer == nil {
			e.Tracer = tracing.New(tracing.Options{})
			p.AttachTracer(e.Tracer)
		}
		if f.FlightDump != "" {
			e.Recorder = tracing.NewRecorder(e.Tracer, f.FlightDump)
			e.sigDone = armSIGQUIT(e.Recorder)
		}
	}
	if f.MetricsAddr != "" {
		ln, err := net.Listen("tcp", f.MetricsAddr)
		if err != nil {
			return nil, fmt.Errorf("-metrics-addr: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = telemetry.WritePrometheus(w, reg)
		})
		if f.Pprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		e.ln = ln
		e.addr = ln.Addr().String()
		e.srv = &http.Server{Handler: mux}
		go func() { _ = e.srv.Serve(ln) }()
	}
	return e, nil
}

// armSIGQUIT dumps the flight recorder on SIGQUIT — the classic "what is
// this process doing" signal — and returns a disarm function. The dump
// is written from the signal goroutine; the tracer's rings are
// mutex-guarded, so a concurrent stepping run is safe to snapshot.
func armSIGQUIT(rec *tracing.Recorder) func() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			if paths, err := rec.Dump("sigquit"); err == nil && paths != nil {
				fmt.Fprintf(os.Stderr, "flight recorder: dumped %v\n", paths)
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
	}
}

// MetricsURL returns the scrape URL of the running endpoint ("" without
// -metrics-addr). Useful with a ":0" listen address.
func (e *Exporters) MetricsURL() string {
	if e == nil || e.addr == "" {
		return ""
	}
	return "http://" + e.addr + "/metrics"
}

// Close finishes the exporters: it forces a final harvest, writes the
// NDJSON snapshot if -telemetry-out was given, and shuts the HTTP
// server down gracefully — in-flight scrapes get up to two seconds to
// complete (they see the final harvest), stragglers are cut off. Call
// from the goroutine that stepped the simulation, after the run.
func (e *Exporters) Close() error {
	if e == nil {
		return nil
	}
	if e.sigDone != nil {
		e.sigDone()
	}
	e.p.FlushTelemetry()
	var firstErr error
	if e.traceOut != "" {
		f, err := os.Create(e.traceOut)
		if err == nil {
			err = tracing.WriteChrome(f, e.Tracer)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			firstErr = fmt.Errorf("-trace-out: %w", err)
		}
	}
	if e.out != "" {
		f, err := os.Create(e.out)
		if err == nil {
			err = telemetry.WriteNDJSON(f, e.Registry, e.p.Cycle())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("-telemetry-out: %w", err)
		}
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := e.srv.Shutdown(ctx)
		cancel()
		if err != nil {
			err = e.srv.Close()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
