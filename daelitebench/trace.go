package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the repository's public functions. Spans of one operation share Op.
type Span struct {
	Layer string `json:"layer"`
	Name  string `json:"name"`
	Op    int    `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// SpanLog keeps a traced run's spans in memory; they are written once,
// when the run ends. A nil *SpanLog records nothing.
type SpanLog struct {
	origin time.Time
	spans  []Span
}

// Time runs f and records it as a span; it returns f's duration.
func (l *SpanLog) Time(layer, name string, op int, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	l.Record(layer, name, op, t0, d)
	return d
}

// Record adds a span measured elsewhere. Span times are relative to the
// first span the log saw.
func (l *SpanLog) Record(layer, name string, op int, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	if l.origin.IsZero() {
		l.origin = start
	}
	at := start.Sub(l.origin).Nanoseconds()
	l.spans = append(l.spans, Span{Layer: layer, Name: name, Op: op, Start: at, End: at + d.Nanoseconds()})
}

// Len returns the number of recorded spans.
func (l *SpanLog) Len() int { return len(l.spans) }

// WriteFile writes the spans as NDJSON.
func (l *SpanLog) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Profile is an in-flight CPU profile of a traced run.
type Profile struct {
	path string
	f    *os.File
}

// startProfile starts the CPU profile; an empty path profiles nothing.
func startProfile(path string) (*Profile, error) {
	if path == "" {
		return nil, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &Profile{path: path, f: f}, nil
}

// profileGroups maps the import paths of a CPU profile's functions to
// the layers the per-layer self_frac metrics name.
var profileGroups = []struct{ prefix, layer string }{
	{"daelite/internal/sim", "sim"},
	{"daelite/internal/router", "router"},
	{"daelite/internal/ni", "ni"},
	{"daelite/internal/core", "core"},
	{"daelite/internal/configtree", "configtree"},
	{"daelite/internal/cfgproto", "cfgproto"},
	{"daelite/internal/alloc", "alloc"},
	{"daelite/internal/admission", "admission"},
	{"daelite/internal/traffic", "traffic"},
	{"daelite/internal/conformance", "conformance"},
	{"net/http", "http"},
	{"encoding/json", "http"},
	{"runtime", "runtime"},
	{"internal/runtime", "runtime"},
}

// Stop ends the profile and summarizes it with the installed `go tool
// pprof`: each layer's share of the profile's flat (self) samples,
// grouped by the import path of the sampled function.
func (p *Profile) Stop(layers map[string]float64) error {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return err
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", p.path)
	cmd.Stderr = os.Stderr
	text, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	shares, err := selfShares(string(text))
	if err != nil {
		return err
	}
	for _, g := range profileGroups {
		layers[g.layer+".self_frac"] = shares[g.layer]
	}
	return nil
}

// selfShares parses `pprof -top` output into each layer's share of the
// total flat time.
func selfShares(text string) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 5 && fields[0] == "flat" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 {
			continue
		}
		flat, err := parseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		total += flat
		fn := strings.Join(fields[5:], " ")
		pkg := funcPackage(fn)
		for _, g := range profileGroups {
			if pkg == g.prefix || strings.HasPrefix(pkg, g.prefix+"/") {
				shares[g.layer] += flat
				break
			}
		}
	}
	if total == 0 {
		return shares, nil
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// funcPackage returns the import path of a symbolized function name,
// e.g. daelite/internal/sim.(*Simulator).Step -> daelite/internal/sim.
// Type arguments, which may name other packages, are cut off first.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// parseDuration reads pprof's flat column ("1.20s", "350ms", "0").
func parseDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	return d.Seconds(), err
}

// percentile returns the p-th percentile (0..100, nearest rank) of the
// durations in milliseconds.
func percentile(d []time.Duration, p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p / 100 * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i].Nanoseconds()) / 1e6
}

// median of float samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// heapMB forces a GC and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// totalAlloc returns the cumulative bytes allocated by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
