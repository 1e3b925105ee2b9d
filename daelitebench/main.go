// Command daelitebench is the daelite end-to-end benchmark. It drives
// three seeded workloads through the repository's Go APIs from one
// process and prints, as the last line of standard output, one JSON
// object with the run's correctness verdict, its attempted and failed
// operation counts and its metrics:
//
//	daelitebench --workload admission-churn --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run also times calls into each layer, takes a CPU
// profile, and reports the per-layer metrics instead. The lines before
// the JSON carry the run record (revision, Go version, GOMAXPROCS,
// kernel workers, fast-forward, seed), every end-to-end metric the
// workload defines with its unit, and the simulated counts that must
// repeat exactly for one seed. See NOTES.md for the metric map.
//
//	daelitebench --compare <old results dir> <new results dir>
//
// compares the run records two sets of runs left in .bench_build/results
// (or any directory), refusing sets whose GOMAXPROCS differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchProcs pins the process to the two CPUs the benchmark is defined
// on, so a run measures the default kernel (Workers: 0 resolves to
// GOMAXPROCS) the same way on every host.
const benchProcs = 2

// outDir holds everything a run leaves behind: run records, span dumps,
// CPU profiles and the admission journals. It is relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_build"

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the final JSON line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record identifies the code and settings a result was measured with.
type Record struct {
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	Rev         string `json:"rev"`
	GoVersion   string `json:"go"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Workers     int    `json:"kernel_workers"`
	FastForward bool   `json:"fastforward"`
}

// endToEnd lists the gated end-to-end metrics, each reported by every
// workload; they must match BENCHMARK.json (the self-test checks).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"sim_cycles_per_s", "cycles/s"},
	{"wait_p50_ms", "ms"},
}

// perLayer lists the traced run's per-layer metrics, each reported by
// every workload (0 where the workload does not exercise the layer).
var perLayer = []struct{ name, unit string }{
	{"sim.ns_per_cycle", "ns"},
	{"sim.cycles_per_open", "cycles"},
	{"sim.skipped_frac", "ratio"},
	{"sim.workers", "count"},
	{"router.busy_frac", "ratio"},
	{"router.words_per_cycle", "words"},
	{"ni.credit_stall_frac", "ratio"},
	{"ni.words_delivered", "words"},
	{"core.open_batch_us", "us"},
	{"core.complete_config_us", "us"},
	{"core.close_us", "us"},
	{"configtree.words_per_open", "words"},
	{"configtree.settle_cycles_per_open", "cycles"},
	{"alloc.dryrun_us", "us"},
	{"alloc.path_cache_hit_ratio", "ratio"},
	{"alloc.nofit_frac", "ratio"},
	{"admission.self_us", "us"},
	{"admission.batch_size", "count"},
	{"workload.setup_cycles_frac", "ratio"},
	{"workload.drain_cycles_frac", "ratio"},
	{"conformance.violations", "count"},
	{"runtime.alloc_bytes_per_cycle", "bytes"},
	{"trace.overhead_frac", "ratio"},
	{"sim.self_frac", "ratio"},
	{"router.self_frac", "ratio"},
	{"ni.self_frac", "ratio"},
	{"core.self_frac", "ratio"},
	{"configtree.self_frac", "ratio"},
	{"cfgproto.self_frac", "ratio"},
	{"alloc.self_frac", "ratio"},
	{"admission.self_frac", "ratio"},
	{"traffic.self_frac", "ratio"},
	{"conformance.self_frac", "ratio"},
	{"http.self_frac", "ratio"},
	{"runtime.self_frac", "ratio"},
}

// Outcome is what one workload run measured and checked.
type Outcome struct {
	// Attempted and Failed count the workload's operations; a failed
	// operation is a wrong answer the program gave (see NOTES.md).
	Attempted, Failed int
	// Problems are failed checks outside per-operation accounting (a
	// repeat run that diverged, an allocator not restored, a harness
	// error); any makes the run incorrect.
	Problems []string
	// Failures describe the failed operations.
	Failures []string
	// Gated carries the end-to-end metrics named in endToEnd.
	Gated map[string]float64
	// Report carries the workload's own end-to-end metrics, printed by
	// name and unit but not gated (see NOTES.md for why).
	Report []Named
	// Layers carries the per-layer metrics of a traced run.
	Layers map[string]float64
	// Counts are simulated counts that must repeat exactly for a seed.
	Counts map[string]uint64
	// Workers and FastForward are the kernel settings the run used.
	Workers     int
	FastForward bool
}

// Named is one printed metric.
type Named struct {
	Name  string
	Value float64
	Unit  string
}

// Options are one run's settings.
type Options struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	// Spans collects the traced run's spans; nil when untraced.
	Spans *SpanLog
	// Profile is where the traced run writes its CPU profile.
	Profile string
}

var workloads = map[string]func(Options) (*Outcome, error){
	"admission-churn": runAdmission,
	"torus16-stream":  runTorus,
	"dnn8-pack":       runDNN,
}

func main() {
	runtime.GOMAXPROCS(benchProcs)
	var wl string
	var seed uint64
	var seconds, trace int
	var compare bool
	flag.StringVar(&wl, "workload", "", "workload: admission-churn, torus16-stream or dnn8-pack")
	flag.Uint64Var(&seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&compare, "compare", false, "compare the run records of two result directories")
	flag.Parse()
	if compare {
		if flag.NArg() != 2 {
			fail("usage: daelitebench --compare <old dir> <new dir>")
		}
		if err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fail("%v", err)
		}
		return
	}
	run, ok := workloads[wl]
	if !ok {
		fail("unknown --workload %q", wl)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fail("--seconds must be >= 1 and --trace 0 or 1")
	}
	opt := Options{Seed: seed, Seconds: float64(seconds), Trace: trace == 1}
	stamp := fmt.Sprintf("%s-s%d-t%d-%d", wl, seed, trace, time.Now().UnixNano())
	if opt.Trace {
		opt.Spans = &SpanLog{}
		opt.Profile = filepath.Join(outDir, "prof", stamp+".cpu.pprof")
	}
	out, err := run(opt)
	if err != nil {
		fail("%s: %v", wl, err)
	}
	rec := Record{
		Workload: wl, Seed: seed, Seconds: seconds, Trace: opt.Trace,
		Rev: sourceRev(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Workers: out.Workers, FastForward: out.FastForward,
	}
	res, err := buildResult(out, opt.Trace)
	if err != nil {
		fail("%s: %v", wl, err)
	}
	printReport(os.Stdout, rec, out)
	if opt.Spans != nil {
		path := filepath.Join(outDir, "traces", stamp+".spans.ndjson")
		if err := opt.Spans.WriteFile(path); err != nil {
			fail("write spans: %v", err)
		}
		fmt.Printf("spans: %d written to %s\n", opt.Spans.Len(), path)
	}
	if err := saveRecord(filepath.Join(outDir, "results", stamp+".json"), rec, res); err != nil {
		fail("save record: %v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// buildResult assembles the final JSON object: the gated end-to-end
// metrics untraced, the per-layer metrics traced.
func buildResult(out *Outcome, traced bool) (*Result, error) {
	res := &Result{
		Correct:   len(out.Problems) == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]Metric{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operations attempted")
	}
	list, values := endToEnd, out.Gated
	if traced {
		list, values = perLayer, out.Layers
	}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = Metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// printReport writes the human-readable lines that precede the JSON.
func printReport(f *os.File, rec Record, out *Outcome) {
	recLine, _ := json.Marshal(rec)
	fmt.Fprintf(f, "record: %s\n", recLine)
	frac := float64(out.Failed) / float64(max(out.Attempted, 1))
	fmt.Fprintf(f, "ops: attempted=%d failed=%d failed_frac=%.6f\n", out.Attempted, out.Failed, frac)
	for _, p := range out.Problems {
		fmt.Fprintf(f, "problem: %s\n", p)
	}
	for i, msg := range out.Failures {
		if i == 10 {
			fmt.Fprintf(f, "failure: ... %d more\n", len(out.Failures)-i)
			break
		}
		fmt.Fprintf(f, "failure: %s\n", msg)
	}
	for _, m := range endToEnd {
		if v, ok := out.Gated[m.name]; ok {
			fmt.Fprintf(f, "metric: %-22s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	fmt.Fprintf(f, "metric: %-22s %14.6g %s\n", "failed_frac", frac, "ratio")
	for _, m := range out.Report {
		fmt.Fprintf(f, "metric: %-22s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	if out.Layers != nil {
		for _, m := range perLayer {
			fmt.Fprintf(f, "layer: %-34s %14.6g %s\n", m.name, out.Layers[m.name], m.unit)
		}
	}
	keys := make([]string, 0, len(out.Counts))
	for k := range out.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, out.Counts[k])
	}
	fmt.Fprintf(f, "counts: %s\n", strings.Join(parts, " "))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "daelitebench: "+format+"\n", args...)
	os.Exit(1)
}
