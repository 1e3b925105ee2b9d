package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The benchmark's self-test: run it with `go test` from this directory.

type benchFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricNamesMatchBenchmarkJSON checks that the workloads and the
// metric names and units the program prints are those BENCHMARK.json
// declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, have)
	}
	pairs := func(list []struct{ name, unit string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.name+" "+m.unit)
		}
		return out
	}
	var e2e, layers []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	if want := pairs(endToEnd); !reflect.DeepEqual(e2e, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", e2e, want)
	}
	if want := pairs(perLayer); !reflect.DeepEqual(layers, want) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", layers, want)
	}
}

// TestSeedDeterminism runs every workload twice on one seed and once on
// another: the simulated counts must repeat exactly for the seed, and
// another seed must give other inputs.
func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	// inputKeys are the counts that depend only on the generated inputs.
	inputKeys := map[string]string{
		"admission-churn": "input_hash",
		"torus16-stream":  "config_words",
		"dnn8-pack":       "pack_fingerprint",
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			var counts []map[string]uint64
			for _, seed := range []uint64{1, 1, 2} {
				out, err := run(Options{Seed: seed, Seconds: 1})
				if err != nil {
					t.Fatal(err)
				}
				if len(out.Problems) > 0 {
					t.Errorf("seed %d: %v", seed, out.Problems)
				}
				res, err := buildResult(out, false)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("seed %d: %s = %v, want > 0", seed, m.name, res.Metrics[m.name].Value)
					}
				}
				counts = append(counts, out.Counts)
			}
			if !reflect.DeepEqual(counts[0], counts[1]) {
				t.Errorf("seed 1 counts differ between runs:\n%v\n%v", counts[0], counts[1])
			}
			key := inputKeys[name]
			if counts[0][key] == counts[2][key] {
				t.Errorf("seeds 1 and 2 give the same %s %d", key, counts[0][key])
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCompareRefusesMixedGOMAXPROCS checks that the comparison tool
// refuses sets measured at different GOMAXPROCS.
func TestCompareRefusesMixedGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	res := &Result{Correct: true, Attempted: 1, Metrics: map[string]Metric{"setup_s": {Value: 1, Unit: "s"}}}
	for i, procs := range []int{2, 4} {
		rec := Record{Workload: "torus16-stream", GOMAXPROCS: procs}
		if err := saveRecord(filepath.Join(dir, []string{"old", "new"}[i], "r.json"), rec, res); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	err := compareDirs(&sb, filepath.Join(dir, "old"), filepath.Join(dir, "new"))
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("compare across GOMAXPROCS 2 and 4: err = %v", err)
	}
	if err := compareDirs(&sb, filepath.Join(dir, "old"), filepath.Join(dir, "old")); err != nil {
		t.Fatalf("compare at one GOMAXPROCS: %v", err)
	}
}

// TestSelfShares checks the pprof summary parser, including a generic
// function whose type arguments name another package.
func TestSelfShares(t *testing.T) {
	text := `File: daelitebench
Type: cpu
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     500ms 50.00% 50.00%      600ms 60.00%  daelite/internal/router.(*Router).Eval
     200ms 20.00% 70.00%      200ms 20.00%  daelite/internal/sim.(*Reg[go.shape.struct { Valid bool; Data daelite/internal/phit.Word }]).commit
     200ms 20.00% 90.00%      200ms 20.00%  runtime.mallocgc
     100ms 10.00%   100%      100ms 10.00%  net/http.(*conn).serve
`
	got, err := selfShares(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"router": 0.5, "sim": 0.2, "runtime": 0.2, "http": 0.1}
	if len(got) != len(want) {
		t.Fatalf("selfShares = %v, want %v", got, want)
	}
	for k, w := range want {
		if d := got[k] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s share = %v, want %v", k, got[k], w)
		}
	}
}
