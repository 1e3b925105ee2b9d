package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// sourceRev names the code a run measured: the git revision stamped
// into the binary when it was built inside a git checkout, else a
// content hash of the module's Go sources (an exported tree carries no
// git metadata).
func sourceRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == outDir || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// savedRun is the file a run leaves in .bench_build/results.
type savedRun struct {
	Record Record  `json:"record"`
	Result *Result `json:"result"`
}

func saveRecord(path string, rec Record, res *Result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(savedRun{Record: rec, Result: res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadRuns(dir string) ([]savedRun, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r savedRun
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Result != nil {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no run records", dir)
	}
	return runs, nil
}

// compareDirs prints, per workload, trace mode and metric, the median
// and quartile spread of each side and the change of the medians. Sets
// measured at different GOMAXPROCS are incomparable and refused: the
// default kernel's worker count follows GOMAXPROCS.
func compareDirs(w io.Writer, oldDir, newDir string) error {
	oldRuns, err := loadRuns(oldDir)
	if err != nil {
		return err
	}
	newRuns, err := loadRuns(newDir)
	if err != nil {
		return err
	}
	procs := map[int]bool{}
	for _, r := range append(append([]savedRun(nil), oldRuns...), newRuns...) {
		procs[r.Record.GOMAXPROCS] = true
	}
	if len(procs) != 1 {
		return fmt.Errorf("refusing to compare runs measured at different GOMAXPROCS %v", sortedKeys(procs))
	}
	type key struct {
		workload string
		trace    bool
		metric   string
	}
	group := func(runs []savedRun) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range runs {
			for name, m := range r.Result.Metrics {
				k := key{r.Record.Workload, r.Record.Trace, name}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	oldG, newG := group(oldRuns), group(newRuns)
	var keys []key
	for k := range oldG {
		if _, ok := newG[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return !a.trace
		}
		return a.metric < b.metric
	})
	fmt.Fprintf(w, "%-16s %-5s %-34s %12s %7s %12s %7s %8s\n", "workload", "trace", "metric", "old median", "spread", "new median", "spread", "change")
	for _, k := range keys {
		om, os_ := medianSpread(oldG[k])
		nm, ns := medianSpread(newG[k])
		change := 0.0
		if om != 0 {
			change = nm/om - 1
		}
		fmt.Fprintf(w, "%-16s %-5t %-34s %12.6g %6.1f%% %12.6g %6.1f%% %+7.1f%%\n",
			k.workload, k.trace, k.metric, om, 100*os_, nm, 100*ns, 100*change)
	}
	return nil
}

// medianSpread returns the median and the interquartile distance as a
// share of the median.
func medianSpread(v []float64) (median, spread float64) {
	q := quartiles(v)
	if q[1] == 0 {
		return 0, 0
	}
	return q[1], (q[2] - q[0]) / q[1]
}

// quartiles mirrors Python's statistics.quantiles(data, n=4) with its
// default exclusive method, so the benchmark's spreads read the same as
// an external acceptance check computing them that way.
func quartiles(data []float64) [3]float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	var out [3]float64
	ld := len(d)
	switch ld {
	case 0:
		return out
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
