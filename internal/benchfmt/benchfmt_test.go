package benchfmt

import (
	"bytes"
	"math"
	"regexp"
	"testing"
)

func file(cal float64, benches map[string]float64) *File {
	f := &File{
		Rev:                "test",
		GoVersion:          "go0.0",
		GOMAXPROCS:         1,
		CalibrationNsPerOp: cal,
		Benchmarks:         map[string]Entry{},
	}
	for name, ns := range benches {
		f.Benchmarks[name] = Entry{NsPerOp: ns}
	}
	return f
}

func TestRoundTrip(t *testing.T) {
	f := file(100, map[string]float64{"BenchmarkPlatformCycle": 4200})
	f.Benchmarks["E3"] = Entry{NsPerOp: 1e9, Metrics: map[string]float64{"mean_speedup": 7.6}}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rev != "test" || got.CalibrationNsPerOp != 100 {
		t.Fatalf("header lost: %+v", got)
	}
	if got.Benchmarks["E3"].Metrics["mean_speedup"] != 7.6 {
		t.Fatalf("metrics lost: %+v", got.Benchmarks["E3"])
	}
}

// TestCompareFlagsInjectedRegression is the synthetic-regression gate
// check the CI job depends on: a >20% normalized slowdown in a gated
// benchmark must fail the comparison.
func TestCompareFlagsInjectedRegression(t *testing.T) {
	old := file(100, map[string]float64{
		"BenchmarkPlatformCycle": 1000,
		"BenchmarkKernelStep256": 500,
		"BenchmarkTableIII":      2000,
	})
	// Same machine speed (same calibration); PlatformCycle got 50%
	// slower, the rest held.
	new := file(100, map[string]float64{
		"BenchmarkPlatformCycle": 1500,
		"BenchmarkKernelStep256": 510,
		"BenchmarkTableIII":      9000, // ungated: must not fail
	})
	gate := regexp.MustCompile(`^Benchmark(PlatformCycle|KernelStep)`)
	c, err := Compare(old, new, 0.20, gate)
	if err != nil {
		t.Fatal(err)
	}
	regs := c.Regressions()
	if len(regs) != 1 || regs[0].Name != "BenchmarkPlatformCycle" {
		t.Fatalf("regressions = %+v, want exactly BenchmarkPlatformCycle", regs)
	}
	if math.Abs(regs[0].Ratio-1.5) > 1e-9 {
		t.Fatalf("ratio = %g, want 1.5", regs[0].Ratio)
	}
	if !c.Failed() {
		t.Fatal("comparison with a regression did not fail")
	}
}

// TestCompareCalibrationNormalizes pins the cross-machine story: a new
// measurement that is 2x slower in raw ns/op on a machine whose
// calibration is also 2x slower is not a regression.
func TestCompareCalibrationNormalizes(t *testing.T) {
	old := file(100, map[string]float64{"BenchmarkPlatformCycle": 1000})
	new := file(200, map[string]float64{"BenchmarkPlatformCycle": 2000})
	c, err := Compare(old, new, 0.20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Failed() {
		t.Fatalf("calibrated equal run failed: %+v", c.Deltas)
	}
	if r := c.Deltas[0].Ratio; math.Abs(r-1.0) > 1e-9 {
		t.Fatalf("ratio = %g, want 1.0", r)
	}
}

func TestCompareMissingGatedBenchmarkFails(t *testing.T) {
	old := file(100, map[string]float64{"BenchmarkPlatformCycle": 1000})
	new := file(100, map[string]float64{})
	c, err := Compare(old, new, 0.20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Failed() || len(c.MissingInNew) != 1 {
		t.Fatalf("dropped benchmark passed the gate: %+v", c)
	}
}

func TestCompareRejectsBadInputs(t *testing.T) {
	good := file(100, map[string]float64{"B": 1})
	if _, err := Compare(good, good, -0.1, nil); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := Compare(file(0, nil), good, 0.2, nil); err == nil {
		t.Fatal("missing calibration accepted")
	}
}

func TestCompareGOMAXPROCSMismatchIsIncomparable(t *testing.T) {
	old := file(100, map[string]float64{"BenchmarkPlatformCycle": 1000, "E3": 5})
	new := file(100, map[string]float64{"BenchmarkPlatformCycle": 2000, "E3": 5})
	new.GOMAXPROCS = old.GOMAXPROCS + 1
	gate := regexp.MustCompile(`^Benchmark`)
	c, err := Compare(old, new, 0.20, gate)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Failed() || len(c.Incomparable()) != 1 || len(c.Regressions()) != 0 {
		t.Fatalf("mismatched GOMAXPROCS not reported as one incomparable pair: %+v", c)
	}
	new.GOMAXPROCS = old.GOMAXPROCS
	if c, _ := Compare(old, new, 0.20, gate); len(c.Incomparable()) != 0 || len(c.Regressions()) != 1 {
		t.Fatalf("equal GOMAXPROCS should compare normally: %+v", c)
	}
}
