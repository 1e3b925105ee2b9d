package experiments

import "testing"

// TestBigMeshDeterministicAcrossWorkers pins E16's core claim on an 8x8
// torus: the big mesh carries traffic, and its delivery fingerprint is
// the one the full-register-sweep kernel produced, so no change to the
// kernel's scheduling or the elements' write skipping moves a word.
func TestBigMeshDeterministicAcrossWorkers(t *testing.T) {
	bm, err := BuildBigMesh(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	bm.Run(500)
	const wantFP, wantFlits = 0xb6309c504d56b1a3, 768
	if fp, flits := bm.Fingerprint(), bm.Flits(); fp != wantFP || flits != wantFlits {
		t.Fatalf("fingerprint %#x, %d flits; want %#x, %d", fp, flits, uint64(wantFP), wantFlits)
	}
}

// TestScalingThroughputRuns exercises the full E16 sweep, including its
// pinned-fingerprint check.
func TestScalingThroughputRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full scaling sweep in -short mode")
	}
	r, err := ScalingThroughput()
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E16" || len(r.Metrics) != 3 {
		t.Fatalf("unexpected result: %+v", r)
	}
}
