package trace_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/golden"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallTrace runs a tiny two-node false-sharing scenario with tracing on
// and returns the Chrome export plus the session for further checks. The
// scenario is deliberately fixed: it is the repository's determinism
// witness for the tracing subsystem.
func smallTrace(t *testing.T) ([]byte, *trace.Session) {
	t.Helper()
	sess := trace.NewSession()
	env := sim.NewEnv()
	sess.Attach(env, "fig4-small")
	c := cluster.NewDefault(env, 2)
	vm := hypervisor.New(hypervisor.FragVisorConfig(
		c, hypervisor.SpreadPlacement([]int{0, 1}, 2), 1<<30))
	workload.SharingLoop(vm, workload.FalseSharing, 25)
	var buf bytes.Buffer
	if err := sess.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sess
}

// TestChromeExportGolden pins the exact bytes of the export for a fixed
// scenario. A diff here means either span creation order or the exporter's
// formatting changed — both are part of the determinism contract. Run
// `make golden` to accept an intentional change.
func TestChromeExportGolden(t *testing.T) {
	got, sess := smallTrace(t)
	if sess.SpanCount() == 0 {
		t.Fatal("scenario recorded no spans")
	}
	golden.Check(t, filepath.Join("testdata", "fig4_small.trace.json"), got)
}

// TestSameRunTwiceIsByteIdentical rebuilds the scenario from scratch in the
// same process and demands an identical export — catching any map-order or
// global-counter dependence the golden file alone would miss (the golden is
// regenerated by the same binary that could carry the bug).
func TestSameRunTwiceIsByteIdentical(t *testing.T) {
	a, _ := smallTrace(t)
	b, _ := smallTrace(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs produced different traces (%d vs %d bytes)",
			len(a), len(b))
	}
}

// TestSmallScenarioCriticalPath sanity-checks the analyzer on the same
// scenario: the partition must be exact and the dominant categories
// (compute, DSM wait, network) must all be present.
func TestSmallScenarioCriticalPath(t *testing.T) {
	_, sess := smallTrace(t)
	bd := sess.CriticalPath()
	if bd.Roots == 0 || bd.Total == 0 {
		t.Fatalf("no critical-path roots: %+v", bd)
	}
	if bd.Sum() != bd.Total {
		t.Fatalf("Sum() = %v, want Total %v — partition must be exact", bd.Sum(), bd.Total)
	}
	for _, cat := range []trace.Category{trace.CatCompute, trace.CatDSM, trace.CatNet} {
		if bd.Cat[cat] == 0 {
			t.Fatalf("category %v empty in %+v — instrumentation hole?", cat, bd.Cat)
		}
	}
}
