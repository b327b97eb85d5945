package repro

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/hypervisor"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// These cross-checks are the PR-level determinism contract for the DES
// core: the ring buffers, timer-heap compaction, proc reaping, and timer
// pooling are pure performance changes, so with the same seed the figure
// tables, the fleet event log, and the Chrome trace export must all stay
// bit-identical run over run — and the trace must match the golden file
// recorded before those changes landed.

// TestFigureTablesDeterministic runs fig4 and fig14 twice at the same
// seed and demands byte-identical text and JSON renderings; fig14's must
// also match its golden files.
func TestFigureTablesDeterministic(t *testing.T) {
	for _, fig := range []string{"fig4", "fig14"} {
		fig := fig
		t.Run(fig, func(t *testing.T) {
			if testing.Short() && fig == "fig14" {
				t.Skip("fig14 skipped in -short mode")
			}
			opts := experiments.Options{Scale: 0.01, Seed: 42}
			a, err := experiments.Run(fig, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := experiments.Run(fig, opts)
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Fatalf("%s: same seed produced different tables:\n--- run 1\n%s\n--- run 2\n%s", fig, a, b)
			}
			aj, err := a.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			bj, err := b.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(aj, bj) {
				t.Fatalf("%s: same seed produced different JSON", fig)
			}
			if fig == "fig14" {
				matchGolden(t, a.String(), "fig14_small.txt")
				matchGolden(t, string(aj), "fig14_small.json")
			}
		})
	}
}

// matchGolden compares a rendering byte for byte against a file in
// internal/experiments/testdata. The fig14 goldens pin the paper's
// timeline: the t≈222 s veto, the t≈470 s partial fill, the handback.
func matchGolden(t *testing.T, got, name string) {
	t.Helper()
	golden := filepath.Join("internal", "experiments", "testdata", name)
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s:\n--- got\n%s\n--- want\n%s", golden, got, want)
	}
}

// TestFleetEventLogDeterministic replays the same burst through two fresh
// fleets and compares the full structured event logs.
func TestFleetEventLogDeterministic(t *testing.T) {
	const gig = int64(1) << 30
	run := func() []fleet.Event {
		env := sim.NewEnv()
		f := fleet.New(env, fleet.Config{
			Nodes: 4, CPUsPerNode: 8, MemPerNode: 32 * gig,
			Policy: sched.MinFrag, AutoReclaim: true,
			RebalanceEvery: 5 * sim.Second,
			Horizon:        120 * sim.Second,
		})
		f.Submit(fleet.GenerateBurst(rand.New(rand.NewSource(7)), 60, 60*sim.Second, 2*gig))
		env.RunUntil(120 * sim.Second)
		return f.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("fleet run produced no events")
	}
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("event logs diverge at index %d: %+v vs %+v", i, a[i], b[i])
			}
		}
		t.Fatalf("event logs differ in length: %d vs %d", len(a), len(b))
	}
}

// TestChromeTraceMatchesGolden rebuilds the tracing subsystem's witness
// scenario from the repository root and compares the export byte for byte
// against the checked-in golden file. This is the cross-package guard
// that the sim-core data-structure work cannot reorder events: the golden
// bytes predate it.
func TestChromeTraceMatchesGolden(t *testing.T) {
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
	golden := filepath.Join("internal", "trace", "testdata", "fig4_small.trace.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace export differs from %s (%d vs %d bytes): event order changed", golden, buf.Len(), len(want))
	}
}
