package repro

// Smoke tests for every runnable artifact in the repository: each cmd/
// binary and examples/ program must build, run a deliberately tiny
// configuration to completion, exit 0, and print something. They guard
// the public entry points the package tests never execute.

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func runSmoke(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", pkg}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %s %v failed: %v\noutput:\n%s", pkg, args, err, out)
	}
	if len(out) == 0 {
		t.Fatalf("go run %s %v produced no output", pkg, args)
	}
	return string(out)
}

func TestSmokeCmdFragsim(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	runSmoke(t, "./cmd/fragsim", "-workload", "EP", "-scale", "0.01", "-vcpus", "2")
}

func TestSmokeCmdFragbench(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	runSmoke(t, "./cmd/fragbench", "-fig", "fig4", "-scale", "0.02")
	// The listing must include the fault-recovery and fleet experiments.
	out := runSmoke(t, "./cmd/fragbench", "-list")
	for _, want := range []string{"recovery", "fleet"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fragbench -list output lacks %q:\n%s", want, out)
		}
	}
	// -json emits machine-readable tables.
	out = runSmoke(t, "./cmd/fragbench", "-fig", "fleet", "-scale", "0.02", "-json")
	var results []struct {
		Experiment string `json:"experiment"`
		Table      struct {
			Title   string     `json:"title"`
			Headers []string   `json:"headers"`
			Rows    [][]string `json:"rows"`
		} `json:"table"`
	}
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("fragbench -json output is not valid JSON: %v\n%s", err, out)
	}
	if len(results) != 1 || results[0].Experiment != "fleet" || len(results[0].Table.Rows) == 0 {
		t.Fatalf("fragbench -json output unexpected: %+v", results)
	}
}

func TestSmokeCmdFragsweep(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	out := runSmoke(t, "./cmd/fragsweep", "-list")
	for _, want := range []string{"fleetsoak", "fleetsoak-evict", "fleetsoak-resize", "fleetchurn", "reduce"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fragsweep -list output lacks %q:\n%s", want, out)
		}
	}
	// The default three-policy grid shrunk to 4 seeds, sequentially
	// and across the worker pool: the JSON must parse, carry per-run and
	// stats entries plus the policy-comparison table, and be
	// byte-identical between the two runs.
	args := []string{"-scales", "0.02", "-seeds", "4", "-runs", "-json"}
	seq := runSmoke(t, "./cmd/fragsweep", append(args, "-parallel", "1")...)
	par := runSmoke(t, "./cmd/fragsweep", append(args, "-parallel", "4")...)
	if seq != par {
		t.Fatal("fragsweep output differs between -parallel 1 and -parallel 4")
	}
	var entries []struct {
		Kind       string `json:"kind"`
		Experiment string `json:"experiment"`
		Table      struct {
			Rows [][]string `json:"rows"`
		} `json:"table"`
	}
	if err := json.Unmarshal([]byte(seq), &entries); err != nil {
		t.Fatalf("fragsweep -json output is not valid JSON: %v\n%s", err, seq)
	}
	kinds := map[string]int{}
	for _, e := range entries {
		kinds[e.Kind]++
		if len(e.Table.Rows) == 0 {
			t.Fatalf("fragsweep emitted an empty %s table for %s", e.Kind, e.Experiment)
		}
	}
	// 3 experiments x 4 seeds = 12 run tables, 3 stats tables, and the
	// policy comparison the default grid enables.
	if kinds["run"] != 12 || kinds["stats"] != 3 || kinds["comparison"] != 1 {
		t.Fatalf("fragsweep entry kinds = %v, want 12 runs, 3 stats, 1 comparison", kinds)
	}
}

func TestSmokeCmdFragfleet(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	args := []string{"-nodes", "4", "-vms", "16", "-until", "60", "-reclaim-at", "2@30", "-crash", "1@45"}
	out := runSmoke(t, "./cmd/fragfleet", args...)
	for _, want := range []string{"Fleet timeline", "Fleet events", "Queue waits"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fragfleet output lacks %q:\n%s", want, out)
		}
	}
	// Determinism acceptance: two same-seed runs are byte-identical.
	if again := runSmoke(t, "./cmd/fragfleet", args...); again != out {
		t.Fatal("fragfleet output differs between two same-seed runs")
	}
}

func TestSmokeCmdFragtrace(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	out := runSmoke(t, "./cmd/fragtrace",
		"-experiment", "fig4", "-scale", "0.005",
		"-out", filepath.Join(t.TempDir(), "trace.json"))
	for _, want := range []string{"Critical path", "dsm-wait", "partition the total exactly", "ui.perfetto.dev"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fragtrace output lacks %q:\n%s", want, out)
		}
	}
}

func TestSmokeExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke tests in -short mode")
	}
	for _, pkg := range []string{
		"./examples/quickstart",
		"./examples/lemp",
		"./examples/serverless",
		"./examples/consolidation",
		"./examples/fleet",
	} {
		pkg := pkg
		t.Run(pkg, func(t *testing.T) {
			runSmoke(t, pkg)
		})
	}
}
