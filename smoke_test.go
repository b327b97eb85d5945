package repro

// Smoke tests for every runnable artifact in the repository: each cmd/
// binary and examples/ program must build, run a deliberately tiny
// configuration to completion, exit 0, and print exactly the stdout
// recorded in testdata/smoke (rewrite with `make golden`). They guard
// the public entry points the package tests never execute.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

// runSmoke runs `go run pkg args...` and returns its stdout, which must
// match testdata/smoke/<name>.
func runSmoke(t *testing.T, name, pkg string, args ...string) string {
	t.Helper()
	out := smoke(t, pkg, args...)
	golden.Check(t, filepath.Join("testdata", "smoke", name), out)
	return string(out)
}

// smoke runs `go run pkg args...` and returns its stdout. Stderr is shown
// only on failure, so -json modes are checked to print nothing else on
// stdout.
func smoke(t *testing.T, pkg string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", pkg}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run %s %v failed: %v\nstdout:\n%s\nstderr:\n%s", pkg, args, err, out, stderr.Bytes())
	}
	if len(out) == 0 {
		t.Fatalf("go run %s %v printed nothing on stdout", pkg, args)
	}
	return out
}

func TestSmokeCmdFragsim(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	runSmoke(t, "fragsim.txt", "./cmd/fragsim", "-workload", "EP", "-scale", "0.01", "-vcpus", "2")
}

func TestSmokeCmdFragbench(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	runSmoke(t, "fragbench_fig4.txt", "./cmd/fragbench", "-fig", "fig4", "-scale", "0.02")
	// The listing must include the fault-recovery and fleet experiments.
	out := runSmoke(t, "fragbench_list.txt", "./cmd/fragbench", "-list")
	for _, want := range []string{"recovery", "fleet"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fragbench -list output lacks %q:\n%s", want, out)
		}
	}
	// -json emits machine-readable tables.
	out = runSmoke(t, "fragbench_fleet.json", "./cmd/fragbench", "-fig", "fleet", "-scale", "0.02", "-json")
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

// TestSmokeCmdFragtrace covers the tracing front end, fragbench -trace.
func TestSmokeCmdFragtrace(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	// -trace appends the critical-path and traffic tables and writes a
	// trace file that re-reads with at least one event.
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	raw := smoke(t, "./cmd/fragbench", "-fig", "fig4", "-scale", "0.005", "-trace", tracePath)
	golden.Check(t, filepath.Join("testdata", "smoke", "fragbench_trace.txt"),
		bytes.ReplaceAll(raw, []byte(tracePath), []byte("trace.json")))
	out := string(raw)
	for _, want := range []string{"Critical path", "dsm-wait", "partition the total exactly", "ui.perfetto.dev"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fragbench -trace output lacks %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("fragbench -trace file: %d events, err %v", len(doc.TraceEvents), err)
	}
	// -json -trace: stdout alone is the JSON array, with the critical
	// path and traffic tables as entries.
	out = runSmoke(t, "fragbench_trace.json", "./cmd/fragbench", "-fig", "fig4", "-scale", "0.005", "-json", "-trace", tracePath)
	var results []struct {
		Experiment string `json:"experiment"`
	}
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("fragbench -json -trace stdout is not valid JSON: %v\n%s", err, out)
	}
	got := map[string]bool{}
	for _, r := range results {
		got[r.Experiment] = true
	}
	if !got["fig4"] || !got["critical-path"] || !got["traffic"] {
		t.Fatalf("fragbench -json -trace entries = %v, want fig4, critical-path and traffic", got)
	}
}

func TestSmokeCmdFragsweep(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	out := runSmoke(t, "fragsweep_list.txt", "./cmd/fragsweep", "-list")
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
	seq := runSmoke(t, "fragsweep_grid.json", "./cmd/fragsweep", append(args, "-parallel", "1")...)
	par := runSmoke(t, "fragsweep_grid.json", "./cmd/fragsweep", append(args, "-parallel", "4")...)
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
	out := runSmoke(t, "fragfleet.txt", "./cmd/fragfleet", args...)
	for _, want := range []string{"Fleet timeline", "Fleet events", "Queue waits"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fragfleet output lacks %q:\n%s", want, out)
		}
	}
}

func TestSmokeCmdFragchaos(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	// With the report on stdout, stdout alone must parse as the report.
	out := runSmoke(t, "fragchaos.json", "./cmd/fragchaos", "-episodes", "4", "-json", "-")
	var rep struct {
		Episodes int               `json:"episodes"`
		Outcomes []json.RawMessage `json:"outcomes"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("fragchaos -json - stdout is not valid JSON: %v\n%s", err, out)
	}
	if rep.Episodes != 4 || len(rep.Outcomes) != 4 {
		t.Fatalf("fragchaos report: %d episodes, %d outcomes, want 4 and 4", rep.Episodes, len(rep.Outcomes))
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
			runSmoke(t, "example_"+filepath.Base(pkg)+".txt", pkg)
		})
	}
}
