package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// benchSpec is the part of BENCHMARK.json the tests check against.
type benchSpec struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func quick(t *testing.T, name string) workload {
	t.Helper()
	w, ok := lookup(name, true)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// checkMetrics fails unless got holds exactly the named metrics, with
// the units BENCHMARK.json gives them.
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at quick size, timed
// and traced: each must be correct, run ops, report exactly the metrics
// BENCHMARK.json names, and repeat its digest and work counts for the
// same seed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := quick(t, name)
			timed, err := runTimed(w, 1, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, 1, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			again, err := runTraced(w, 1, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*record{timed, traced, again} {
				if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d problems=%v",
						r.Trace, r.Correct, r.Attempted, r.Failed, r.Problems)
				}
			}
			checkMetrics(t, timed.Metrics, e2e)
			checkMetrics(t, traced.Metrics, layer)

			if timed.Digest == "" || timed.Digest != traced.Digest || traced.Digest != again.Digest {
				t.Errorf("digests differ for one seed: %q %q %q", timed.Digest, traced.Digest, again.Digest)
			}
			for _, c := range countNames {
				if a, b := traced.Metrics[c].Value, again.Metrics[c].Value; a != b {
					t.Errorf("count %s differs for one seed: %v vs %v", c, a, b)
				}
			}
			if name == "figures" {
				return // of the figures, only fig1 reads the seed
			}
			other, err := runTimed(w, 2, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if other.Digest == timed.Digest {
				t.Errorf("seeds 1 and 2 gave the same digest")
			}
		})
	}
}

// TestTracedPassShowsLayers checks the traced pass attributes CPU and
// work to the layers the quick workloads exercise.
func TestTracedPassShowsLayers(t *testing.T) {
	r, err := runTraced(quick(t, "fleet-soak"), 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if fs := r.Metrics["cpu.fleet"].Value + r.Metrics["cpu.sched"].Value; fs == 0 {
		t.Errorf("fleet-soak: no CPU attributed to fleet or sched")
	}
	if r.Metrics["sim.events"].Value == 0 || r.Metrics["fleet.admitted"].Value == 0 {
		t.Errorf("fleet-soak: work counts missing: %v", r.Metrics)
	}
	r, err = runTraced(quick(t, "figures"), 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["fabric.msgs"].Value == 0 {
		t.Errorf("figures: no fabric messages counted")
	}
}

// TestFleetSweepDigestIndependentOfWorkers runs the quick fleet-sweep
// inputs one op at a time, as the benchmark does, and again through
// sweep.Run at NumCPU workers: every point's output must match.
func TestFleetSweepDigestIndependentOfWorkers(t *testing.T) {
	inst := newFleetSweep(1, 4)
	seq := map[string][sha256.Size]byte{}
	for i := 0; i < inst.len(); i++ {
		if err := inst.run(i); err != nil {
			t.Fatal(err)
		}
		seq[inst.points[i].String()] = sha256.Sum256(inst.output())
	}
	var seeds []int64
	for _, p := range inst.points {
		if p.Experiment == sweepKinds[0] {
			seeds = append(seeds, p.Seed)
		}
	}
	spec := sweep.Spec{Experiments: sweepKinds, Scales: []float64{sweepScale}, Seeds: seeds}
	res, err := sweep.Run(spec, runtime.NumCPU(), func(p sweep.Point) (*metrics.Table, error) {
		return experiments.Run(p.Experiment, experiments.Options{Scale: p.Scale, Seed: p.Seed})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(seq) {
		t.Fatalf("%d parallel results, %d sequential", len(res), len(seq))
	}
	for _, r := range res {
		if sha256.Sum256([]byte(r.Table.String())) != seq[r.Point.String()] {
			t.Errorf("%s: output differs between 1 and %d workers", r.Point, runtime.NumCPU())
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/dsm.(*DSM).Touch", "repro/internal/sim.(*Env).RunUntil", "main.main"}, "dsm"},
		{[]string{"runtime.mapaccess1", "repro/internal/fleet.(*Fleet).verify.func1", "repro/internal/sim.(*Env).RunUntil"}, "fleet"},
		{[]string{"repro/internal/sim.(*Queue[...]).Get", "repro/internal/guest.(*Kernel).Run"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, bucketGC},
		{[]string{"runtime.futex", "runtime.schedule", "runtime.mcall"}, bucketOther},
		{[]string{"main.runMicro", "main.main"}, bucketOther},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestCPUSharesReadsARealProfile profiles a loop that lives in the sim
// package and checks the profile decoder attributes it there.
func TestCPUSharesReadsARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		e := sim.NewEnv()
		remaining := 100_000
		var tick func()
		tick = func() {
			if remaining > 0 {
				remaining--
				e.Defer(1, tick)
			}
		}
		e.Defer(1, tick)
		e.Run()
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range cpuBuckets() {
		sum += shares[b]
	}
	if sum == 0 {
		t.Skip("no CPU samples taken")
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	// Samples inside the runtime (or, under -race, inside the race
	// detector) may lack Go frames; every sample that has one is in sim.
	for b, v := range shares {
		if b != "sim" && b != bucketGC && b != bucketOther && v > 0 {
			t.Errorf("a sim-only loop put %.3f of its samples in %s", v, b)
		}
	}
	if shares["sim"] == 0 {
		t.Errorf("no samples attributed to sim: %v", shares)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q := quartiles([]float64{1, 2}); q != [3]float64{0.75, 1.5, 2.25} {
		t.Errorf("quartiles of two = %v", q)
	}
}

// writeRuns writes one record line per value of ops_per_cpu_s and op_p50_ms.
func writeRuns(t *testing.T, path string, h host, ops []float64) {
	t.Helper()
	var b bytes.Buffer
	for i, v := range ops {
		r := record{Workload: "figures", Seed: int64(i + 1), Host: h, Digest: "d", Correct: true,
			Metrics: map[string]metric{"ops_per_cpu_s": {v, "1/s"}, "op_p50_ms": {10 + float64(i%2)/100, "ms"}}}
		if err := json.NewEncoder(&b).Encode(r); err != nil {
			t.Fatal(err)
		}
		b.WriteString(`{"correct":true,"attempted":1,"failed":0,"metrics":{}}` + "\n")
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFlagsSlowdownAndRejectsOtherHosts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [
		{"name": "ops_per_cpu_s", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	h := host{NumCPU: 2, GOMAXPROCS: 2, CPUModel: "cpu", GoVersion: "go"}
	a, b, c := filepath.Join(dir, "a"), filepath.Join(dir, "b"), filepath.Join(dir, "c")
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.7, 99.3, 100.1}
	slow := make([]float64, len(base))
	for i, v := range base {
		slow[i] = 0.8 * v
	}
	writeRuns(t, a, h, base)
	writeRuns(t, b, h, slow)

	verdicts := func(aPath, bPath string) map[string]string {
		t.Helper()
		var out bytes.Buffer
		if err := compareFiles(bench, aPath, bPath, &out); err != nil {
			t.Fatal(err)
		}
		v := map[string]string{}
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 1 && strings.HasPrefix(line, "  ") {
				v[f[1]] = f[0]
			}
		}
		if !strings.Contains(out.String(), "digests identical on") {
			t.Errorf("digest line missing:\n%s", out.String())
		}
		return v
	}
	if v := verdicts(a, b); v["ops_per_cpu_s"] != "worse" || v["op_p50_ms"] != "unchanged" {
		t.Errorf("a 20%% slowdown at a 10%% bound: verdicts %v", v)
	}
	if v := verdicts(b, a); v["ops_per_cpu_s"] != "better" {
		t.Errorf("a 25%% speed-up over ten runs each: verdicts %v, want better", v)
	}
	// Five runs a side are too few to claim the same gain.
	writeRuns(t, a, h, slow[:5])
	writeRuns(t, b, h, base[:5])
	if v := verdicts(a, b); v["ops_per_cpu_s"] != "unresolved" {
		t.Errorf("a gain over five runs each: verdicts %v, want unresolved", v)
	}

	other := h
	other.CPUModel = "another cpu"
	writeRuns(t, c, other, base)
	if err := compareFiles(bench, a, c, io.Discard); err == nil {
		t.Errorf("runs from different hosts were compared")
	}
}

func TestVerdictUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	a := []float64{100, 70, 130, 90, 110}
	b := []float64{95, 65, 125, 85, 105}
	if v := verdict(a, b, "higher", 0.1); v != "unresolved" {
		t.Errorf("verdict = %s, want unresolved", v)
	}
	// Every run of B beats every run of A, but A's spread is wider than
	// the gap between the medians, so the gain is not shown.
	a = []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	b = []float64{101, 102, 103, 104, 105, 106, 107, 108, 109, 110}
	if v := verdict(a, b, "higher", 0.1); v != "unresolved" {
		t.Errorf("verdict = %s, want unresolved", v)
	}
	a = []float64{95, 96, 97, 98, 99, 100, 101, 102, 103, 110}
	b = []float64{125, 126, 127, 128, 129, 130, 131, 132, 133, 134}
	if v := verdict(a, b, "higher", 0.01); v != "better" {
		t.Errorf("verdict = %s, want better", v)
	}
}

// TestHeapGateFailsLeakingRun runs the quick soak with every op
// retaining memory the gate must notice.
func TestHeapGateFailsLeakingRun(t *testing.T) {
	w := quick(t, "fleet-soak")
	build := w.build
	w.build = func(seed int64, traced bool) instance {
		return &leaky{instance: build(seed, traced)}
	}
	r, err := runTimed(w, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || !strings.Contains(strings.Join(r.Problems, "\n"), "live heap not steady") {
		t.Errorf("a leaking run passed the heap gate: correct=%v problems=%v", r.Correct, r.Problems)
	}

	r, err = runTimed(quick(t, "fleet-soak"), 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct {
		t.Errorf("the plain soak failed: %v", r.Problems)
	}
}

// leaky retains a megabyte on every op after the warm-up op, so set-up's
// repetitions do not hide the growth, until its world is dropped. The
// gate compares against the process's whole live heap, and earlier tests
// leave tens of megabytes of chaos worlds behind, so a smaller leak would
// hide inside the gate's slack.
type leaky struct {
	instance
	kept [][]byte
}

func (l *leaky) run(i int) error {
	if i > 0 {
		l.kept = append(l.kept, make([]byte, 1<<20))
	}
	return l.instance.run(i)
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "figures", "--trace", "2"},
		{"--workload", "figures", "--seconds", "0"},
		{"-compare", "only-one-file"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, stdout.String())
		}
	}
}

// sleeper is an instance whose every op takes a millisecond.
type sleeper struct{}

func (sleeper) len() int                   { return 1000 }
func (sleeper) kind(int) string            { return "sleep" }
func (sleeper) run(int) error              { time.Sleep(time.Millisecond); return nil }
func (sleeper) output() []byte             { return nil }
func (sleeper) counts() map[string]float64 { return nil }
func (sleeper) check() error               { return nil }

// TestTimedPhaseRunsForTheBudget checks the timed phase spends the whole
// budget inside ops even when the digest's leading ops take most of it.
func TestTimedPhaseRunsForTheBudget(t *testing.T) {
	w := workload{name: "sleep", pass: 2, fixed: 150, build: func(int64, bool) instance { return sleeper{} }}
	r, err := runTimed(w, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if r.WallS < 0.19 || r.WallS > 0.21 {
		t.Errorf("timed phase spent %.3f s inside ops, want 0.2 s", r.WallS)
	}
	// Sleeping takes host time but next to no CPU time.
	if r.CPUs > r.WallS/2 {
		t.Errorf("ops that sleep used %.3f CPU seconds in %.3f host seconds", r.CPUs, r.WallS)
	}
}
