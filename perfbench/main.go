// Command perfbench is the repository's benchmark: four closed-loop batch
// workloads, each chosen to load a different layer of the simulator, run
// one op at a time on one goroutine, with every simulated output checked.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh -compare A.jsonl B.jsonl
//
// # Workloads
//
// Each workload generates an input list from -seed and runs it op by op;
// the next op starts when the previous one has finished. The process runs
// Go code on one processor (GOMAXPROCS 1), so the collector shares the
// ops' thread and the CPU time the benchmark reads is the work the ops
// caused. Inputs come in passes, and every pass holds the same mix of op
// kinds, so a run that ends on a pass boundary measures the same mix
// whatever its length. The timed phase stops at the pass boundary
// nearest to -seconds of host time spent inside ops. When the list runs
// out, the inputs are set up again (untimed) and replayed; a replayed op
// must repeat its output.
//
//   - figures: op = one paper figure via experiments.Run at scale 0.005;
//     a pass is fig4..fig11, fig13, fig14 and fig1, and each pass uses
//     its own seed derived from -seed (only fig1 draws from it; the other
//     figures are fixed experiments). fig12 is left out: its LEMP runs
//     have a floor of ten requests, so it costs about five host seconds
//     at any scale and would be half of every pass (fig1 still runs the
//     LEMP path). The fault-free data path: the DES core, DSM and message
//     layer take most of the CPU and the fleet none, so sim/dsm/msg
//     changes show here and fleet changes must not.
//   - fleet-soak: op = one simulated second of a 32-node fleet world
//     (2 ms consolidation tick, auto-reclaim, an owner reclaim every 5
//     simulated seconds, six 60 s waves of 280 arrivals at about two
//     thirds of capacity), timed around env.RunUntil; a pass is the whole
//     world. Each wave has the exact size, priority and duration mix of
//     fleet.GenerateBurst (durations scaled down tenfold), spread evenly
//     over the wave's seconds, and the seed only assigns and times them
//     within their slot, so every seed offers the same load each second
//     and the world is steady after one wave. The cost is the tick,
//     leases and reclaims in fleet and sched; the DES core and DSM are
//     idle. The workload for any per-tick fleet optimisation.
//   - fleet-sweep: op = one grid point through sweep.Run, cycling
//     fleetsoak, fleetsoak-evict, fleetsoak-resize and fleetchurn at scale
//     0.05 over 2048 seeds each. The same fleet layer used differently:
//     thousands of small worlds, so construction, admission and invariant
//     scans dominate, and all three reclaim policies and the balloon run.
//     A change that speeds ticks but slows construction shows on one fleet
//     workload and not the other.
//   - chaos: op = one generated fault episode judged by chaos.Run; a pass
//     is one episode of each chaos workload (256 of each, scale 0.02,
//     generated per workload so every seed has the same mix; the traced
//     pass repeats the first 256). The fault path: drop and duplicate storms,
//     retransmits, checkpoint restore, link cuts and the watchdog.
//     Shrinking is left out because its cost follows the number of
//     findings, not engine speed.
//
// An op fails when it returns an error or panics: a figure's error or
// panic, a sweep point's Err (sweep.Run turns Verify panics into one), a
// panic in the soak world. Chaos findings are the engine's output, not
// failures; the traced pass counts them per oracle. A run is correct when
// no op failed, every replayed op repeated its output, the set-up
// repetitions agreed, and the workload's invariants hold at the end: for
// the soak, fleet.VerifyReport is empty and the live heap, sampled every
// 15 simulated seconds, ends within 50% + 8 MB of its first sample.
//
// # Output
//
// A run prints two JSON lines on standard output: a record (workload,
// seed, host fingerprint, SHA-256 digest of the outputs of the ops the
// traced pass repeats, op counts, metrics, the timed ops' count, CPU and
// host seconds, their median and 95th percentile CPU time, and the median
// per op kind), then the summary {"correct", "attempted", "failed",
// "metrics"}. Two runs of one commit and seed print the same digest; a
// change that is only about speed keeps it.
//
// Every time the benchmark reports is the process's CPU time (user plus
// system, all threads, from getrusage), read around each op. Host time
// is what a user waits, but on a shared machine it also counts the time
// the host lent the CPU to someone else, and with a second processor the
// collector's share of it depends on whether that processor was free.
// On a 2-vCPU VM, ten seeds of figures with GOMAXPROCS 2 read 0.94 to
// 1.36 ops per host second (interquartile range 21% of the median) and
// 5.7% in CPU time; with GOMAXPROCS 1, 6.1% and 3.4%. The record keeps
// host time too.
//
// End-to-end metrics, with -trace 0:
//
//   - ops_per_cpu_s (1/s): completed ops per CPU second spent inside ops.
//     One worker runs the ops back to back, so this is one over the mean
//     CPU time per op. For fleet-soak it is simulated seconds per CPU
//     second.
//   - setup_s (s): CPU time of input generation plus one warm-up op, done
//     49 times in 7 blocks of 7, each starting like a fresh process with
//     no heap pages; the median of the block means. Work moved into
//     set-up shows here.
//
// Per-op percentiles stay in the record, not among the end-to-end
// metrics: a figures op is one of eleven different figures, and the
// median op of the chaos mix is a short fleet episode whose time follows
// the collector's load more than its own code, so neither repeats across
// seeds within a bound the benchmark could hold. The live heap is a
// per-layer metric for the same reason: the chaos engine leaves every
// episode's parked goroutines behind, and how much differs by 15% (IQR
// over median) from seed to seed.
//
// # Bounds
//
// BENCHMARK.json gives each end-to-end metric the share by which its
// median may worsen before a change counts as a regression: 0.25 for
// both, the most a bound may be. They are set from two batches of ten
// runs with different seeds, 25 host seconds each, on a 2-vCPU Xeon VM
// (Go 1.24). The interquartile range of ops_per_cpu_s over its median
// was 8.6% and 1.2% on figures, 7.2% and 2.9% on fleet-soak, 1.9% and
// 3.5% on fleet-sweep, and 8.5% and 7.7% on chaos; the batch medians
// differed by 1.5 to 4.3%. CPU time does not remove every effect of the
// host: in the first batch the same figures took up to a quarter less
// CPU time in some runs than in others. Chaos spreads on a quiet host too,
// because each seed draws its own vm-recovery episodes and their mean
// cost differs by seed: two seeds' episode sets, run interleaved in one
// process, differed by 17%. setup_s spread 3 to 24% per batch, and its
// batch medians differed by 1.3 to 8.3%. A tighter bound would flag
// that noise as regressions.
//
// # Traced pass
//
// With -trace 1 the run measures the layers from outside, with the same
// inputs. It runs a fixed list of leading ops (one pass of figures, the
// first half of the soak world, 512 points of fleet-sweep, 256 chaos
// episodes; a few host seconds each) untraced, repeating it while the
// repetitions fit in a quarter of -seconds, then as many times again
// under a runtime/pprof CPU profile with per-op fabric accounting
// attached, and reports:
//
//   - cpu.<module> (fraction): share of CPU samples whose innermost
//     repro/internal frame is in that module; cpu.runtime_gc for stacks
//     with no repro frame under a GC worker, cpu.runtime_other for the
//     rest. Predicted movers of ops_per_cpu_s: sim, dsm and msg on figures
//     and chaos; fleet and sched on both fleet workloads; reliable,
//     fault, faulttest and topo on chaos; balloon and sweep on
//     fleet-sweep; runtime_gc everywhere.
//   - exact work counts over the first traced list, which repeat exactly
//     for one seed and explain a move: sim.events and sim.procs
//     (fleet-soak), fabric.msgs and fabric.bytes (figures), fleet.*
//     (fleet-soak, fleet-sweep), chaos.violations.<oracle> (chaos). A
//     count a workload cannot observe reads 0.
//   - runtime.live_heap_mb: live heap after a full collection, once the
//     first untraced list is done; a fixed amount of work, so it does not
//     depend on how fast the host is.
//   - runtime.alloc_mb_per_op, runtime.gc_cycles_per_op and
//     runtime.gc_cpu_frac over the traced phase.
//   - trace.overhead_pct: traced CPU time over untraced CPU time of the
//     same ops, minus one, in percent.
//
// Unit costs of single layers (event dispatch, DSM fault, balloon
// inflate, ...) are the micros of cmd/fragperf; they are not repeated
// here.
//
// # Comparing two commits
//
// Run each commit several times per workload with different seeds,
// appending each run's standard output to one file per commit, then run
// perfbench -compare A B. For every workload and end-to-end metric it
// prints better, worse, unchanged or unresolved, using the bounds in
// BENCHMARK.json: worse when B's median is worse than A's by more than
// the bound; unresolved when either side's interquartile range exceeds
// the bound, unless B is better; better when each side has at least ten
// runs, the medians differ by more than A's interquartile range, and B
// wins nine tenths of the index-paired runs (or, where the spread is
// wider than the bound, every run of B beats every run of A). A gain
// with fewer than ten runs a side is unresolved. It also reports whether
// runs of the same seed agree on their digest, and refuses files whose
// host fingerprints differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// metric is one named measurement in the output.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line a run prints.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run, printed before the summary;
// -compare reads files of these.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Host      host               `json:"host"`
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Ops       int                `json:"ops,omitempty"`       // ops in the timed phase
	CPUs      float64            `json:"cpu_s,omitempty"`     // their CPU time
	WallS     float64            `json:"wall_s,omitempty"`    // and host time
	OpP50ms   float64            `json:"op_p50_ms,omitempty"` // their median CPU time
	OpP95ms   float64            `json:"op_p95_ms,omitempty"` // and 95th percentile
	KindP50ms map[string]float64 `json:"kind_p50_ms"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "host seconds the timed phase spends inside ops")
	traceMode := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced per-layer pass")
	compare := fs.Bool("compare", false, "compare two files of runs: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two files")
			return 2
		}
		// The bounds come from the repository root, where run.sh runs us.
		if err := compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}

	w, ok := lookup(*name, false)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}

	// One processor: the collector then runs on the workload's own thread
	// instead of on an otherwise idle one, so the process's CPU time is
	// the work the ops caused, whatever else the host runs.
	runtime.GOMAXPROCS(1)
	var rec *record
	var err error
	if *traceMode == 1 {
		rec, err = runTraced(w, *seed, *seconds)
	} else {
		rec, err = runTimed(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(stderr, "perfbench: problem:", p)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(summary{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
