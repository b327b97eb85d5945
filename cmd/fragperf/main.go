// Command fragperf measures the wall-clock performance of the DES core and
// the simulator's hottest paths, and writes a JSON snapshot so every PR has
// a perf trajectory to compare against (see "Performance tracking" in the
// README).
//
// Three sections are measured:
//
//   - micro: targeted microbenchmarks of the sim core (event dispatch,
//     proc wake, queue churn, mutex hand-off, WaitTimeout storm, spawn
//     churn) plus the engine's hottest composite paths (DSM remote write
//     fault, vCPU migration, balloon inflate round trip, working-set
//     estimator update) — ns/op, bytes/op, allocs/op.
//   - figures: one timed pass over every paper-figure experiment at quick
//     scale, the same set the Benchmark* suite in bench_test.go covers.
//   - soak: a long fleet-control-plane run (≥ 10⁶ scheduled events at
//     default settings) that samples the live heap at quarter points and
//     fails the run if steady-state memory grows — the wall-clock
//     regression guard for the unbounded-growth class of bug.
//   - sweep: the parallel-speedup benchmark — the same multi-seed
//     fleet-soak sweep grid timed at increasing worker counts, recording
//     wall-clock scaling vs workers (speedup is relative to 1 worker on
//     the same grid; expect ≈linear up to the physical core count).
//
// Usage:
//
//	fragperf [-out BENCH_pr10.json] [-benchtime 1s] [-quick]
//
// -quick runs every microbenchmark for a single calibration pass and
// shrinks the soak; it is the CI smoke mode (make perf-smoke).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/fragvisor"
	"repro/internal/balloon"
	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/reliable"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topo"
)

// BenchResult is one microbenchmark's measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// FigResult is one figure experiment's wall-clock measurement.
type FigResult struct {
	Name   string  `json:"name"`
	Rows   int     `json:"rows"`
	WallMs float64 `json:"wall_ms"`
}

// SoakResult reports the long-run steady-state check.
type SoakResult struct {
	Events            uint64   `json:"events"`
	VirtualSeconds    float64  `json:"virtual_seconds"`
	WallMs            float64  `json:"wall_ms"`
	EventsPerSec      float64  `json:"events_per_sec"`
	HeapSampleBytes   []uint64 `json:"heap_sample_bytes"` // live heap at quarter points
	HeapGrowthPercent float64  `json:"heap_growth_percent"`
	Steady            bool     `json:"steady"`
}

// SweepScale is one worker count's wall-clock over the speedup grid.
type SweepScale struct {
	Workers   int     `json:"workers"`
	Runs      int     `json:"runs"`
	WallMs    float64 `json:"wall_ms"`
	SpeedupX1 float64 `json:"speedup_vs_1"`
}

// Snapshot is the whole perf snapshot; the checked-in BENCH json holds
// one.
type Snapshot struct {
	Schema       string        `json:"schema"`
	GoVersion    string        `json:"go_version"`
	GOOS         string        `json:"goos"`
	GOARCH       string        `json:"goarch"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	Quick        bool          `json:"quick"`
	Micro        []BenchResult `json:"micro"`
	Figures      []FigResult   `json:"figures"`
	Soak         SoakResult    `json:"soak"`
	Sweep        []SweepScale  `json:"sweep"`
	PeakRSSBytes int64         `json:"peak_rss_bytes"`
}

func main() {
	out := flag.String("out", "BENCH_pr10.json", "output JSON path (- for stdout)")
	benchtime := flag.String("benchtime", "1s", "target run time per microbenchmark (go-test syntax: a duration, or Nx for a fixed iteration count)")
	quick := flag.Bool("quick", false, "single-pass smoke mode: one iteration per benchmark, small soak")
	soakVMs := flag.Int("soak-vms", 48, "fleet VMs per soak wave")
	soakWaves := flag.Int("soak-waves", 40, "fleet soak waves (60 virtual seconds each)")
	flag.Parse()

	if *quick {
		*benchtime = "1x"
		*soakWaves = 4
	}
	benchDur, benchIters, err := parseBenchtime(*benchtime)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fragperf: -benchtime %q: %v\n", *benchtime, err)
		os.Exit(2)
	}

	snap := Snapshot{
		Schema:     "fragperf/2",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}

	for _, b := range []struct {
		name string
		fn   func(n int)
	}{
		{"event-dispatch", benchEventDispatch},
		{"proc-wake", benchProcWake},
		{"queue-churn", benchQueueChurn},
		{"mutex-handoff", benchMutexHandoff},
		{"waittimeout-storm", benchWaitTimeoutStorm},
		{"spawn-churn", benchSpawnChurn},
		{"dsm-fault", benchDSMFault},
		{"vcpu-migration", benchVCPUMigration},
		{"balloon-inflate", benchBalloonInflate},
		{"wss-update", benchWSSUpdate},
		{"topo-route", benchTopoRoute},
		{"link-contention", benchLinkContention},
		{"reliable-send", benchReliableSend},
		{"retry-storm", benchRetryStorm},
		{"chaos-episode", benchChaosEpisode},
	} {
		r := measure(b.name, benchDur, benchIters, b.fn)
		fmt.Fprintf(os.Stderr, "%-20s %10d iters  %12.1f ns/op %10.1f B/op %8.2f allocs/op\n",
			r.Name, r.Iters, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		snap.Micro = append(snap.Micro, r)
	}

	for _, fig := range []string{"fig1", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14"} {
		r, err := runFigure(fig)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fragperf: %s: %v\n", fig, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%-20s %4d rows %12.1f ms\n", r.Name, r.Rows, r.WallMs)
		snap.Figures = append(snap.Figures, r)
	}

	snap.Soak = runSoak(*soakVMs, *soakWaves)
	fmt.Fprintf(os.Stderr, "%-20s %10d events  %10.1f ms  %12.0f events/s  heap %s  growth %+.1f%%\n",
		"fleet-soak", snap.Soak.Events, snap.Soak.WallMs, snap.Soak.EventsPerSec,
		fmtHeapSamples(snap.Soak.HeapSampleBytes), snap.Soak.HeapGrowthPercent)

	snap.Sweep = runSweepScaling(*quick)
	for _, s := range snap.Sweep {
		fmt.Fprintf(os.Stderr, "%-20s %4d workers %10.1f ms  %6.2fx vs 1 worker\n",
			"sweep-speedup", s.Workers, s.WallMs, s.SpeedupX1)
	}

	snap.PeakRSSBytes = peakRSS()

	enc, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fragperf: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "fragperf: %v\n", err)
		os.Exit(1)
	}

	if !snap.Soak.Steady {
		fmt.Fprintf(os.Stderr, "fragperf: FAIL: soak heap grew %.1f%% after warmup — the core is leaking again\n",
			snap.Soak.HeapGrowthPercent)
		os.Exit(1)
	}
}

// parseBenchtime accepts go-test -benchtime syntax: a duration ("2s") or
// a fixed iteration count ("100x").
func parseBenchtime(s string) (time.Duration, int, error) {
	if iters, ok := strings.CutSuffix(s, "x"); ok {
		n, err := strconv.Atoi(iters)
		if err != nil || n <= 0 {
			return 0, 0, fmt.Errorf("iteration count must be a positive integer")
		}
		return 0, n, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, 0, err
	}
	return d, 0, nil
}

// measure times fn(n), scaling n until the run lasts at least benchtime
// (or pinning n to fixedIters when that is set), then reports per-op cost
// and allocation from a final instrumented run.
func measure(name string, benchtime time.Duration, fixedIters int, fn func(n int)) BenchResult {
	n := 1
	if fixedIters > 0 {
		n = fixedIters
	}
	fn(1) // warm up pools, page in code
	if fixedIters == 0 && benchtime > 0 {
		for {
			start := time.Now()
			fn(n)
			elapsed := time.Since(start)
			if elapsed >= benchtime || n >= 1<<30 {
				break
			}
			next := n * 2
			if elapsed > 0 {
				if byTime := int(float64(n) * 1.2 * float64(benchtime) / float64(elapsed)); byTime > next {
					next = byTime
				}
			}
			n = next
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn(n)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return BenchResult{
		Name:        name,
		Iters:       n,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
	}
}

// benchEventDispatch measures raw heap push/pop + callback execution: a
// single self-rescheduling callback, one event per op.
func benchEventDispatch(n int) {
	e := sim.NewEnv()
	remaining := n
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

// benchProcWake measures the park/dispatch round trip: one Sleep per op.
func benchProcWake(n int) {
	e := sim.NewEnv()
	e.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	e.Run()
}

// benchQueueChurn measures blocking producer/consumer hand-off: one
// Put+Get pair per op.
func benchQueueChurn(n int) {
	e := sim.NewEnv()
	q := sim.NewQueue[int](e)
	e.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q.Get(p)
		}
	})
	e.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q.Put(i)
			p.Sleep(1)
		}
	})
	e.Run()
}

// benchMutexHandoff measures FIFO lock transfer between two contending
// procs: one Lock+Unlock per op.
func benchMutexHandoff(n int) {
	e := sim.NewEnv()
	m := e.NewMutex()
	worker := func(p *sim.Proc) {
		for i := 0; i < n/2; i++ {
			m.Lock(p)
			p.Sleep(1)
			m.Unlock()
		}
	}
	e.Spawn("a", worker)
	e.Spawn("b", worker)
	e.Run()
}

// benchWaitTimeoutStorm measures the RPC-timeout pattern where the reply
// always beats the deadline — the path that used to accumulate cancelled
// timers: one WaitTimeout per op.
func benchWaitTimeoutStorm(n int) {
	e := sim.NewEnv()
	e.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			ev := e.NewEvent()
			e.After(1, ev.Fire)
			p.WaitTimeout(ev, sim.Second)
		}
	})
	e.Run()
}

// benchSpawnChurn measures short-lived process turnover (worker-pool
// reuse): one spawn+finish per op.
func benchSpawnChurn(n int) {
	e := sim.NewEnv()
	e.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			w := e.Spawn("w", func(p *sim.Proc) { p.Sleep(1) })
			p.Wait(w.Done())
		}
	})
	e.Run()
}

// benchDSMFault mirrors BenchmarkDSMFault: one remote DSM write fault
// (page ping-pong between two nodes) per op — the engine's hottest path.
func benchDSMFault(n int) {
	tb := fragvisor.NewTestbed(2)
	vm := tb.NewFragVisorVM(2, 4<<30)
	tb.Env.Spawn("pingpong", func(p *fragvisor.Proc) {
		for i := 0; i < n; i++ {
			vm.DSM.Touch(p, i%2, 12345, true)
		}
	})
	tb.Run()
}

// benchVCPUMigration mirrors BenchmarkVCPUMigration: one cross-node vCPU
// migration per op.
func benchVCPUMigration(n int) {
	tb := fragvisor.NewTestbed(2)
	vm := tb.NewFragVisorVM(2, 4<<30)
	tb.Env.Spawn("migrate", func(p *fragvisor.Proc) {
		for i := 0; i < n; i++ {
			vm.MigrateVCPU(p, 1, 1-vm.VCPUNodes()[1], 0)
		}
	})
	tb.Run()
}

// benchBalloonInflate mirrors BenchmarkBalloonInflate: one single-batch
// balloon inflate+deflate round trip (zone lock, PTE update, pfn-array
// work) per op.
func benchBalloonInflate(n int) {
	tb := fragvisor.NewTestbed(2)
	vm := tb.NewFragVisorVM(2, 4<<30)
	d := balloon.NewDriver(tb.Env, vm.Kernel, balloon.DefaultCosts())
	tb.Env.Spawn("balloon", func(p *fragvisor.Proc) {
		for i := 0; i < n; i++ {
			took := d.Inflate(p, 0, 0, 256)
			d.Deflate(p, 0, 0, took)
		}
	})
	tb.Run()
}

// benchWSSUpdate mirrors BenchmarkWSSUpdate: one working-set estimator
// observation per op — the cost added to every guest allocation.
func benchWSSUpdate(n int) {
	est := balloon.NewEstimator(0.2)
	for i := 0; i < n; i++ {
		est.Observe(int64(i % 4096))
	}
}

// benchTopoRoute measures one cross-rack topology send per op: route
// lookup plus charging all four links of a 2-rack tree with an
// oversubscribed spine — the per-message overhead the topology layer
// adds over the flat fabric's single-NIC charge.
func benchTopoRoute(n int) {
	env := sim.NewEnv()
	fab := topo.TreeSpec(2, 2, 4).Build(env, "bench", 56, 1500*sim.Nanosecond)
	env.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			fab.Send(0, 2, 4096, nil)
			p.Sleep(1)
		}
	})
	env.Run()
}

// benchLinkContention measures a contended shared link: two senders in
// one rack blast a receiver across the spine, so every message queues on
// the rack's ToR uplink FIFO. One delivered message per op.
func benchLinkContention(n int) {
	env := sim.NewEnv()
	fab := topo.TreeSpec(2, 2, 4).Build(env, "bench", 56, 1500*sim.Nanosecond)
	env.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < n/2+1; i++ {
			ev := env.NewEvent()
			fab.Send(0, 2, 65536, nil)
			fab.Send(1, 2, 65536, ev.Fire)
			p.Wait(ev)
		}
	})
	env.Run()
}

// benchReliableSend measures one acknowledged transport send on a clean
// (but filter-installed) fabric per op: sequence bookkeeping, the data
// frame, the ack round, and the pending-event wait — the per-message
// protocol overhead the reliable layer adds under fault injection.
func benchReliableSend(n int) {
	env := sim.NewEnv()
	fab := topo.FlatSpec().Build(env, "bench", 56, 1500*sim.Nanosecond)
	fab.SetFilter(passFilter{})
	tr := reliable.New(env, fab, reliable.DefaultParams())
	env.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := tr.Send(p, 0, 1, 4096); err != nil {
				panic(err)
			}
		}
	})
	env.Run()
}

// benchRetryStorm measures the transport's worst case: every message
// loses its first frame, forcing a full RTO wait plus a retransmission.
// One delivered-after-retry message per op — the cost model for loop
// slowdown under drop storms.
func benchRetryStorm(n int) {
	env := sim.NewEnv()
	fab := topo.FlatSpec().Build(env, "bench", 56, 1500*sim.Nanosecond)
	f := &dropEveryOther{}
	fab.SetFilter(f)
	p := reliable.DefaultParams()
	p.RTOSlack = 10 * sim.Microsecond // keep virtual time bounded
	tr := reliable.New(env, fab, p)
	env.Spawn("sender", func(pr *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := tr.Send(pr, 0, 1, 4096); err != nil {
				panic(err)
			}
		}
	})
	env.Run()
}

// benchChaosEpisode measures one full chaos episode per op — cluster
// and VM construction, a generated fault schedule applied to the
// recovery workload, and the whole oracle registry judging quiescence —
// the unit cost that sizes a chaos search (cmd/fragchaos).
func benchChaosEpisode(n int) {
	ep := chaos.Generate(chaos.Config{Episodes: 1, Seed: 1,
		Workloads: []string{chaos.WorkloadVM}})[0]
	for i := 0; i < n; i++ {
		if vs := chaos.Run(ep, chaos.Hooks{}); len(vs) != 0 {
			panic(fmt.Sprintf("chaos episode violated: %v", vs))
		}
	}
}

// passFilter delivers everything but forces the transport off its
// zero-fault fast path, so the full ack/seq machinery is measured.
type passFilter struct{}

func (passFilter) Outcome(from, to, size int) netsim.Outcome { return netsim.Outcome{} }

// dropEveryOther drops data frames (0→1) on even counts: first attempt
// lost, retransmit delivered. Acks (1→0) always pass.
type dropEveryOther struct{ count int }

func (d *dropEveryOther) Outcome(from, to, size int) netsim.Outcome {
	if from == 0 && to == 1 {
		d.count++
		return netsim.Outcome{Drop: d.count%2 == 1}
	}
	return netsim.Outcome{}
}

// runFigure times one full figure experiment at quick scale.
func runFigure(name string) (FigResult, error) {
	start := time.Now()
	tab, err := experiments.Run(name, experiments.QuickOptions())
	if err != nil {
		return FigResult{}, err
	}
	return FigResult{
		Name:   name,
		Rows:   len(tab.Rows),
		WallMs: float64(time.Since(start).Microseconds()) / 1e3,
	}, nil
}

// runSoak drives the fleet control plane through waves of VM arrivals —
// admission, leases, reclaims, rebalance ticks, departures — sampling the
// live heap at each quarter of the run. Steady state means the heap after
// the final quarter is within 50% (plus a fixed 8 MB slack for pool
// high-water marks) of the first post-warmup sample.
func runSoak(vmsPerWave, waves int) SoakResult {
	env, f := buildSoak(42, vmsPerWave, waves)

	var samples []uint64
	start := time.Now()
	quarter := sim.Time(waves) * soakWindow / 4
	for q := 1; q <= 4; q++ {
		env.RunUntil(sim.Time(q) * quarter)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		samples = append(samples, ms.HeapAlloc)
	}
	env.Run() // drain departures past the horizon
	wall := time.Since(start)
	f.Verify()

	growth := 100 * (float64(samples[3]) - float64(samples[0])) / float64(samples[0])
	steady := samples[3] <= samples[0]+samples[0]/2+(8<<20)
	return SoakResult{
		Events:            env.Scheduled(),
		VirtualSeconds:    env.Now().Seconds(),
		WallMs:            float64(wall.Microseconds()) / 1e3,
		EventsPerSec:      float64(env.Scheduled()) / wall.Seconds(),
		HeapSampleBytes:   samples,
		HeapGrowthPercent: growth,
		Steady:            steady,
	}
}

// soakWindow is one soak wave's virtual duration.
const soakWindow = 60 * sim.Second

// buildSoak constructs the fleet-soak scenario: `waves` waves of seeded
// VM arrivals against an 8-node fleet with auto-reclaim and an
// aggressively fast consolidation tick.
func buildSoak(seed int64, vmsPerWave, waves int) (*sim.Env, *fleet.Fleet) {
	const gig = int64(1) << 30
	env := sim.NewEnv()
	f := fleet.New(env, fleet.Config{
		Nodes: 8, CPUsPerNode: 8, MemPerNode: 32 * gig,
		Policy: sched.MinFrag, AutoReclaim: true,
		// A 2 ms consolidation tick is deliberately aggressive: together
		// with the VM churn it pushes the default run past 10⁶ scheduled
		// events, which is what makes the quarter-point heap samples a
		// meaningful steady-state witness.
		RebalanceEvery: 2 * sim.Millisecond,
		Horizon:        sim.Time(waves) * soakWindow,
	})
	rng := rand.New(rand.NewSource(seed))
	for w := 0; w < waves; w++ {
		burst := fleet.GenerateBurst(rng, vmsPerWave, soakWindow, 2*gig)
		for i := range burst {
			burst[i].ID += w * vmsPerWave
			burst[i].Arrival += sim.Time(w) * soakWindow
		}
		f.Submit(burst)
	}
	return env, f
}

// soakSweepRunner runs one seeded soak world per grid point and reports
// its event and admission counts — enough to witness determinism.
func soakSweepRunner(vmsPerWave, waves int) sweep.Runner {
	return func(p sweep.Point) (*metrics.Table, error) {
		env, f := buildSoak(p.Seed, vmsPerWave, waves)
		env.Run()
		f.Verify()
		t := metrics.NewTable("soak", "stat", "value")
		t.AddRow("events", float64(env.Scheduled()))
		t.AddRow("admitted", float64(f.Stats().Admitted))
		return t, nil
	}
}

// runSweepScaling is the parallel-speedup benchmark: the multi-seed
// fleet-soak sweep (each seed one buildSoak world, far smaller than the
// heap-gate soak) timed at increasing worker counts. Every worker count
// runs the identical grid, so wall-clock differences are pure
// parallelism; per-run outputs are byte-identical by the sweep engine's
// determinism contract. Expect ≈linear speedup up to the physical core
// count — and none on a single-core host.
func runSweepScaling(quick bool) []SweepScale {
	vmsPerWave, waves, seeds := 24, 2, 16
	if quick {
		vmsPerWave, seeds = 12, 8
	}
	run := soakSweepRunner(vmsPerWave, waves)
	spec := sweep.Spec{
		Experiments: []string{"fleet-soak"},
		Scales:      []float64{1},
		Seeds:       sweep.Seeds(1, seeds),
	}

	workers := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		workers = append(workers, p)
	}

	// Warm-up: page in code and let the runtime grow its heap once so
	// the 1-worker baseline is not charged for it.
	warm := spec
	warm.Seeds = sweep.Seeds(1, 1)
	if _, err := sweep.Run(warm, 1, run); err != nil {
		fmt.Fprintf(os.Stderr, "fragperf: sweep warm-up: %v\n", err)
		os.Exit(1)
	}

	var out []SweepScale
	for _, w := range workers {
		start := time.Now()
		res, err := sweep.Run(spec, w, run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fragperf: sweep at %d workers: %v\n", w, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		sc := SweepScale{
			Workers: w,
			Runs:    len(res),
			WallMs:  float64(wall.Microseconds()) / 1e3,
		}
		if len(out) > 0 {
			sc.SpeedupX1 = out[0].WallMs / sc.WallMs
		} else {
			sc.SpeedupX1 = 1
		}
		out = append(out, sc)
	}
	return out
}

func fmtHeapSamples(s []uint64) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprintf("%.1fMB", float64(v)/(1<<20))
	}
	return strings.Join(parts, "→")
}

// peakRSS returns the process's peak resident set in bytes (VmHWM on
// Linux; 0 where unavailable).
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseInt(fields[0], 10, 64)
				if err == nil {
					return kb << 10
				}
			}
		}
	}
	return 0
}
