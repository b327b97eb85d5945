package fleet

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// soakWindow is the soak's virtual duration: one wave of arrivals.
const soakWindow = 60 * sim.Second

// newSoak builds the fleet-soak world: one wave of vms seeded arrivals
// against an 8-node auto-reclaim fleet. The 2 ms consolidation tick is
// deliberately aggressive: it makes the run tens of thousands of events
// long, so per-tick leaks dominate heap samples and scheduling order
// is exercised hard.
func newSoak(seed int64, vms int) (*sim.Env, *Fleet) {
	env := sim.NewEnv()
	f := New(env, Config{
		Nodes: 8, CPUsPerNode: 8, MemPerNode: 32 * gig,
		Policy: sched.MinFrag, AutoReclaim: true,
		RebalanceEvery: 2 * sim.Millisecond,
		Horizon:        soakWindow,
	})
	f.Submit(GenerateBurst(rand.New(rand.NewSource(seed)), vms, soakWindow, 2*gig))
	return env, f
}

// TestSoakSteadyHeap is the control plane's steady-state memory gate:
// admission, leases, reclaims, rebalance ticks and departures of the
// seed-42 soak must not grow the live heap with virtual time. The heap
// after the last quarter may exceed the first quarter's by at most 50%
// plus 8 MB of slack for pool high-water marks.
func TestSoakSteadyHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	env, f := newSoak(42, 8)

	var heap [4]uint64
	for q := range heap {
		env.RunUntil(sim.Time(q+1) * soakWindow / 4)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap[q] = ms.HeapAlloc
	}
	env.Run() // drain departures past the horizon
	f.Verify()
	t.Logf("heap at quarter points %v bytes, %d events scheduled", heap, env.Scheduled())

	if first, last := heap[0], heap[3]; last > first+first/2+(8<<20) {
		t.Fatalf("soak heap not steady: quarter-point samples %v bytes", heap)
	}
	if n := env.Scheduled(); n < 10_000 {
		t.Fatalf("soak scheduled only %d events, want >= 10000", n)
	}
}

// TestSoakSweepDeterministicUnderWorkers runs one soak world per seed
// through the sweep engine, sequentially and on four workers, and
// requires byte-identical per-seed tables: soak worlds share no mutable
// state, so worker count must not leak into any run.
func TestSoakSweepDeterministicUnderWorkers(t *testing.T) {
	spec := sweep.Spec{
		Experiments: []string{"fleet-soak"},
		Scales:      []float64{1},
		Seeds:       sweep.Seeds(1, 4),
	}
	run := func(p sweep.Point) (*metrics.Table, error) {
		env, f := newSoak(p.Seed, 4)
		env.Run()
		f.Verify()
		tab := metrics.NewTable("soak", "stat", "value")
		tab.AddRow("events", float64(env.Scheduled()))
		tab.AddRow("admitted", float64(f.Stats().Admitted))
		return tab, nil
	}
	seq, err := sweep.Run(spec, 1, run)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep.Run(spec, 4, run)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].Table.String() != par[i].Table.String() {
			t.Fatalf("seed %d: parallel soak differs from sequential:\n%s\nvs\n%s",
				seq[i].Point.Seed, seq[i].Table, par[i].Table)
		}
		if seq[i].Values["events"] < 100 {
			t.Fatalf("seed %d: suspiciously small soak (%v events)", seq[i].Point.Seed, seq[i].Values["events"])
		}
	}
}
