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

// busyNodes, busyVMs and busyAt size newBusyFleet.
const (
	busyNodes = 32
	busyVMs   = 64
	busyAt    = 45 * sim.Second
)

// newBusyFleet builds a 32-node auto-reclaim fleet with one wave of 64
// seeded arrivals and an owner reclaim every second, and runs it to
// 45 s: 41 VMs run, 4 of them gangs, over a ledger of 14 leases, 6 of
// them outstanding. It is the busy world the allocation tests and
// BenchmarkVerifyReport scan.
func newBusyFleet() (*sim.Env, *Fleet) {
	env := sim.NewEnv()
	f := New(env, Config{
		Nodes: busyNodes, CPUsPerNode: 8, MemPerNode: 32 * gig,
		Policy: sched.MinFrag, AutoReclaim: true,
		RebalanceEvery: 2 * sim.Millisecond,
		Horizon:        soakWindow,
	})
	rng := rand.New(rand.NewSource(1))
	f.Submit(GenerateBurst(rng, busyVMs, soakWindow, 2*gig))
	for at := sim.Second / 2; at < soakWindow; at += sim.Second {
		node := rng.Intn(busyNodes)
		env.DeferAt(at, func() { f.Reclaim(node) })
	}
	env.RunUntil(busyAt)
	return env, f
}

// gangs counts the fleet's multi-node VMs.
func gangs(f *Fleet) int {
	n := 0
	for _, rec := range f.vms {
		if len(rec.pl) > 1 {
			n++
		}
	}
	return n
}

// TestConsolidationPassAllocatesNothing: a consolidation pass over gangs
// that plans no move allocates nothing — the planner, its free vector and
// the VM walk all reuse the fleet's buffers. The busy world's last tick
// has just found its books settled, so a pass now plans nothing.
func TestConsolidationPassAllocatesNothing(t *testing.T) {
	env, f := newBusyFleet()
	defer env.Close()
	if f.settled != len(f.events) || gangs(f) < 2 {
		t.Fatalf("fixture: settled %d of %d logged events, %d gangs; want settled with >= 2 gangs",
			f.settled, len(f.events), gangs(f))
	}
	logged := len(f.events)
	allocs := testing.AllocsPerRun(100, func() {
		if work := f.consolidateAll(); work != 0 {
			t.Fatalf("a settled pass planned %v moves", work)
		}
	})
	if allocs != 0 {
		t.Errorf("a consolidation pass over %d gangs allocated %v times", gangs(f), allocs)
	}
	if len(f.events) != logged {
		t.Errorf("a settled pass logged %d events", len(f.events)-logged)
	}
}

// TestSoakSteadyHeap is the control plane's steady-state memory gate:
// admission, leases, reclaims, rebalance ticks and departures of the
// seed-42 soak must not grow the live heap with virtual time. The tick
// sleeps after a pass that logged nothing and runs again only once the
// event log has grown. The heap
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
	if n := len(f.Events()); n < 22 {
		t.Fatalf("soak logged only %d events, want >= 22", n)
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
		tab.AddRow("logged", float64(len(f.Events())))
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
		if seq[i].Values["logged"] < 8 {
			t.Fatalf("seed %d: suspiciously small soak (%v events logged)", seq[i].Point.Seed, seq[i].Values["logged"])
		}
	}
}

// TestSettledFleetSchedulesNothing: once a rebalance pass has found
// nothing to do, the tick sleeps until the books change, so a settled
// second schedules no event and allocates nothing. The fleet holds a
// gang that cannot consolidate and a request that cannot be admitted: a
// tick that ran its pass would gather the gang and copy the waiting
// queue every period.
func TestSettledFleetSchedulesNothing(t *testing.T) {
	env, f := newFleet(t, Config{
		Nodes: 2, CPUsPerNode: 4, MemPerNode: 8 * gig, Policy: sched.MinNodes,
		RebalanceEvery: 2 * sim.Millisecond,
	})
	f.Submit([]Request{
		{ID: 1, VCPUs: 3, MemBytes: gig},
		{ID: 2, VCPUs: 3, MemBytes: gig},
		{ID: 3, VCPUs: 2, MemBytes: gig, Arrival: 1},
		{ID: 4, VCPUs: 2, MemBytes: gig, Arrival: 2},
	})
	env.RunUntil(10 * sim.Millisecond)
	if len(f.vm(3).pl) != 2 || len(f.waiting) != 1 {
		t.Fatalf("fixture: VM 3 placed %v, %d waiting; want a 2-node gang and one waiting", f.vm(3).pl, len(f.waiting))
	}
	logged, scheduled := len(f.events), env.Scheduled()
	allocs := testing.AllocsPerRun(5, func() { env.RunUntil(env.Now() + sim.Second) })
	if allocs != 0 {
		t.Errorf("a settled second allocated %v times", allocs)
	}
	if len(f.events) != logged || env.Scheduled() != scheduled {
		t.Errorf("settled seconds logged %d events and scheduled %d, want 0 and 0",
			len(f.events)-logged, env.Scheduled()-scheduled)
	}
}

// TestRebalanceTickGrid pins when a write wakes the sleeping rebalance
// tick: passes run only at New's time plus whole periods, at the first
// such instant that is not before the write and later than the last
// tick, and never past the horizon. In each world VM 1, admitted at 0,
// is settled by the tick at 2 ms, and VM 2's arrival is the write.
func TestRebalanceTickGrid(t *testing.T) {
	const ms = sim.Millisecond
	world := func(t *testing.T, arrival sim.Time) (*sim.Env, *Fleet) {
		env, f := newFleet(t, Config{
			Nodes: 2, CPUsPerNode: 4, MemPerNode: 8 * gig, Policy: sched.MinNodes,
			RebalanceEvery: 2 * ms, Horizon: 10 * ms,
		})
		t.Cleanup(env.Close)
		f.Submit([]Request{
			{ID: 1, VCPUs: 2, MemBytes: gig},
			{ID: 2, VCPUs: 2, MemBytes: gig, Arrival: arrival},
		})
		return env, f
	}
	// ranAt runs the world to at and requires that a tick ran there
	// and left the fleet settled and the tick asleep.
	ranAt := func(t *testing.T, env *sim.Env, f *Fleet, at sim.Time) {
		t.Helper()
		env.RunUntil(at)
		if f.lastTick != at || f.settled != len(f.events) || f.nextTick != 0 {
			t.Fatalf("after %v: last tick %v, settled %d of %d, next tick %v; want a tick at %v, settled and asleep",
				at, f.lastTick, f.settled, len(f.events), f.nextTick, at)
		}
	}
	t.Run("between grid points", func(t *testing.T) {
		env, f := world(t, 5*ms+ms/2)
		ranAt(t, env, f, 2*ms)
		env.RunUntil(5*ms + ms/2)
		if f.nextTick != 6*ms {
			t.Fatalf("a write at 5.5 ms armed the tick at %v, want 6ms", f.nextTick)
		}
		ranAt(t, env, f, 6*ms)
	})
	t.Run("on a grid instant", func(t *testing.T) {
		// The arrival was scheduled at 0, long before its instant.
		env, f := world(t, 8*ms)
		ranAt(t, env, f, 2*ms)
		ranAt(t, env, f, 8*ms)
	})
	t.Run("just after a tick", func(t *testing.T) {
		// Submit ran after New armed the first tick, so the arrival
		// at 2 ms comes after that tick in the same instant.
		env, f := world(t, 2*ms)
		env.RunUntil(2 * ms)
		if f.lastTick != 2*ms || f.nextTick != 4*ms {
			t.Fatalf("last tick %v, next %v; want a tick at 2ms and the next at 4ms", f.lastTick, f.nextTick)
		}
		ranAt(t, env, f, 4*ms)
	})
	t.Run("past the horizon", func(t *testing.T) {
		env, f := world(t, 10*ms+ms/2)
		ranAt(t, env, f, 2*ms)
		env.RunUntil(10*ms + ms/2)
		if f.vm(2) == nil || f.nextTick != 0 || env.Pending() != 0 {
			t.Fatalf("VM 2 admitted %v, next tick %v, %d pending; want admitted and nothing armed",
				f.vm(2) != nil, f.nextTick, env.Pending())
		}
	})
}
