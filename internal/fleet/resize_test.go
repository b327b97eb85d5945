package fleet

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hypervisor"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestReclaimResizeBalloonsBorrower is the three-way acceptance scenario:
// the same arrival trace and owner-driven reclaim as
// TestReclaimConsolidatesNotEvicts, under ReclaimResize. The borrower
// survives with zero evictions — but by shrinking, not migrating — and
// pays for it in measurable slowdown, while the consolidate run finishes
// every timed VM at slowdown exactly 1.0.
func TestReclaimResizeBalloonsBorrower(t *testing.T) {
	run := func(pol ReclaimPolicy) *Fleet {
		env := sim.NewEnv()
		f := New(env, Config{
			Nodes: 3, CPUsPerNode: 8, MemPerNode: 32 * gig,
			Policy: sched.MinFrag, Reclaim: pol,
		})
		f.Submit(reclaimTrace())
		env.At(10*sim.Second, func() { f.Reclaim(1) })
		env.Run() // to completion: slowdown needs the departures
		f.Verify()
		return f
	}

	rez := run(ReclaimResize)
	st := rez.Stats()
	if st.Evictions != 0 {
		t.Fatalf("resize: evictions = %d, want 0", st.Evictions)
	}
	if st.Inflations == 0 || st.InflatedVCPUs == 0 {
		t.Fatalf("resize: reclaim did not balloon the borrower: %+v", st)
	}
	if st.Reclaims != 1 {
		t.Fatalf("resize: reclaims = %d, want 1 (ballooning never defers)", st.Reclaims)
	}
	if st.ReclaimsDeferred != 0 {
		t.Fatalf("resize: deferred reclaims = %d, want 0", st.ReclaimsDeferred)
	}
	if st.BalloonedTime == 0 {
		t.Fatal("resize: no ballooned vCPU-time accrued")
	}
	// The balloon deflated once the long-running VMs departed, and the
	// borrower finished whole.
	if st.Deflations == 0 || st.DeflatedVCPUs != st.InflatedVCPUs {
		t.Fatalf("resize: balloon not fully returned: %+v", st)
	}
	if got := st.MeanSlowdown(); got <= 1.0 {
		t.Fatalf("resize: mean slowdown = %v, want > 1.0", got)
	}

	// Same trace under consolidate: nothing ever slows down.
	cons := run(ReclaimConsolidate)
	if got := cons.Stats().MeanSlowdown(); got != 1.0 {
		t.Fatalf("consolidate: mean slowdown = %v, want exactly 1.0", got)
	}
	if cons.Stats().BalloonedTime != 0 || cons.Stats().Inflations != 0 {
		t.Fatalf("consolidate: balloon stats must stay zero: %+v", cons.Stats())
	}

	// Both policies finish the same set of timed VMs — resize just
	// finishes them later.
	if rez.Stats().TimedFinishes != cons.Stats().TimedFinishes {
		t.Fatalf("timed finishes differ: resize %d vs consolidate %d",
			rez.Stats().TimedFinishes, cons.Stats().TimedFinishes)
	}
}

// TestResizeWorkConservation pins the work-rate model's arithmetic: a VM
// ballooned from 4 to 2 resident vCPUs for a stretch must finish exactly
// when its integer work account reaches Duration x 4, no drift.
func TestResizeWorkConservation(t *testing.T) {
	env := sim.NewEnv()
	f := New(env, Config{
		Nodes: 2, CPUsPerNode: 6, MemPerNode: 8 * gig,
		Policy: sched.MinFrag, Reclaim: ReclaimResize,
	})
	// VMs 2 and 3 take 4 of 6 CPUs on each node, so VM 1 (4 vCPUs) can
	// only gang-place 2+2 with home node 0 and a lease on node 1.
	f.Submit([]Request{
		{ID: 2, VCPUs: 4, MemBytes: gig, Arrival: 0, Duration: 100 * sim.Second},
		{ID: 3, VCPUs: 4, MemBytes: gig, Arrival: 0, Duration: 100 * sim.Second},
		{ID: 1, VCPUs: 4, MemBytes: gig, Arrival: 1, Duration: 20 * sim.Second},
	})
	env.At(10*sim.Second, func() { f.Reclaim(1) })
	env.Run()
	var finish sim.Time
	for _, e := range f.Events() {
		if e.Kind == "finish" && e.VM == 1 {
			finish = e.T
		}
	}
	// Committed at t=1ns with 20s of work on 4 vCPUs = 80 vCPU-seconds.
	// Until t=10s it runs whole: ~40 gone. Ballooned to 2 resident at
	// 10s, and nothing frees capacity before it finishes, so the last
	// ~40 vCPU-seconds take ~20s more: finish at 10s + ceil(rem/2).
	startAt := sim.Time(1)
	preWork := int64(10*sim.Second-startAt) * 4
	rem := int64(20*sim.Second)*4 - preWork
	want := 10*sim.Second + sim.Time((rem+1)/2)
	if finish != want {
		t.Fatalf("finish at %v, want exactly %v", finish, want)
	}
	f.Verify()
}

// TestResizeEventLogDeterminism: the resize policy under a randomized
// burst with seeded reclaims replays bit-identically — same seed, same
// event log.
func TestResizeEventLogDeterminism(t *testing.T) {
	run := func(seed int64) []Event {
		env := sim.NewEnv()
		f := New(env, Config{
			Nodes: 4, CPUsPerNode: 8, MemPerNode: 32 * gig,
			Policy: sched.MinFrag, Reclaim: ReclaimResize, AutoReclaim: true,
			RebalanceEvery: 5 * sim.Second, Horizon: 90 * sim.Second,
		})
		rng := rand.New(rand.NewSource(seed))
		f.Submit(GenerateBurst(rng, 40, 40*sim.Second, 2*gig))
		for i := 0; i < 4; i++ {
			at := sim.Time(1+rng.Intn(60)) * sim.Second
			node := rng.Intn(4)
			env.At(at, func() { f.Reclaim(node) })
		}
		env.RunUntil(90 * sim.Second)
		f.Verify()
		return f.Events()
	}
	for seed := int64(1); seed <= 3; seed++ {
		a, b := run(seed), run(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: resize event logs differ (%d vs %d events)", seed, len(a), len(b))
		}
	}
}

// TestAdmissionReclaimConsolidatesBoundBorrowerUnderResize: a borrower
// bound to a live Aggregate VM cannot shrink in place, so under
// ReclaimResize admission reclaim consolidates it, as an owner's Reclaim
// does. The world is TestAdmissionReclaimRelocatesBorrowers' under
// resize: VM 7 (1 vCPU, 3 GiB) fits only on node 2, once VM 5's 1-vCPU
// fragment there moves to node 3. VM 5 is bound to a live VM whose
// memory slice on node 3 lets its vCPU follow. A lender with a bound
// borrower must not be skipped, or VM 7 waits for good.
func TestAdmissionReclaimConsolidatesBoundBorrowerUnderResize(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	c := cluster.NewDefault(env, 4)
	f := New(env, Config{Nodes: 4, CPUsPerNode: 4, MemPerNode: 8 * gig,
		Policy: sched.MinFrag, Reclaim: ReclaimResize, AutoReclaim: true})
	long := 20 * sim.Second
	f.Submit([]Request{
		{ID: 1, VCPUs: 4, MemBytes: 4 * gig, Arrival: 0, Duration: long},
		{ID: 2, VCPUs: 2, MemBytes: 6 * gig, Arrival: 1, Duration: long},
		{ID: 3, VCPUs: 3, MemBytes: 3 * gig, Arrival: 2, Duration: long},
		{ID: 4, VCPUs: 2, MemBytes: 6 * gig, Arrival: 3, Duration: long},
		{ID: 5, VCPUs: 2, MemBytes: 4 * gig, Arrival: 4, Duration: long}, // gang, 1 vCPU lent by node 2
		{ID: 7, VCPUs: 1, MemBytes: 3 * gig, Arrival: 6, Duration: long},
	})
	var vm *hypervisor.VM
	env.DeferAt(5, func() {
		if pl := f.PlacementOf(5); pl.CPUs(1) != 1 || pl.CPUs(2) != 1 {
			t.Fatalf("VM 5 placed %v, want a 1+1 gang on nodes 1 and 2", pl)
		}
		hcfg := hypervisor.FragVisorConfig(c, []int{1, 2}, 2*gig)
		hcfg.MemoryNodes = []int{3}
		vm = hypervisor.New(hcfg)
		f.Bind(5, vm, nil)
	})
	env.RunUntil(sim.Second)
	f.Verify()

	if pl := f.PlacementOf(7); len(pl) != 1 || pl.CPUs(2) != 1 {
		t.Fatalf("VM 7 placed %v, want admitted on node 2", pl)
	}
	if pl := f.PlacementOf(5); pl.CPUs(2) != 0 || pl.CPUs(3) != 1 {
		t.Errorf("VM 5 placement = %v, want its node-2 fragment on node 3", pl)
	}
	if got := vm.VCPUNodes(); got[1] != 3 {
		t.Errorf("live vCPU nodes %v, want vCPU 1 migrated to node 3", got)
	}
	if st := f.Stats(); st.Reclaims != 1 || st.Inflations != 0 || st.Evictions != 0 {
		t.Errorf("reclaims %d inflations %d evictions %d, want 1, 0 and 0", st.Reclaims, st.Inflations, st.Evictions)
	}
	checkLiveMatchesBooks(t, f, 5, vm)
}
