package fleet

import (
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/hypervisor"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestDroppedProbesDeclareNodeDown: the heartbeat judges a node by its
// probes alone. A drop rule on the single route 0→2 — no crash, no
// partition, no cut — eats four probe rounds: the second miss in a row
// declares node 2 down, and the first probe after the rule is spent
// brings it back. An omniscient liveness view sees a healthy node here
// and never declares anything.
func TestDroppedProbesDeclareNodeDown(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	c := cluster.NewDefault(env, 4)
	inj := fault.New(c)
	cfg := ClusterConfig(c, sched.MinFrag)
	cfg.HeartbeatEvery = 100 * sim.Millisecond
	cfg.Horizon = 20 * sim.Second
	f := New(env, cfg)
	f.Submit([]Request{{ID: 1, VCPUs: 12, MemBytes: 4 * gig, Arrival: 0}})
	var sch fault.Schedule
	sch.Add(fault.Event{At: 10*sim.Second + sim.Millisecond, Kind: fault.DropMessages, From: 0, To: 2, Count: 4})
	inj.Apply(sch)
	env.RunUntil(cfg.Horizon)

	var got []Event
	for _, ev := range f.Events() {
		if ev.Kind == "node-down" || ev.Kind == "node-up" {
			got = append(got, ev)
		}
	}
	if len(got) != 2 || got[0].Kind != "node-down" || got[1].Kind != "node-up" ||
		got[0].To != 2 || got[1].To != 2 {
		t.Fatalf("liveness events %+v, want node 2 down then up", got)
	}
	if got[0].T != 10*sim.Second+200*sim.Millisecond || got[1].T != 10*sim.Second+500*sim.Millisecond {
		t.Errorf("node 2 down at %v and up at %v, want 10.2s (second miss) and 10.5s (first answer)", got[0].T, got[1].T)
	}
	if st := f.Stats(); st.ProbeMisses != 4 || st.NodeFailures != 1 {
		t.Errorf("probe misses %d, node failures %d, want 4 and 1", st.ProbeMisses, st.NodeFailures)
	}
	if !inj.NodeAlive(2) {
		t.Error("node 2 crashed; the rule only drops frames")
	}
	f.Verify()
}

// TestBoundVMRestartsOnLenderCrash drives a bound live VM through a
// lender crash: the fleet declares the slice dead on the live VM and
// re-pins every vCPU stranded there onto the replacement fragment, each
// on a core no other vCPU of the VM holds, then restores memory from the
// checkpoint.
func TestBoundVMRestartsOnLenderCrash(t *testing.T) {
	const borrower, lender = 4, 1
	env := sim.NewEnv()
	defer env.Close()
	c := cluster.NewDefault(env, 3) // 8 cores / 32 GiB per node
	inj := fault.New(c)
	cfg := ClusterConfig(c, sched.MinFrag)
	cfg.HeartbeatEvery = 100 * sim.Millisecond
	cfg.Horizon = 20 * sim.Second
	f := New(env, cfg)
	// Three 6-vCPU VMs load every node, so the borrower is a 2+2 gang on
	// nodes 0 and 1 and node 2 keeps 2 free cores for the restart.
	f.Submit([]Request{
		{ID: 1, VCPUs: 6, MemBytes: 6 * gig, Arrival: 0},
		{ID: 2, VCPUs: 6, MemBytes: 6 * gig, Arrival: 1},
		{ID: 3, VCPUs: 6, MemBytes: 6 * gig, Arrival: 2},
		{ID: borrower, VCPUs: 4, MemBytes: 2 * gig, Arrival: 3},
	})

	var vm *hypervisor.VM
	var before sched.Placement
	env.At(sim.Second, func() {
		before = f.PlacementOf(borrower)
		if before.CPUs(0) != 2 || before.CPUs(lender) != 2 {
			t.Fatalf("borrower placed %v, want a 2+2 gang on nodes 0 and 1", before)
		}
		hcfg := hypervisor.FragVisorConfig(c, []int{0, 0, lender, lender}, 2*gig)
		hcfg.MemoryNodes = []int{2}
		vm = hypervisor.New(hcfg)
		env.Spawn("bind", func(p *sim.Proc) {
			f.Bind(borrower, vm, checkpoint.Take(p, vm, 0))
		})
	})
	var stranded []int
	env.At(5*sim.Second-1, func() {
		for id, node := range vm.VCPUNodes() {
			if node == lender {
				stranded = append(stranded, id)
			}
		}
	})
	var sch fault.Schedule
	sch.Add(fault.Event{At: 5 * sim.Second, Kind: fault.CrashNode, Node: lender})
	inj.Apply(sch)
	env.RunUntil(10 * sim.Second)

	if vm.Alive(lender) {
		t.Error("the crashed lender's slice is still alive on the live VM")
	}
	after := f.PlacementOf(borrower)
	if after.CPUs(lender) != 0 || len(stranded) != before.CPUs(lender) {
		t.Fatalf("placement %v after the crash, %d stranded vCPUs, want none on node %d and %d stranded",
			after, len(stranded), lender, before.CPUs(lender))
	}
	nodes := vm.VCPUNodes()
	for _, id := range stranded {
		if n := nodes[id]; after.CPUs(n) <= before.CPUs(n) {
			t.Errorf("stranded vCPU %d sits on node %d, not on the replacement fragment (%v → %v)", id, n, before, after)
		}
	}
	holder := map[*sim.PS]int{}
	for id := range nodes {
		pcpu := vm.VCPUs.VCPU(id).PCPU()
		if other, ok := holder[pcpu]; ok {
			t.Errorf("vCPUs %d and %d share a pCPU of node %d after the restart", other, id, nodes[id])
		}
		holder[pcpu] = id
	}
	if st := f.Stats(); st.Restarts != 1 {
		t.Errorf("restarts %d, want 1", st.Restarts)
	}
	checkLiveMatchesBooks(t, f, borrower, vm)
	f.Verify()
}

// TestBoundVMConsolidatesOntoFreeCores: a bound VM, a 2+2 gang on nodes
// 0 and 1 booted onto each node's pCPUs 0 and 1, is consolidated onto
// node 0 once VM 1 departs from there (MinNodes consolidates on
// departure). The two vCPUs that migrate in take cores of their own, not
// pCPUs 0 and 1 that the VM's node-0 vCPUs hold.
func TestBoundVMConsolidatesOntoFreeCores(t *testing.T) {
	const borrower = 4
	env := sim.NewEnv()
	defer env.Close()
	c := cluster.NewDefault(env, 3)
	f := New(env, ClusterConfig(c, sched.MinNodes))
	f.Submit([]Request{
		{ID: 1, VCPUs: 6, MemBytes: 6 * gig, Arrival: 0, Duration: 2 * sim.Second},
		{ID: 2, VCPUs: 6, MemBytes: 6 * gig, Arrival: 1},
		{ID: 3, VCPUs: 6, MemBytes: 6 * gig, Arrival: 2},
		{ID: borrower, VCPUs: 4, MemBytes: 2 * gig, Arrival: 3},
	})
	var vm *hypervisor.VM
	env.At(sim.Second, func() {
		pl := f.PlacementOf(borrower)
		if pl.CPUs(0) != 2 || pl.CPUs(1) != 2 {
			t.Fatalf("borrower placed %v, want a 2+2 gang on nodes 0 and 1", pl)
		}
		vm = hypervisor.New(hypervisor.FragVisorConfig(c, []int{0, 0, 1, 1}, 2*gig))
		f.Bind(borrower, vm, nil)
	})
	env.RunUntil(5 * sim.Second)

	if !vm.Consolidated() || vm.VCPUNodes()[0] != 0 {
		t.Fatalf("live vCPUs on %v (fleet placement %v), want all on node 0", vm.VCPUNodes(), f.PlacementOf(borrower))
	}
	holder := map[*sim.PS]int{}
	for id := 0; id < vm.NVCPU(); id++ {
		pcpu := vm.VCPUs.VCPU(id).PCPU()
		if other, ok := holder[pcpu]; ok {
			t.Errorf("vCPUs %d and %d share a pCPU of node 0 after consolidation", other, id)
		}
		holder[pcpu] = id
	}
	checkLiveMatchesBooks(t, f, borrower, vm)
	f.Verify()
}

// TestQueuedMovesRunInCommitOrder: two reclaims in one callback commit
// two moves of one bound VM, the second taking the vCPUs the first
// brings in. A 10-vCPU VM is placed n0:8 n1:2 on four 8-core nodes, with
// a memory slice on every node. Reclaim(1) moves its node-1 fragment on
// to another lender, and Reclaim(2) moves it back off node 2. Run side
// by side, the second move would look for the vCPUs on node 2 before
// the first had brought them there; run in commit order, the live vCPUs
// end where the books do.
func TestQueuedMovesRunInCommitOrder(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	c := cluster.NewDefault(env, 4)
	f := New(env, ClusterConfig(c, sched.MinFrag))
	f.Submit([]Request{{ID: 1, VCPUs: 10, MemBytes: 4 * gig, Arrival: 0}})
	var vm *hypervisor.VM
	env.At(sim.Millisecond, func() {
		vm = bindPlaced(t, c, f, 1, "n0:8 n1:2", []int{0, 1, 2, 3})
	})
	env.At(2*sim.Millisecond, func() {
		f.Reclaim(1)
		f.Reclaim(2)
	})
	env.RunUntil(sim.Second)

	if st := f.Stats(); st.Reclaims != 2 || st.ReclaimsDeferred != 0 {
		t.Errorf("reclaims %d, deferred %d, want 2 and 0", st.Reclaims, st.ReclaimsDeferred)
	}
	checkLiveMatchesBooks(t, f, 1, vm)
	f.Verify()
}

// TestBoundVMMovesOnlyOntoItsSlices: a bound VM's vCPUs can run only
// where it has a live slice, so a reclaim that finds no room on its
// slices defers rather than spilling onto another node. The VM is placed
// n0:8 n1:2 on three 8-core nodes and has slices on nodes 0 and 1 only;
// node 2 is free, but the reclaim of node 1 must wait.
func TestBoundVMMovesOnlyOntoItsSlices(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	c := cluster.NewDefault(env, 3)
	f := New(env, ClusterConfig(c, sched.MinFrag))
	f.Submit([]Request{{ID: 1, VCPUs: 10, MemBytes: 4 * gig, Arrival: 0}})
	var vm *hypervisor.VM
	env.At(sim.Millisecond, func() {
		vm = bindPlaced(t, c, f, 1, "n0:8 n1:2", nil)
	})
	env.At(2*sim.Millisecond, func() { f.Reclaim(1) })
	env.RunUntil(sim.Second)

	if st := f.Stats(); st.ReclaimsDeferred != 1 || st.Reclaims != 0 {
		t.Errorf("reclaims %d, deferred %d, want 0 and 1", st.Reclaims, st.ReclaimsDeferred)
	}
	if pl := f.PlacementOf(1).String(); pl != "n0:8 n1:2" {
		t.Errorf("placement %s after a deferred reclaim, want n0:8 n1:2", pl)
	}
	checkLiveMatchesBooks(t, f, 1, vm)
	f.Verify()
}

// bindPlaced checks that fleet VM id is placed as want, then builds a
// live Aggregate VM with its vCPUs on that placement and memory slices
// on memNodes as well, and binds it without a checkpoint.
func bindPlaced(t *testing.T, c *cluster.Cluster, f *Fleet, id int, want string, memNodes []int) *hypervisor.VM {
	t.Helper()
	pl := f.PlacementOf(id)
	if pl.String() != want {
		t.Fatalf("VM %d placed %s, want %s", id, pl, want)
	}
	var nodes []int
	for _, fr := range pl {
		for i := 0; i < fr.CPUs; i++ {
			nodes = append(nodes, fr.Node)
		}
	}
	hcfg := hypervisor.FragVisorConfig(c, nodes, gig)
	hcfg.MemoryNodes = memNodes
	vm := hypervisor.New(hcfg)
	f.Bind(id, vm, nil)
	return vm
}

// checkLiveMatchesBooks fails the test unless the live VM runs as many
// vCPUs on each node as the fleet's books place there for VM id: the
// data plane carried out every move the books committed, and no other.
func checkLiveMatchesBooks(t *testing.T, f *Fleet, id int, vm *hypervisor.VM) {
	t.Helper()
	var live sched.Placement
	for _, n := range vm.VCPUNodes() {
		live.Add(n, 1)
	}
	if pl := f.PlacementOf(id); !slices.Equal(live, pl) {
		t.Errorf("VM %d: live vCPUs on %s, the books place it on %s", id, live, pl)
	}
}
