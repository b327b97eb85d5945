package fleet

import (
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
	f.Verify()
}
