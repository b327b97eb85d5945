// Fleet: the control plane end to end. A burst of VM arrivals fills a
// 3-node cluster until one VM must be gang-placed across two nodes,
// taking out a borrow lease; the lender reclaims its capacity and the
// fleet resolves the reclaim by live-migrating the borrower's vCPUs —
// not by evicting it; finally an injected node crash kills the slice the
// borrower was moved to, and the fleet restarts the lost fragment on
// surviving capacity, restoring guest memory from the checkpoint taken
// when the VM went live. One VM, three control-plane storms, zero
// evictions.
package main

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/hypervisor"
	"repro/internal/sched"
	"repro/internal/sim"
)

const borrowerID = 4

func main() {
	env := sim.NewEnv()
	clus := cluster.NewDefault(env, 3) // 8 pCPUs, 32 GiB per node
	inj := fault.New(clus)

	cfg := fleet.ClusterConfig(clus, sched.MinFrag)
	cfg.HeartbeatEvery = 100 * sim.Millisecond
	cfg.Horizon = 30 * sim.Second
	f := fleet.New(env, cfg)

	// Three 6-vCPU VMs load every node; the fourth VM (4 vCPUs) can only
	// be admitted as a 2+2 gang across nodes 0 and 1 — node 0 is its home,
	// the fragment on node 1 is a borrow lease.
	gig := int64(1) << 30
	f.Submit([]fleet.Request{
		{ID: 1, VCPUs: 6, MemBytes: 6 * gig, Arrival: 0, Duration: 28 * sim.Second},
		{ID: 2, VCPUs: 6, MemBytes: 6 * gig, Arrival: 1, Duration: 28 * sim.Second},
		{ID: 3, VCPUs: 6, MemBytes: 6 * gig, Arrival: 2, Duration: 5 * sim.Second},
		{ID: borrowerID, VCPUs: 4, MemBytes: 2 * gig, Arrival: 3, Duration: 28 * sim.Second},
	})

	// Materialize the borrower as a live Aggregate VM on its placement and
	// bind it: fleet decisions now drive real vCPU migrations, and a
	// checkpoint on node 0's disk protects it against node loss.
	var vm *hypervisor.VM
	env.DeferAt(sim.Second, func() {
		pl := f.PlacementOf(borrowerID)
		fmt.Printf("t=%-9v gang-admitted: placement %v, %d active lease(s)\n",
			env.Now(), pl, activeLeases(f))
		var nodes []int
		for _, fr := range pl {
			for range fr.CPUs {
				nodes = append(nodes, fr.Node)
			}
		}
		// Node 2 joins as a memory-only slice (§4): it hosts no vCPUs yet,
		// but consolidation may migrate some there later.
		hcfg := hypervisor.FragVisorConfig(clus, nodes, 2*gig)
		hcfg.MemoryNodes = []int{2}
		vm = hypervisor.New(hcfg)
		env.Spawn("bind", func(p *sim.Proc) {
			f.Bind(borrowerID, vm, checkpoint.Take(p, vm, 0))
			fmt.Printf("t=%-9v bound live Aggregate VM, checkpointed to node 0; vCPUs on %v\n",
				p.Now(), vcpuSpread(vm))
		})
	})

	// Node 1 wants its lent capacity back. VM 3 departed at t=5s, so the
	// fleet consolidates the borrower's fragment onto node 2 — live
	// migration, no eviction.
	env.DeferAt(10*sim.Second, func() {
		f.Reclaim(1)
		fmt.Printf("t=%-9v node 1 reclaimed its lease: placement %v, evictions %d\n",
			env.Now(), f.PlacementOf(borrowerID), f.Stats().Evictions)
	})
	env.DeferAt(11*sim.Second, func() {
		fmt.Printf("t=%-9v data plane converged: vCPUs on %v\n", env.Now(), vcpuSpread(vm))
	})

	// Then the node the borrower was consolidated onto crashes. The
	// heartbeat notices, the fleet re-places the lost fragment on the
	// survivors, re-pins the stranded vCPUs, and restores guest memory
	// from the checkpoint.
	var sch fault.Schedule
	sch.Add(fault.Event{At: 20 * sim.Second, Kind: fault.CrashNode, Node: 2})
	inj.Apply(sch)
	env.DeferAt(21*sim.Second, func() {
		st := f.Stats()
		fmt.Printf("t=%-9v node 2 crashed: placement %v, restarts %d, requeues %d\n",
			env.Now(), f.PlacementOf(borrowerID), st.Restarts, st.Requeues)
		fmt.Printf("t=%-9v vCPUs back on %v, restored from checkpoint\n", env.Now(), vcpuSpread(vm))
	})

	env.RunUntil(25 * sim.Second)
	env.Stop()
	f.Verify()

	st := f.Stats()
	fmt.Printf("\nborrower survived burst + reclaim + node crash: %v\n", f.PlacementOf(borrowerID) != nil)
	fmt.Printf("leases %d, reclaims %d, migrations %d, node failures %d, restarts %d — evictions %d\n",
		st.Leases, st.Reclaims, st.Migrations, st.NodeFailures, st.Restarts, st.Evictions)
}

// activeLeases counts leases currently outstanding.
func activeLeases(f *fleet.Fleet) int {
	n := 0
	for _, l := range f.Leases() {
		if l.State == fleet.LeaseActive {
			n++
		}
	}
	return n
}

// vcpuSpread is a live VM's vCPU-per-node counts, as a placement.
func vcpuSpread(vm *hypervisor.VM) sched.Placement {
	var pl sched.Placement
	for _, node := range vm.VCPUNodes() {
		pl.Add(node, 1)
	}
	return pl
}
