package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/hypervisor"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

func init() { register("fig14", Fig14) }

// Fig14 reproduces the scheduling-driven migration experiment (§7.3,
// Figure 14): a 4-node cluster with 12 CPUs per node for VMs, FragBFF in
// its fragmentation-minimizing configuration (the fleet control plane,
// internal/fleet), and a 4-vCPU Aggregate VM serving web requests while
// the scheduler's decisions migrate its vCPUs.
// The crafted trace reproduces the paper's timeline: the VM is released
// fragmented 2+2 across two nodes (t≈155 s); capacity freeing at t≈222 s
// does NOT trigger consolidation (it would worsen cluster fragmentation);
// a 1-CPU fragment at t≈470 s absorbs one vCPU; full consolidation
// happens at t≈623 s, the VM is handed back to BFF, and the freed node
// immediately hosts a 12-vCPU VM that could not have run otherwise.
//
// The Aggregate VM is real: every scheduler decision executes a live
// FragVisor vCPU migration, and the reported request latencies come from
// the served workload — lowest once the VM is consolidated.
func Fig14(o Options) *metrics.Table {
	// The paper's timeline spans ~700 s; scale it with the options (the
	// default 0.1 scale maps to a 70 s run with identical structure).
	ts := func(seconds float64) sim.Time { return sim.FromSeconds(seconds * o.Scale * 10) }

	env := o.newEnv("fig14/sched")
	params := o.params()
	params.CoresPerNode = 12
	clus := o.observe("fig14", cluster.New(env, 4, params))

	const targetID = 100
	end := ts(700)
	// FragBFF is the fleet control plane with ample memory (1 GiB per vCPU
	// against 64 GiB nodes), no rebalance tick and no heartbeat: placement
	// and consolidation run only when VMs arrive and depart.
	f := fleet.New(env, fleet.Config{
		Nodes: 4, CPUsPerNode: 12, MemPerNode: 64 << 30,
		Policy: sched.MinFrag, Horizon: end,
	})
	reqs := []fleet.Request{
		// Fillers shaping the paper's fragment timeline.
		{ID: 1, VCPUs: 8, Arrival: ts(1), Duration: end},          // node0 base load
		{ID: 2, VCPUs: 1, Arrival: ts(2), Duration: ts(621)},      // node0, frees at ~623
		{ID: 3, VCPUs: 1, Arrival: ts(3), Duration: ts(467)},      // node0, frees at ~470
		{ID: 4, VCPUs: 6, Arrival: ts(4), Duration: ts(616)},      // node1 base, frees at ~620
		{ID: 5, VCPUs: 4, Arrival: ts(5), Duration: ts(217)},      // node1, frees at ~222
		{ID: 6, VCPUs: 12, Arrival: ts(6), Duration: end},         // node2 full
		{ID: 7, VCPUs: 12, Arrival: ts(7), Duration: end},         // node3 full
		{ID: targetID, VCPUs: 4, Arrival: ts(155), Duration: end}, // the Aggregate VM
		{ID: 8, VCPUs: 4, Arrival: ts(230), Duration: ts(398)},    // absorbs node1's freed CPUs until ~628
		{ID: 200, VCPUs: 12, Arrival: ts(630), Duration: ts(60)},  // large VM enabled by consolidation
	}
	for i := range reqs {
		reqs[i].MemBytes = int64(reqs[i].VCPUs) << 30
	}
	f.Submit(reqs)

	var vm *hypervisor.VM
	var latencies, latTimes []sim.Time

	// Materialize, bind and serve the target VM just after the fleet
	// places it: from then on every committed move of its vCPUs is a
	// live migration.
	env.DeferAt(ts(156), func() {
		pl := f.PlacementOf(targetID)
		if pl == nil {
			panic("experiments: target VM was not placed at t=155")
		}
		var nodes []int
		for _, fr := range pl {
			for range fr.CPUs {
				nodes = append(nodes, fr.Node)
			}
		}
		vm = hypervisor.New(hypervisor.FragVisorConfig(clus, nodes, guestMem))
		f.Bind(targetID, vm, nil)
		runWebService(vm, end, &latencies, &latTimes)
	})

	// Sample the trace at window boundaries during the run.
	const windows = 10
	per := end / windows
	placementLog := make([]string, windows)
	freeLog := make([]string, windows)
	for w := 0; w < windows; w++ {
		w := w
		env.DeferAt(sim.Time(w+1)*per-1, func() {
			if pl := f.PlacementOf(targetID); pl != nil {
				placementLog[w] = pl.String()
			} else {
				placementLog[w] = "-"
			}
			freeLog[w] = fmt.Sprintf("%v", f.FreeCPU())
		})
	}

	env.RunUntil(end)
	env.Stop()

	t := metrics.NewTable("Figure 14: scheduling-driven migration trace",
		"window", "mean-latency", "aggvm-placement", "free-cpus")
	for w := 0; w < windows; w++ {
		lo, hi := sim.Time(w)*per, sim.Time(w+1)*per
		var sum sim.Time
		count := 0
		for i, lt := range latTimes {
			if lt >= lo && lt < hi {
				sum += latencies[i]
				count++
			}
		}
		mean := sim.Time(0)
		if count > 0 {
			mean = sum / sim.Time(count)
		}
		t.AddRow(fmt.Sprintf("%v..%v", lo, hi), mean, placementLog[w], freeLog[w])
	}
	if vm != nil {
		c, m := vm.VCPUs.Migrations()
		t.AddNote("live vCPU migrations: %d, mean latency %v (paper: 86 us avg, 38 us register dump)", c, m)
	}
	fst := f.Stats()
	t.AddNote("scheduler: %d migrations, %d aggregate placements, %d handbacks, %d delayed",
		fst.Migrations, fst.Gangs, fst.Handbacks, fst.Queued)
	if st := metrics.Summarize(latencies); st.N > 0 {
		t.AddNote("request latency: n=%d mean=%v p95=%v — lowest while consolidated", st.N, st.Mean, st.P95)
	}
	return t
}

// runWebService starts a LEMP-style service on the VM (dispatcher on
// vCPU0, PHP-like workers on the rest) and a closed-loop client issuing
// requests until the end time, appending each request's latency and
// completion time to the out slices.
func runWebService(vm *hypervisor.VM, end sim.Time, latencies, latTimes *[]sim.Time) {
	const (
		processing = 200 * sim.Millisecond
		page       = 1 << 20
		conc       = 3
	)
	env := vm.Env
	k := vm.Kernel
	reqSock := k.NewSocket()
	respSock := k.NewSocket()
	n := vm.NVCPU()

	for w := 1; w < n; w++ {
		w := w
		vm.Run(w, fmt.Sprintf("svc-worker-%d", w), func(ctx *vcpu.Ctx) {
			for ctx.P.Now() < end {
				reqSock.Recv(ctx.P, ctx.Node())
				for c := sim.Time(0); c < processing; c += 10 * sim.Millisecond {
					ctx.Compute(10 * sim.Millisecond)
					k.AllocFast(ctx.P, ctx.Node(), ctx.ID())
				}
				respSock.Send(ctx.P, ctx.Node(), ctx.ID(), 0, page)
			}
		})
	}
	vm.Run(0, "svc-dispatch", func(ctx *vcpu.Ctx) {
		next := 1
		for ctx.P.Now() < end {
			vm.Net.Recv(ctx)
			reqSock.Send(ctx.P, ctx.Node(), ctx.ID(), next, 1024)
			if next++; next >= n {
				next = 1
			}
		}
	})
	vm.Run(0, "svc-respond", func(ctx *vcpu.Ctx) {
		for ctx.P.Now() < end {
			respSock.Recv(ctx.P, ctx.Node())
			vm.Net.Send(ctx, cluster.ClientID, page)
		}
	})
	client := vm.Net.NewClient(cluster.ClientID)
	for c := 0; c < conc; c++ {
		env.Spawn(fmt.Sprintf("svc-client-%d", c), func(p *sim.Proc) {
			for p.Now() < end {
				sent := p.Now()
				client.Send(p, 0, 500)
				client.Recv(p)
				*latencies = append(*latencies, p.Now()-sent)
				*latTimes = append(*latTimes, p.Now())
			}
		})
	}
}
