package experiments

import (
	"fmt"

	"repro/internal/balloon"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

func init() {
	register("reduce", runReduce)
}

// reduceResult is one mode's outcome: wave wall time plus the balloon
// driver's view of the run.
type reduceResult struct {
	wall   sim.Time
	stats  balloon.Stats
	wss    int64
	pinned int64
}

// runReduce is the paper's missing "reduce" baseline made concrete: the
// same Aggregate VM and alloc-wave workload run three times — without a
// balloon, ballooned down to just above its working set, and ballooned
// below it. The table shows that taking memory a VM is not using is
// nearly free, while taking memory it IS using turns every allocation
// into reclaim/swap work — the degradation the paper avoids by borrowing
// from other nodes instead.
func runReduce(o Options) *metrics.Table {
	modes := []string{"no-balloon", "ballooned-above-ws", "ballooned-below-ws"}
	res := make(map[string]reduceResult, len(modes))
	for _, mode := range modes {
		res[mode] = reduceRun(o, mode)
	}

	t := metrics.NewTable(
		fmt.Sprintf("Reduce baseline: balloon vs working set (scale=%.2f)", o.Scale),
		"config", "wall_ms", "slowdown", "stalls", "stall_ms", "wss_pages", "ballooned_pages")
	base := res["no-balloon"].wall
	for _, mode := range modes {
		r := res[mode]
		t.AddRow(mode,
			float64(r.wall)/float64(sim.Millisecond),
			float64(r.wall)/float64(base),
			float64(r.stats.Stalls),
			float64(r.stats.StallTime)/float64(sim.Millisecond),
			float64(r.wss),
			float64(r.pinned))
	}
	t.AddNote("ballooning above the working set costs ~nothing; below it, every allocation pays reclaim")
	return t
}

// reduceRun builds a 2-node Aggregate VM with a balloon device, applies
// the mode's squeeze, then runs an alloc-wave workload (each vCPU
// repeatedly allocates a chunk, computes over it, and frees it) and
// returns the wall time of the waves alone — the squeeze happens before
// the measured window, as a host resize would.
func reduceRun(o Options, mode string) reduceResult {
	const nodes = 2
	env := o.newEnv("reduce/" + mode)
	c := o.observe("reduce-"+mode, o.newCluster(env, nodes))
	ns := []int{0, 1}
	vm := hypervisor.New(hypervisor.FragVisorConfig(c, hypervisor.SpreadPlacement(ns, nodes), guestMem))
	drv := balloon.NewDriver(env, vm.Kernel)

	chunkBytes := int64(float64(64<<20) * o.Scale)
	if chunkBytes < mem.PageSize {
		chunkBytes = mem.PageSize
	}
	chunkPages := (chunkBytes + mem.PageSize - 1) / mem.PageSize
	const waves = 6
	compute := sim.Time(float64(20*sim.Millisecond) * o.Scale)
	perNode := vm.Kernel.CapacityPages() / nodes

	var start, end sim.Time
	env.Spawn("balloon-host", func(p *sim.Proc) {
		switch mode {
		case "ballooned-above-ws":
			// Pin everything except the waves' future bump consumption
			// plus a few chunks of slack: the guest keeps room for its
			// working set, so the squeeze costs only the balloon ops.
			headroom := (waves + 4) * chunkPages
			for n := 0; n < nodes; n++ {
				drv.Inflate(p, n, 0, perNode-headroom)
			}
		case "ballooned-below-ws":
			// Pin every free page: the guest can only allocate by
			// stealing pages back from the balloon, paying the full
			// reclaim/swap stall each wave.
			for n := 0; n < nodes; n++ {
				drv.Inflate(p, n, 0, perNode)
			}
		}
		start = p.Now()
		var done []*sim.Event
		for i := 0; i < vm.NVCPU(); i++ {
			pr := vm.Run(i, fmt.Sprintf("wave-%d", i), func(ctx *vcpu.Ctx) {
				for w := 0; w < waves; w++ {
					r, err := vm.Kernel.Alloc(ctx.P, ctx.Node(), ctx.ID(), chunkBytes)
					if err != nil {
						panic(err)
					}
					ctx.Compute(compute)
					vm.Kernel.Tick(ctx.P, ctx.Node(), ctx.ID())
					vm.Kernel.Free(ctx.P, ctx.Node(), ctx.ID(), r)
				}
			})
			done = append(done, pr.Done())
		}
		p.WaitAll(done...)
		end = p.Now()
	})
	env.Run()
	return reduceResult{
		wall:   end - start,
		stats:  drv.Stats(),
		wss:    drv.WorkingSetPages(),
		pinned: vm.Kernel.BalloonedPages(),
	}
}
