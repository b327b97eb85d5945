package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hypervisor"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vcpu"
	"repro/internal/workload"
)

func init() {
	register("fig4", Fig4)
	register("fig5", Fig5)
	register("fig6", Fig6)
	register("fig7", Fig7)
	register("migration", MicroMigration)
}

// Fig4 reproduces the DSM fault-traffic microbenchmark (Figure 4): loop
// execution time under no/false/true sharing, normalized to no sharing,
// for Aggregate VMs of 2–4 vCPUs (one per node). Expected shape: cost
// grows roughly linearly with node count; false sharing equals true
// sharing (the protocol is page-granular).
func Fig4(o Options) *metrics.Table {
	t := metrics.NewTable("Figure 4: DSM overhead (EPT faults) by level of sharing",
		"vcpus", "no-sharing", "false-sharing", "true-sharing")
	iters := int(2000 * o.Scale * 10)
	if iters < 100 {
		iters = 100
	}
	for _, n := range []int{2, 3, 4} {
		base := workload.SharingLoop(newFragVM(o, n), workload.NoSharing, iters)
		f := workload.SharingLoop(newFragVM(o, n), workload.FalseSharing, iters)
		tr := workload.SharingLoop(newFragVM(o, n), workload.TrueSharing, iters)
		t.AddRow(n, 1.0, metrics.Ratio(f, base), metrics.Ratio(tr, base))
	}
	t.AddNote("loop time normalized to the no-sharing case; paper: ~2x at 2 nodes, ~3x at 3, ~4x at 4; false == true")
	return t
}

// Fig5 reproduces the DSM concurrent-writes microbenchmark (Figure 5):
// total unsynchronized write operations completed in a fixed window, per
// sharing pattern, for a 4-vCPU Aggregate VM vs 4 vCPUs overcommitted on
// one pCPU. FragVisor's throughput is proportional to the pCPUs it can
// use but degrades with sharing; overcommit is flat at one pCPU's worth.
func Fig5(o Options) *metrics.Table {
	t := metrics.NewTable("Figure 5: DSM concurrent writes (total Mops in window)",
		"pattern", "fragvisor-4vcpu", "overcommit-4on1")
	window := sim.FromSeconds(2 * o.Scale)
	var fabricMBps float64
	for _, pat := range []workload.WritePattern{
		workload.WriteNoSharing, workload.WriteLowSharing,
		workload.WriteModerateSharing, workload.WriteMaxSharing,
	} {
		vm := newFragVM(o, 4)
		frag := workload.ConcurrentWrites(vm, pat, window)
		oc := workload.ConcurrentWrites(newOvercommitVM(o, 4, 1), pat, window)
		t.AddRow(pat.String(), float64(frag)/1e6, float64(oc)/1e6)
		if pat == workload.WriteMaxSharing {
			st := vm.Config().Cluster.Fabric.Stats()
			fabricMBps = float64(st.Bytes) / 1e6 / window.Seconds()
		}
	}
	t.AddNote("max-sharing fabric traffic: %.1f MB/s (paper: ~8 MB/s on 56 Gbps)", fabricMBps)
	return t
}

// Fig6 reproduces the network I/O delegation overhead (Figure 6): an
// NGINX-style server answering AB requests, with the serving vCPU local
// to the virtual switch vs delegated on a remote slice, across response
// sizes. DSM-bypass is included to show how delegation cost is recovered.
func Fig6(o Options) *metrics.Table {
	t := metrics.NewTable("Figure 6: network I/O delegation overhead (req/s)",
		"resp-size", "local", "delegated", "delegated+bypass", "delegated/local")
	requests := int(1000 * o.Scale)
	if requests < 30 {
		requests = 30
	}
	// Without DSM-bypass (FragVisorConfig enables it) the VM exposes the
	// raw delegation path.
	noBypass := func(c *hypervisor.Config) { c.DSMBypass = false }
	for _, size := range []int{1 << 10, 16 << 10, 256 << 10, 1 << 20} {
		local := staticServe(newFragVMWith(o, 2, noBypass), 0, size, requests)
		deleg := staticServe(newFragVMWith(o, 2, noBypass), 1, size, requests)
		bypass := staticServe(newFragVM(o, 2), 1, size, requests)
		t.AddRow(fmt.Sprintf("%dKB", size>>10), local, deleg, bypass, deleg/local)
	}
	t.AddNote("server on vCPU0 = local I/O (NIC on the bootstrap node); vCPU1 = delegated; %d requests, 10 connections", requests)
	return t
}

// staticServe runs a static web server on the given vCPU answering
// fixed-size responses and returns the client-observed throughput.
func staticServe(vm *hypervisor.VM, serverVCPU, respSize, requests int) float64 {
	env := vm.Env
	vm.Run(serverVCPU, "nginx-static", func(ctx *vcpu.Ctx) {
		for i := 0; i < requests; i++ {
			vm.Net.Recv(ctx)
			ctx.Compute(100 * sim.Microsecond)
			vm.Kernel.Tick(ctx.P, ctx.Node(), ctx.ID())
			vm.Net.Send(ctx, cluster.ClientID, respSize)
		}
	})
	client := vm.Net.NewClient(cluster.ClientID)
	issued := 0
	var end sim.Time
	for conn := 0; conn < 10; conn++ {
		env.Spawn("ab", func(p *sim.Proc) {
			for issued < requests {
				issued++
				client.Send(p, serverVCPU, 500)
				client.Recv(p)
			}
			end = p.Now()
		})
	}
	env.Run()
	return float64(requests) / end.Seconds()
}

// Fig7 reproduces the storage delegation bandwidth figure (Figure 7):
// single-threaded sequential virtio-blk bandwidth with the issuing vCPU
// local to the SSD, remote through the DSM, and remote with DSM-bypass.
func Fig7(o Options) *metrics.Table {
	t := metrics.NewTable("Figure 7: storage delegation bandwidth, 1 thread (MB/s)",
		"config", "read", "write")
	total := int64(256 << 20)
	if o.Scale < 0.1 {
		total = 64 << 20
	}
	bw := func(vcpuID int, bypass, write bool) float64 {
		vm := newFragVMWith(o, 2, func(c *hypervisor.Config) { c.DSMBypass = bypass })
		var done sim.Time
		vm.Run(vcpuID, "blk-stream", func(ctx *vcpu.Ctx) {
			if write {
				vm.Blk.Write(ctx, total)
			} else {
				vm.Blk.Read(ctx, total)
			}
			done = ctx.P.Now()
		})
		vm.Env.Run()
		return float64(total) / done.Seconds() / 1e6
	}
	t.AddRow("local", bw(0, false, false), bw(0, false, true))
	t.AddRow("remote-dsm", bw(1, false, false), bw(1, false, true))
	t.AddRow("remote-bypass", bw(1, true, false), bw(1, true, true))
	t.AddNote("SSD is 500 MB/s; paper: bypass recovers most of the local bandwidth, raw DSM does not")
	return t
}

// MicroMigration measures the vCPU migration latency microbenchmark
// (§7.3): the paper reports 86 us average, of which 38 us is the register
// dump.
func MicroMigration(o Options) *metrics.Table {
	t := metrics.NewTable("vCPU migration microbenchmark",
		"migrations", "mean", "register-dump-share")
	vm := newFragVM(o, 2)
	const rounds = 50
	vm.Env.Spawn("migrator", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			vm.MigrateVCPU(p, 1, 0)
			vm.MigrateVCPU(p, 1, 1)
		}
	})
	vm.Env.Run()
	count, mean := vm.VCPUs.Migrations()
	dump := vcpu.RegDump
	t.AddRow(count, mean, fmt.Sprintf("%.0f%%", 100*float64(dump)/float64(mean)))
	t.AddNote("paper: 86 us average, 38 us register dump")
	return t
}
