package experiments

import (
	"repro/internal/hypervisor"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vcpu"
	"repro/internal/workload"
)

func init() { register("ablation", Ablation) }

// Ablation quantifies each of FragVisor's mechanisms in isolation (§6),
// beyond the paper's aggregate figures: contextual DSM piggybacking,
// disabling EPT dirty-bit tracking, virtio multiqueue, DSM-bypass, and
// the guest patches. Each row disables exactly one mechanism from the
// full FragVisor configuration and reports the slowdown on the workload
// most sensitive to it.
func Ablation(o Options) *metrics.Table {
	t := metrics.NewTable("Ablation: FragVisor mechanisms disabled one at a time",
		"mechanism", "workload", "full", "ablated", "slowdown")

	// Contextual DSM: page-table updates piggybacked on IPIs. Most
	// visible on allocation-heavy IS (page-table churn).
	full := workload.RunMultiProcess(newFragVM(o, 4), workload.ByName("IS"), o.Scale)
	noCtx := workload.RunMultiProcess(newFragVMWith(o, 4, func(c *hypervisor.Config) {
		c.DSM.ContextualPiggyback = false
	}), workload.ByName("IS"), o.Scale)
	t.AddRow("contextual-dsm", "NPB IS x4", full, noCtx, metrics.Ratio(noCtx, full))

	// Dirty-bit tracking: FragVisor disables it because the DSM already
	// tracks writes; re-enabling it makes every write fault also touch a
	// shared tracking page.
	dirty := workload.RunMultiProcess(newFragVMWith(o, 4, func(c *hypervisor.Config) {
		c.DSM.DirtyBitTracking = true
	}), workload.ByName("IS"), o.Scale)
	t.AddRow("dirty-bit-off", "NPB IS x4", full, dirty, metrics.Ratio(dirty, full))

	// Multiqueue and DSM-bypass: most visible on delegated storage
	// streams (Fig 7's setting): remote vCPUs reading through the
	// device-owner node.
	blkFull := blkStreams(newFragVM(o, 4), 3, o)
	blkSingleQ := blkStreams(newFragVMWith(o, 4, func(c *hypervisor.Config) {
		c.Multiqueue = false
	}), 3, o)
	t.AddRow("multiqueue", "virtio-blk x3 remote", blkFull, blkSingleQ,
		metrics.Ratio(blkSingleQ, blkFull))
	// DSM-bypass is measured single-stream so the SSD is not the shared
	// bottleneck (with 3 streams the disk hides the data-path cost).
	blkOne := blkStreams(newFragVM(o, 2), 1, o)
	blkOneNoBypass := blkStreams(newFragVMWith(o, 2, func(c *hypervisor.Config) {
		c.DSMBypass = false
	}), 1, o)
	t.AddRow("dsm-bypass", "virtio-blk x1 remote", blkOne, blkOneNoBypass,
		metrics.Ratio(blkOneNoBypass, blkOne))

	// Guest patches (false-sharing fix + NUMA awareness), on the
	// allocation-heavy kernel where they matter most.
	vanilla := workload.RunMultiProcess(newFragVMVanillaGuest(o, 4), workload.ByName("IS"), o.Scale)
	t.AddRow("guest-patches", "NPB IS x4", full, vanilla, metrics.Ratio(vanilla, full))

	// vCPU mobility is binary rather than a slowdown: without it the
	// consolidation of Fig 14 is impossible. Report the migration cost
	// that buys it.
	vm := newFragVM(o, 2)
	vm.Env.Spawn("migrate", func(p *sim.Proc) { vm.MigrateVCPU(p, 1, 0) })
	vm.Env.Run()
	_, mean := vm.VCPUs.Migrations()
	t.AddNote("mobility: one live vCPU migration costs %v; GiantVM cannot consolidate at all", mean)
	return t
}

// blkStreams reads a sequential stream on each of n remote vCPUs
// concurrently and returns the wall time.
func blkStreams(vm *hypervisor.VM, n int, o Options) sim.Time {
	total := int64(float64(256<<20) * o.Scale)
	for i := 1; i <= n; i++ {
		vm.Run(i, "blk-stream", func(ctx *vcpu.Ctx) { vm.Blk.Read(ctx, total) })
	}
	vm.Env.Run()
	return vm.Env.Now()
}
