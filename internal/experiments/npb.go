package experiments

import (
	"repro/internal/metrics"
	"repro/internal/workload"
)

func init() {
	register("fig8", Fig8)
	register("fig9", Fig9)
	register("fig10", Fig10)
}

// npbVCPUCounts are the VM sizes the paper evaluates — the most common
// allocation units in data centers [45].
var npbVCPUCounts = []int{2, 3, 4}

// Fig8 reproduces the multi-process NPB comparison against overcommitment
// (Figure 8): the speedup of an Aggregate VM with one vCPU per node over a
// single-node VM whose vCPUs are consolidated on 1, 2, and 3 pCPUs.
// Expected shape: near-linear speedups (up to ~3.9x at 4 vCPUs vs 1
// pCPU), with IS — and to a lesser extent FT — sub-linear due to
// allocation-phase DSM contention.
func Fig8(o Options) *metrics.Table {
	t := metrics.NewTable("Figure 8: multi-process NPB, Aggregate VM speedup over overcommit",
		"bench", "vcpus", "vs-1pCPU", "vs-2pCPU", "vs-3pCPU")
	for _, b := range workload.Suite {
		for _, n := range npbVCPUCounts {
			frag := workload.RunMultiProcess(newFragVM(o, n), b, o.Scale)
			row := []any{b.Name, n}
			for _, k := range []int{1, 2, 3} {
				oc := workload.RunMultiProcess(newOvercommitVM(o, n, k), b, o.Scale)
				row = append(row, metrics.Ratio(oc, frag))
			}
			t.AddRow(row...)
		}
	}
	t.AddNote("paper: 1.8-3.9x vs 1 pCPU; ~1.75x vs 2-3 pCPUs; IS/FT sub-linear")
	return t
}

// Fig9 reproduces the FragVisor-vs-GiantVM NPB comparison (Figure 9):
// GiantVM execution time divided by FragVisor's, per kernel and vCPU
// count. Expected shape: FragVisor ~1.5x faster across the suite, ~2x on
// IS and ~1.8x on FT where GiantVM's user-space DSM amplifies the
// allocation phase.
func Fig9(o Options) *metrics.Table {
	t := metrics.NewTable("Figure 9: multi-process NPB, FragVisor vs GiantVM (GiantVM time / FragVisor time)",
		"bench", "2 vcpus", "3 vcpus", "4 vcpus")
	for _, b := range workload.Suite {
		row := []any{b.Name}
		for _, n := range npbVCPUCounts {
			frag := workload.RunMultiProcess(newFragVM(o, n), b, o.Scale)
			giant := workload.RunMultiProcess(newGiantVM(o, n), b, o.Scale)
			row = append(row, metrics.Ratio(giant, frag))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: 1.6x average; ~2x for IS, ~1.8x for FT")
	return t
}

// Fig10 reproduces the optimized-guest ablation (Figure 10): NPB speedup
// over 1-pCPU overcommitment with FragVisor running the optimized guest
// kernel vs the vanilla guest. The patched guest (false-sharing fixes +
// NUMA-aware allocation) must widen the gap.
func Fig10(o Options) *metrics.Table {
	t := metrics.NewTable("Figure 10: optimized vs vanilla guest kernel on FragVisor (speedup vs overcommit on 1 pCPU, 4 vCPUs)",
		"bench", "optimized-guest", "vanilla-guest", "optimized/vanilla")
	for _, b := range workload.Suite {
		oc := workload.RunMultiProcess(newOvercommitVM(o, 4, 1), b, o.Scale)
		opt := workload.RunMultiProcess(newFragVM(o, 4), b, o.Scale)
		van := workload.RunMultiProcess(newFragVMVanillaGuest(o, 4), b, o.Scale)
		t.AddRow(b.Name, metrics.Ratio(oc, opt), metrics.Ratio(oc, van),
			metrics.Ratio(van, opt))
	}
	t.AddNote("the guest patches remove kernel false sharing and make allocation NUMA-local")
	return t
}
