package experiments

import (
	"fmt"

	"repro/internal/hypervisor"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() { register("fig1", Fig1) }

// Fig1 reproduces the motivation study (§2, Figure 1): the ratio of
// single-machine to DSM execution time as a function of the DSM fault
// rate, for serial NPB, OpenMP-style kernels, LEMP stacks of varying page
// generation latency, and a FaaS framework, on 2 and 4 nodes. Ratios
// below 1 are DSM slowdowns; low-sharing workloads should sit near 1,
// high-sharing ones far below.
func Fig1(o Options) *metrics.Table {
	t := metrics.NewTable("Figure 1: single-machine/DSM time ratio vs DSM faults per second",
		"workload", "nodes", "dsm-faults/s", "ratio")
	addRow := func(name string, nodes int, dist, single sim.Time, vm *hypervisor.VM, elapsed sim.Time) {
		faults := float64(vm.DSM.TotalStats().Faults()) / elapsed.Seconds()
		t.AddRow(name, nodes, faults, metrics.Ratio(single, dist))
	}

	for _, nodes := range []int{2, 4} {
		// Serial NPB: one instance per vCPU, private datasets.
		for _, name := range []string{"EP", "IS", "CG"} {
			b := workload.ByName(name)
			vm := newFragVM(o, nodes)
			dist := workload.RunMultiProcess(vm, b, o.Scale)
			single := workload.RunMultiProcess(newSingleMachineVM(o, nodes), b, o.Scale)
			addRow("npb-"+name, nodes, dist, single, vm, dist)
		}
		// OpenMP-style multithreaded kernels across the sharing range.
		for _, b := range workload.OMPSuite {
			vm := newFragVM(o, nodes)
			dist := workload.RunOMP(vm, b, o.Scale, o.Seed)
			single := workload.RunOMP(newSingleMachineVM(o, nodes), b, o.Scale, o.Seed)
			addRow(b.Name, nodes, dist, single, vm, dist)
		}
		// LEMP with varying page generation latency.
		for _, proc := range []sim.Time{25 * sim.Millisecond, 100 * sim.Millisecond, 500 * sim.Millisecond} {
			cfg := workload.DefaultLEMP(proc)
			cfg.Requests = lempRequests(o)
			vm := newFragVM(o, nodes)
			dist := workload.RunLEMP(vm, cfg)
			single := workload.RunLEMP(newSingleMachineVM(o, nodes), cfg)
			faults := float64(vm.DSM.TotalStats().Faults()) / dist.Elapsed.Seconds()
			t.AddRow(fmt.Sprintf("lemp-%v", proc), nodes, faults,
				dist.Throughput/single.Throughput)
		}
		// OpenLambda FaaS.
		vm := newFragVM(o, nodes)
		dist := workload.RunOpenLambda(vm, o.Scale)
		single := workload.RunOpenLambda(newSingleMachineVM(o, nodes), o.Scale)
		addRow("openlambda", nodes, dist.Total, single.Total, vm, dist.Total)
	}
	t.AddNote("ratio < 1 is a DSM slowdown; the paper finds low-sharing workloads near 1 and high-sharing OMP down to ~0.05")
	return t
}

// lempRequests scales the AB request count with the experiment size.
func lempRequests(o Options) int {
	n := int(100 * o.Scale * 4)
	if n < 10 {
		n = 10
	}
	return n
}
