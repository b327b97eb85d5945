// Consolidation: scheduler-driven mobility and fault tolerance. The fleet
// control plane, running FragBFF, manages a fragmented cluster; when
// capacity frees up it consolidates a live Aggregate VM one vCPU
// migration at a time, and a distributed checkpoint protects the VM
// against a predicted node failure — the §6.4/§7.3 mechanisms end to end.
package main

import (
	"fmt"

	"repro/fragvisor"
)

func main() {
	// The Fig-14 scenario at 1/10 time scale: a crafted trace that
	// fragments the cluster, forces an Aggregate-VM placement, and then
	// frees capacity step by step until the fleet's FragBFF pass fully
	// consolidates the VM and hands it back to plain best fit.
	tab, err := fragvisor.RunExperiment("fig14", 0.1, 42)
	if err != nil {
		panic(err)
	}
	fmt.Println(tab)

	// Separately: checkpoint an Aggregate VM and restore it after
	// evacuating a likely-to-fail node.
	tb := fragvisor.NewTestbed(2)
	defer tb.Close()
	vm := tb.NewFragVisorVM(2, 8<<30)
	fragvisor.RunNPB(vm, "UA", 0.05) // give the VM live state
	tb.Env.Spawn("failover", func(p *fragvisor.Proc) {
		img := fragvisor.Checkpoint(p, vm, 0)
		fmt.Printf("checkpoint: %d MB in %v (disk-bound)\n", img.Bytes>>20, img.Duration)
		d := vm.MigrateVCPU(p, 1, 0, 1) // evacuate node 1
		fmt.Printf("evacuated vCPU1 from failing node in %v\n", d)
		fmt.Printf("restore: %v; consolidated=%v\n",
			fragvisor.Restore(p, vm, img), vm.Consolidated())
	})
	tb.Run()
}
