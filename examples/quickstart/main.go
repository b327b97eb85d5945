// Quickstart: borrow fragmented CPUs from four hosts, boot an Aggregate
// VM across them, run a compute job, then consolidate the VM onto one
// host as capacity frees up — the full resource-borrowing lifecycle in
// ~40 lines.
package main

import (
	"fmt"

	"repro/fragvisor"
)

func main() {
	// A 4-node cluster with the paper's testbed hardware. Imagine each
	// node has just one spare core: no single node can host a 4-vCPU VM,
	// but together they can.
	tb := fragvisor.NewTestbed(4)
	defer tb.Close()
	vm := tb.NewFragVisorVM(4, 8<<30)

	tb.Env.Spawn("orchestrator", func(p *fragvisor.Proc) {
		vm.Boot(p)
		fmt.Printf("booted: vCPUs on nodes %v (bootstrap slice = node %d)\n",
			vm.VCPUNodes(), vm.Nodes()[0])
	})
	tb.Run()

	// Run one NPB EP instance per vCPU — an embarrassingly parallel
	// job that benefits fully from the borrowed cores.
	elapsed := fragvisor.RunNPB(vm, "EP", 0.1)
	fmt.Printf("EP x4 distributed: %v\n", elapsed)

	// Compare with the alternative the paper argues against:
	// overcommitting all four vCPUs onto a single spare core.
	oc := fragvisor.NewTestbed(1).NewOvercommitVM(4, 1, 8<<30)
	ocElapsed := fragvisor.RunNPB(oc, "EP", 0.1)
	fmt.Printf("EP x4 overcommitted on 1 pCPU: %v (%.1fx slower)\n",
		ocElapsed, float64(ocElapsed)/float64(elapsed))

	// Resources freed up on node 0: consolidate the whole VM there,
	// one live vCPU migration at a time (~86 us each).
	tb.Env.Spawn("consolidate", func(p *fragvisor.Proc) {
		for id := 1; id < 4; id++ {
			d := vm.MigrateVCPU(p, id, 0, id)
			fmt.Printf("migrated vCPU %d to node 0 in %v\n", id, d)
		}
	})
	tb.Run()
	fmt.Printf("consolidated: %v (single node: %v)\n", vm.VCPUNodes(), vm.Consolidated())

	st := vm.DSM.TotalStats()
	fmt.Printf("dsm totals: %d faults, %d local hits, %d bytes moved\n",
		st.Faults(), st.LocalHits, st.BytesMoved)
}
