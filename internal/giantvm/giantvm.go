// Package giantvm configures the GiantVM baseline: the state-of-the-art
// open-source distributed hypervisor the paper compares against (§7).
//
// GiantVM runs a distributed VM with the same slice structure as
// FragVisor, but differs in exactly the ways the paper identifies as the
// sources of FragVisor's advantage:
//
//   - Its DSM is implemented partly in user space (QEMU), paying
//     user/kernel crossings and an extra copy on every fault.
//   - No contextual-DSM optimization and no guest-kernel patches: the
//     vanilla guest layout (false sharing, NUMA-oblivious allocation).
//   - Single-queue virtio with payloads through the DSM: no multiqueue,
//     no DSM-bypass.
//   - QEMU helper threads consume host CPU. The paper reports GiantVM's
//     best numbers, with helpers on spare pCPUs, so the profile charges
//     them nothing.
//   - No mobility: vCPU migration and distributed checkpointing are not
//     implemented, so consolidation is impossible.
package giantvm

import (
	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// Config returns the GiantVM profile for the given placement.
func Config(c *cluster.Cluster, placement []int, memBytes int64) hypervisor.Config {
	return hypervisor.Config{
		Cluster:    c,
		Placement:  placement,
		MemBytes:   memBytes,
		Guest:      guest.VanillaConfig(),
		DSM:        dsm.GiantVMParams(),
		VCPU:       vcpu.GiantVMParams(),
		Multiqueue: false,
		DSMBypass:  false,
		Mobility:   false,
		BootCost:   5 * sim.Millisecond,
	}
}

// New assembles a GiantVM distributed VM with one vCPU per node in nodes.
func New(c *cluster.Cluster, nodes []int, nVCPU int, memBytes int64) *hypervisor.VM {
	return hypervisor.New(Config(c, hypervisor.SpreadPlacement(nodes, nVCPU), memBytes))
}
