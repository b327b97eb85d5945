// Package overcommit configures the paper's main baseline: a conventional
// single-node VM whose vCPUs are overcommitted onto fewer pCPUs (§7.2).
//
// Overcommitment is what a provider does today to pack more jobs onto a
// saturated but fragmented cluster without evicting anyone: the VM gets
// all the vCPUs it asked for, but they time-share k physical cores. There
// is no DSM, no delegation, and no fabric traffic — just processor
// sharing. The paper normalizes most results against this baseline with
// k = 1, 2, and 3. k is hardware: the VM runs on a node with k cores, and
// the hypervisor's one core-picking rule shares them round-robin.
package overcommit

import (
	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// Config returns a single-node VM with nVCPU vCPUs packed onto the cores
// of the given node. The guest is the same optimized kernel FragVisor
// uses, so the comparison isolates distribution, not guest patches.
func Config(c *cluster.Cluster, node, nVCPU int, memBytes int64) hypervisor.Config {
	return hypervisor.Config{
		Cluster:    c,
		Placement:  hypervisor.SpreadPlacement([]int{node}, nVCPU),
		MemBytes:   memBytes,
		Guest:      guest.OptimizedConfig(),
		DSM:        dsm.DefaultParams(),
		VCPU:       vcpu.DefaultParams(),
		Multiqueue: true,
		DSMBypass:  false,
		Mobility:   true,
		BootCost:   sim.Millisecond,
	}
}

// New assembles an overcommitted VM: nVCPU vCPUs on the cores of one node.
func New(c *cluster.Cluster, node, nVCPU int, memBytes int64) *hypervisor.VM {
	return hypervisor.New(Config(c, node, nVCPU, memBytes))
}
