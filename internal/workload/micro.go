// Package workload implements the benchmarks of the paper's evaluation:
// the DSM microbenchmarks (§7.1), the NAS Parallel Benchmarks in serial
// multi-process and OpenMP-style multithreaded form, the LEMP web stack,
// and the OpenLambda serverless application (§7.2). Each workload is a
// guest program that runs unchanged on any hypervisor profile (FragVisor,
// GiantVM, overcommit), so comparisons measure the system, not the
// workload.
package workload

import (
	"fmt"

	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// SharingMode selects the page-access pattern of the sharing-loop
// microbenchmark (Fig 4).
type SharingMode int

const (
	// NoSharing gives every thread its own page.
	NoSharing SharingMode = iota
	// FalseSharing puts every thread's location on one page, at
	// different offsets.
	FalseSharing
	// TrueSharing makes every thread access the same location.
	TrueSharing
)

// String names the mode.
func (m SharingMode) String() string {
	switch m {
	case NoSharing:
		return "no-sharing"
	case FalseSharing:
		return "false-sharing"
	case TrueSharing:
		return "true-sharing"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// microRegion carves a fresh device-independent page run for a
// microbenchmark instance. The name is derived from the VM's own layout
// (not a package-level counter, which would race across concurrent
// sweep runs and make region names depend on process history).
func microRegion(vm *hypervisor.VM, pages int64) mem.Region {
	return vm.Layout.Alloc(fmt.Sprintf("micro%d", vm.Layout.NumRegions()+1), pages, mem.KindHeap)
}

// SharingLoop runs the Fig 4 microbenchmark: one thread per vCPU, each
// reading and writing a memory location in a loop, with the location
// placement chosen by mode. It returns the wall time for all threads to
// finish their iterations.
func SharingLoop(vm *hypervisor.VM, mode SharingMode, iters int) sim.Time {
	n := vm.NVCPU()
	region := microRegion(vm, int64(n))
	var pages []mem.PageID
	for i := 0; i < n; i++ {
		switch mode {
		case NoSharing:
			pages = append(pages, region.Page(int64(i)))
		case FalseSharing, TrueSharing:
			pages = append(pages, region.Page(0))
		default:
			panic(fmt.Sprintf("workload: bad sharing mode %d", mode))
		}
	}
	start, end := vm.Env.Now(), sim.Time(0)
	for i := 0; i < n; i++ {
		vm.Run(i, fmt.Sprintf("sharing-loop-%d", i), func(ctx *vcpu.Ctx) {
			for it := 0; it < iters; it++ {
				vm.DSM.Touch(ctx.P, ctx.Node(), pages[i], false)
				vm.DSM.Touch(ctx.P, ctx.Node(), pages[i], true)
				ctx.Compute(200 * sim.Nanosecond) // loop body
			}
			end = ctx.P.Now()
		})
	}
	vm.Env.Run()
	return end - start
}

// WritePattern selects the page assignment of the concurrent-writes
// microbenchmark (Fig 5), for 4 writers.
type WritePattern int

const (
	// WriteNoSharing: each vCPU writes its own page.
	WriteNoSharing WritePattern = iota
	// WriteLowSharing: vCPUs 0,1 share a page; vCPUs 2,3 share another.
	WriteLowSharing
	// WriteModerateSharing: vCPUs 0,1,2 share a page; vCPU 3 has its own.
	WriteModerateSharing
	// WriteMaxSharing: all vCPUs write the same page.
	WriteMaxSharing
)

// String names the pattern.
func (w WritePattern) String() string {
	switch w {
	case WriteNoSharing:
		return "no-sharing"
	case WriteLowSharing:
		return "low-sharing"
	case WriteModerateSharing:
		return "moderate-sharing"
	case WriteMaxSharing:
		return "max-sharing"
	default:
		return fmt.Sprintf("pattern(%d)", int(w))
	}
}

// pageGroup maps each of n writers to a page index under the pattern.
func (w WritePattern) pageGroup(i, n int) int64 {
	switch w {
	case WriteNoSharing:
		return int64(i)
	case WriteLowSharing:
		return int64(i / ((n + 1) / 2))
	case WriteModerateSharing:
		if i == n-1 {
			return 1
		}
		return 0
	case WriteMaxSharing:
		return 0
	default:
		panic(fmt.Sprintf("workload: bad write pattern %d", w))
	}
}

// writeBatch is how many store instructions one DSM touch stands for: the
// page stays writable between coherence events, so a tight store loop
// faults at most once per ownership change.
const writeBatch = 1000

// ConcurrentWrites runs the Fig 5 microbenchmark for a fixed window: every
// vCPU writes a predefined location in a loop with no synchronization. It
// returns the total completed write operations (sum over vCPUs).
func ConcurrentWrites(vm *hypervisor.VM, pattern WritePattern, window sim.Time) int64 {
	n := vm.NVCPU()
	region := microRegion(vm, int64(n))
	deadline := vm.Env.Now() + window
	var totalOps int64
	for i := 0; i < n; i++ {
		i := i
		pg := region.Page(pattern.pageGroup(i, n))
		vm.Run(i, fmt.Sprintf("writer-%d", i), func(ctx *vcpu.Ctx) {
			for ctx.P.Now() < deadline {
				vm.DSM.Touch(ctx.P, ctx.Node(), pg, true)
				ctx.Compute(5 * sim.Microsecond) // writeBatch stores
				totalOps += writeBatch
			}
		})
	}
	vm.Env.RunUntil(deadline)
	vm.Env.Run() // drain: each writer finishes its in-flight batch and exits
	return totalOps
}
