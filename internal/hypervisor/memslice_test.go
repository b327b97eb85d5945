package hypervisor

import (
	"errors"
	"testing"

	"repro/internal/guest"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// TestMemoryOnlySlice exercises §4's memory-borrowing slice: a VM whose
// compute lives on one node but whose RAM is partly borrowed from a
// second node that contributes no vCPUs.
func TestMemoryOnlySlice(t *testing.T) {
	c := newCluster(2)
	cfg := FragVisorConfig(c, []int{0}, 64<<20)
	cfg.MemoryNodes = []int{1}
	vm := New(cfg)
	if nodes := vm.Nodes(); len(nodes) != 2 {
		t.Fatalf("slice nodes = %v, want compute + memory slice", nodes)
	}
	// The guest arena is split over both slices: allocating more than
	// the local half must spill onto the memory-only slice and pay
	// remote first-touch.
	var localTime, spillTime sim.Time
	vm.Run(0, "alloc", func(ctx *vcpu.Ctx) {
		start := ctx.P.Now()
		if _, err := vm.Kernel.Alloc(ctx.P, ctx.Node(), ctx.ID(), 24<<20); err != nil { // fits locally (32 MiB arena)
			t.Errorf("local allocation failed: %v", err)
		}
		localTime = ctx.P.Now() - start
		start = ctx.P.Now()
		if _, err := vm.Kernel.Alloc(ctx.P, ctx.Node(), ctx.ID(), 24<<20); err != nil { // spills to node 1's arena
			t.Errorf("spill allocation failed: %v", err)
		}
		spillTime = ctx.P.Now() - start
	})
	c.Env.Run()
	if spillTime < 2*localTime {
		t.Fatalf("spilled allocation (%v) not clearly costlier than local (%v)", spillTime, localTime)
	}
	// The spilled pages were claimed from the memory slice's arena.
	if st := vm.DSM.NodeStats(0); st.BulkRemotePages == 0 || st.BytesMoved == 0 {
		t.Fatalf("borrowing memory moved no bulk pages: %+v", st)
	}
}

// TestMemoryOnlySliceExhaustion: spilling past every arena surfaces as a
// typed out-of-memory error, not a panic, so guests can model OOM
// handling.
func TestMemoryOnlySliceExhaustion(t *testing.T) {
	c := newCluster(2)
	cfg := FragVisorConfig(c, []int{0}, 8<<20)
	cfg.MemoryNodes = []int{1}
	vm := New(cfg)
	vm.Run(0, "alloc", func(ctx *vcpu.Ctx) {
		_, err := vm.Kernel.Alloc(ctx.P, ctx.Node(), ctx.ID(), 64<<20)
		var oom *guest.OutOfMemoryError
		if !errors.As(err, &oom) {
			t.Errorf("arena exhaustion returned %v, want *guest.OutOfMemoryError", err)
			return
		}
		if oom.Node != 0 || oom.Pages != (64<<20)/4096 {
			t.Errorf("OOM details = %+v", oom)
		}
	})
	c.Env.Run()
}
