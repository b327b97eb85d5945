package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// NPB describes one NAS Parallel Benchmark kernel in serial form: how long
// it computes on one core at native speed and how much anonymous memory it
// allocates up front. The profiles below follow the paper's observations:
// class sizes chosen so each run takes at least ~10 s, with IS (and, to a
// lesser extent, FT) having an allocation phase that is large relative to
// its computation — the source of their sub-linear scaling in Figs 8 and 9.
type NPB struct {
	Name    string
	Compute sim.Time // serial compute time at native speed
	Dataset int64    // bytes allocated during the allocation phase
}

// Suite is the NPB serial suite with paper-calibrated profiles. IS class C
// uses a ~700 MB dataset (§7.1); the others are sized so the
// allocation-to-compute ratio reproduces each kernel's observed scaling.
var Suite = []NPB{
	{Name: "EP", Compute: 11 * sim.Second, Dataset: 16 << 20},
	{Name: "IS", Compute: 4 * sim.Second, Dataset: 700 << 20},
	{Name: "FT", Compute: 11 * sim.Second, Dataset: 1200 << 20},
	{Name: "CG", Compute: 14 * sim.Second, Dataset: 400 << 20},
	{Name: "MG", Compute: 10 * sim.Second, Dataset: 450 << 20},
	{Name: "BT", Compute: 16 * sim.Second, Dataset: 300 << 20},
	{Name: "SP", Compute: 13 * sim.Second, Dataset: 300 << 20},
	{Name: "LU", Compute: 13 * sim.Second, Dataset: 250 << 20},
	{Name: "UA", Compute: 12 * sim.Second, Dataset: 200 << 20},
}

// ByName returns the suite kernel with the given name.
func ByName(name string) NPB {
	for _, b := range Suite {
		if b.Name == name {
			return b
		}
	}
	panic(fmt.Sprintf("workload: unknown NPB kernel %q", name))
}

// tickInterval is the guest timer tick period (250 Hz).
const tickInterval = 4 * sim.Millisecond

// RunInstance executes one serial instance of the kernel on a vCPU:
// allocation phase (guest allocator + first touch), compute phase with
// periodic guest timer ticks, then teardown. scale shrinks both compute
// and dataset for fast simulation; ratios are preserved.
func (b NPB) RunInstance(vm *hypervisor.VM, ctx *vcpu.Ctx, scale float64) {
	if scale <= 0 {
		panic("workload: scale must be positive")
	}
	data := int64(float64(b.Dataset) * scale)
	if data < mem.PageSize {
		data = mem.PageSize
	}
	region, err := vm.Kernel.Alloc(ctx.P, ctx.Node(), ctx.ID(), data)
	if err != nil {
		// The benchmark cannot run without its dataset; a guest would be
		// OOM-killed here.
		panic(err)
	}
	computed := sim.Time(0)
	total := sim.Time(float64(b.Compute) * scale)
	for computed < total {
		chunk := tickInterval
		if computed+chunk > total {
			chunk = total - computed
		}
		ctx.Compute(chunk)
		computed += chunk
		vm.Kernel.Tick(ctx.P, ctx.Node(), ctx.ID())
	}
	vm.Kernel.Free(ctx.P, ctx.Node(), ctx.ID(), region)
}

// RunMultiProcess runs one serial instance of the kernel per vCPU in
// parallel — the paper's multi-process NPB setup — and returns the wall
// time until the last instance finishes.
func RunMultiProcess(vm *hypervisor.VM, b NPB, scale float64) sim.Time {
	start, end := vm.Env.Now(), sim.Time(0)
	for i := 0; i < vm.NVCPU(); i++ {
		vm.Run(i, fmt.Sprintf("npb-%s-%d", b.Name, i), func(ctx *vcpu.Ctx) {
			b.RunInstance(vm, ctx, scale)
			end = ctx.P.Now()
		})
	}
	vm.Env.Run()
	return end - start
}

// OMP describes an OpenMP-style multithreaded kernel: threads compute in
// parallel over a shared dataset, touching shared pages at a
// kernel-specific rate. TouchesPerMs and WriteFrac set the degree of
// sharing, which is what determines DSM viability in the paper's Fig 1
// motivation study.
type OMP struct {
	Name         string
	Compute      sim.Time // per-thread compute at native speed
	SharedPages  int64    // hot shared working set
	TouchesPerMs float64  // shared-page touches per ms of compute
	WriteFrac    float64  // fraction of touches that write
}

// OMPSuite spans the sharing spectrum of the paper's Fig 1: EP-style
// embarrassingly parallel kernels barely touch shared state; FT/MG-style
// kernels exchange data constantly.
var OMPSuite = []OMP{
	{Name: "EP-omp", Compute: 10 * sim.Second, SharedPages: 16, TouchesPerMs: 0.02, WriteFrac: 0.2},
	{Name: "LU-omp", Compute: 12 * sim.Second, SharedPages: 32, TouchesPerMs: 5, WriteFrac: 0.3},
	{Name: "CG-omp", Compute: 12 * sim.Second, SharedPages: 32, TouchesPerMs: 30, WriteFrac: 0.4},
	{Name: "MG-omp", Compute: 9 * sim.Second, SharedPages: 48, TouchesPerMs: 100, WriteFrac: 0.5},
	{Name: "FT-omp", Compute: 10 * sim.Second, SharedPages: 48, TouchesPerMs: 300, WriteFrac: 0.5},
}

// RunOMP runs the multithreaded kernel with one thread per vCPU over a
// shared region, returning the wall time. seed makes the access pattern
// reproducible.
func RunOMP(vm *hypervisor.VM, b OMP, scale float64, seed int64) sim.Time {
	if scale <= 0 {
		panic("workload: scale must be positive")
	}
	shared := microRegion(vm, b.SharedPages)
	total := sim.Time(float64(b.Compute) * scale)
	start, end := vm.Env.Now(), sim.Time(0)
	for i := 0; i < vm.NVCPU(); i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		vm.Run(i, fmt.Sprintf("omp-%s-%d", b.Name, i), func(ctx *vcpu.Ctx) {
			computed := sim.Time(0)
			carry := 0.0
			for computed < total {
				chunk := sim.Millisecond
				if computed+chunk > total {
					chunk = total - computed
				}
				ctx.Compute(chunk)
				computed += chunk
				carry += b.TouchesPerMs * chunk.Seconds() * 1000
				for ; carry >= 1; carry-- {
					pg := shared.Page(rng.Int63n(b.SharedPages))
					write := rng.Float64() < b.WriteFrac
					vm.DSM.Touch(ctx.P, ctx.Node(), pg, write)
				}
			}
			end = ctx.P.Now()
		})
	}
	vm.Env.Run()
	return end - start
}
