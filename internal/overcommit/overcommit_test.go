package overcommit

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// newVM packs nVCPU vCPUs on a one-node cluster with k cores.
func newVM(k, nVCPU int) *hypervisor.VM {
	p := cluster.DefaultParams()
	p.CoresPerNode = k
	return New(cluster.New(sim.NewEnv(), 1, p), 0, nVCPU, 4<<30)
}

func TestProfileShape(t *testing.T) {
	vm := newVM(2, 4)
	defer vm.Env.Close()
	if got := len(vm.Nodes()); got != 1 {
		t.Fatalf("overcommit VM spans %d nodes", got)
	}
	if vm.NVCPU() != 4 {
		t.Fatalf("NVCPU = %d", vm.NVCPU())
	}
}

// TestFourVCPUsOnTwoCoresPairUp: k is the node's core count, and the
// hypervisor shares the cores round-robin: vCPUs 0 and 2 take pCPU 0,
// vCPUs 1 and 3 pCPU 1.
func TestFourVCPUsOnTwoCoresPairUp(t *testing.T) {
	vm := newVM(2, 4)
	defer vm.Env.Close()
	pcpus := vm.Config().Cluster.Node(0).PCPUs
	for id, want := range []int{0, 1, 0, 1} {
		if vm.VCPUs.VCPU(id).PCPU() != pcpus[want] {
			t.Errorf("vCPU %d is not on pCPU %d", id, want)
		}
	}
}

func TestNoDSMTraffic(t *testing.T) {
	vm := newVM(1, 4)
	defer vm.Env.Close()
	for i := 0; i < 4; i++ {
		vm.Run(i, "job", func(ctx *vcpu.Ctx) {
			vm.Kernel.Alloc(ctx.P, ctx.Node(), ctx.ID(), 1<<20)
			ctx.Compute(sim.Millisecond)
		})
	}
	vm.Env.Run()
	if msgs := vm.Config().Cluster.Fabric.Stats().Messages; msgs != 0 {
		t.Fatalf("single-node VM sent %d fabric messages", msgs)
	}
}

func TestTimeSharingSlowdown(t *testing.T) {
	elapsed := func(k int) sim.Time {
		vm := newVM(k, 4)
		defer vm.Env.Close()
		for i := 0; i < 4; i++ {
			vm.Run(i, "job", func(ctx *vcpu.Ctx) { ctx.Compute(10 * sim.Millisecond) })
		}
		vm.Env.Run()
		return vm.Env.Now()
	}
	if t1, t4 := elapsed(1), elapsed(4); t1 < 3*t4 {
		t.Fatalf("1-pCPU run (%v) not ~4x the 4-pCPU run (%v)", t1, t4)
	}
}
