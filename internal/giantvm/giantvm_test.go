package giantvm

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestProfileShape(t *testing.T) {
	env := sim.NewEnv()
	c := cluster.NewDefault(env, 3)
	vm := New(c, []int{0, 1, 2}, 3, 4<<30)
	cfg := vm.Config()
	if cfg.Multiqueue || cfg.DSMBypass || cfg.Mobility {
		t.Fatalf("GiantVM has FragVisor features: %+v", cfg)
	}
	if cfg.Guest.Optimized || cfg.Guest.NUMAAware {
		t.Fatal("GiantVM should run the vanilla guest")
	}
	if cfg.DSM.UserSpaceExtra == 0 {
		t.Fatal("GiantVM DSM must pay user-space crossings")
	}
	if cfg.VCPU.CPUEfficiency >= 1 {
		t.Fatalf("CPUEfficiency = %v, want < 1", cfg.VCPU.CPUEfficiency)
	}
	if vm.NVCPU() != 3 || len(vm.Nodes()) != 3 {
		t.Fatalf("vm shape: %d vCPUs on %v", vm.NVCPU(), vm.Nodes())
	}
}

func TestNoMobilityPanics(t *testing.T) {
	env := sim.NewEnv()
	c := cluster.NewDefault(env, 2)
	vm := New(c, []int{0, 1}, 2, 4<<30)
	env.Spawn("migrate", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("GiantVM migration did not panic")
			}
		}()
		vm.MigrateVCPU(p, 1, 0)
	})
	env.Run()
}
