package fragvisor_test

import (
	"strings"
	"testing"

	"repro/fragvisor"
)

func TestQuickstartFlow(t *testing.T) {
	tb := fragvisor.NewTestbed(4)
	defer tb.Close()
	vm := tb.NewFragVisorVM(4, 8<<30)
	tb.Env.Spawn("boot", func(p *fragvisor.Proc) { vm.Boot(p) })
	tb.Run()
	if got := fragvisor.RunNPB(vm, "EP", 0.02); got <= 0 {
		t.Fatalf("EP elapsed = %v", got)
	}
}

func TestProfilesDiffer(t *testing.T) {
	npb := func(vm *fragvisor.VM) fragvisor.Time {
		defer vm.Env.Close()
		return fragvisor.RunNPB(vm, "IS", 0.02)
	}
	frag := npb(fragvisor.NewTestbed(4).NewFragVisorVM(4, 8<<30))
	giant := npb(fragvisor.NewTestbed(4).NewGiantVM(4, 8<<30))
	oc := npb(fragvisor.NewOvercommitVM(4, 1, 8<<30))
	if !(frag < giant && giant < oc) {
		t.Fatalf("ordering wrong: frag=%v giant=%v overcommit=%v", frag, giant, oc)
	}
}

func TestNPBKernels(t *testing.T) {
	names := fragvisor.NPBKernels()
	if len(names) != 9 || names[0] != "EP" {
		t.Fatalf("kernels = %v", names)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	tb := fragvisor.NewTestbed(2)
	defer tb.Close()
	vm := tb.NewFragVisorVM(2, 4<<30)
	fragvisor.RunNPB(vm, "UA", 0.02)
	var img *fragvisor.CheckpointImage
	tb.Env.Spawn("ckpt", func(p *fragvisor.Proc) {
		img = fragvisor.Checkpoint(p, vm, 0)
		fragvisor.Restore(p, vm, img)
	})
	tb.Run()
	if img == nil || img.Bytes == 0 || img.Duration <= 0 {
		t.Fatalf("image = %+v", img)
	}
}

func TestMigrationAndConsolidation(t *testing.T) {
	tb := fragvisor.NewTestbed(2)
	defer tb.Close()
	vm := tb.NewFragVisorVM(2, 4<<30)
	tb.Env.Spawn("orchestrate", func(p *fragvisor.Proc) {
		if d := vm.MigrateVCPU(p, 1, 0); d < 50*fragvisor.Microsecond {
			t.Errorf("migration latency = %v, implausibly fast", d)
		}
	})
	tb.Run()
	if !vm.Consolidated() {
		t.Fatal("VM not consolidated")
	}
}

func TestRunExperimentAPI(t *testing.T) {
	names := fragvisor.ExperimentNames()
	if len(names) < 10 {
		t.Fatalf("experiments = %v", names)
	}
	tab, err := fragvisor.RunExperiment("fig4", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "sharing") {
		t.Fatalf("table = %s", tab)
	}
	if _, err := fragvisor.RunExperiment("nope", 0.02, 1); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}
