package hypervisor

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

func newCluster(n int) *cluster.Cluster {
	return cluster.NewDefault(sim.NewEnv(), n)
}

func TestSpreadPlacement(t *testing.T) {
	if got, want := SpreadPlacement([]int{0, 1, 2}, 4), []int{0, 1, 2, 0}; !slices.Equal(got, want) {
		t.Errorf("SpreadPlacement = %v, want %v", got, want)
	}
}

// TestBootTakesCoresInIDOrder: the placement names nodes only, and New
// pins the vCPUs in ID order by the rule that places every later move.
// On 2-core nodes, placement [1 0 1 1] puts vCPUs 0 and 2 on node 1's
// pCPUs 0 and 1, vCPU 1 on node 0's pCPU 0, and vCPU 3 past node 1's
// core count, back on its pCPU 0.
func TestBootTakesCoresInIDOrder(t *testing.T) {
	c := cluster.New(sim.NewEnv(), 2, cluster.Params{CoresPerNode: 2, RAMBytes: 32 << 30})
	defer c.Env.Close()
	vm := New(FragVisorConfig(c, []int{1, 0, 1, 1}, 1<<30))
	if got, want := vm.VCPUNodes(), []int{1, 0, 1, 1}; !slices.Equal(got, want) {
		t.Errorf("vCPUs on nodes %v, want %v", got, want)
	}
	for id, want := range []int{0, 0, 1, 0} {
		if k := pcpuIndex(vm, id); k != want {
			t.Errorf("vCPU %d on pCPU %d of node %d, want %d", id, k, vm.VCPUs.NodeOf(id), want)
		}
	}
}

func TestNewAggregateVM(t *testing.T) {
	c := newCluster(4)
	vm := New(FragVisorConfig(c, SpreadPlacement([]int{0, 1, 2, 3}, 4), 1<<30))
	if got := vm.Nodes(); len(got) != 4 || got[0] != 0 {
		t.Fatalf("nodes = %v", got)
	}
	if vm.NVCPU() != 4 {
		t.Fatalf("NVCPU = %d", vm.NVCPU())
	}
	if vm.DSM.Origin() != 0 {
		t.Fatalf("origin = %d", vm.DSM.Origin())
	}
	if vm.Consolidated() {
		t.Fatal("spread VM reported consolidated")
	}
}

func TestBootHandshakesCompanions(t *testing.T) {
	c := newCluster(3)
	vm := New(FragVisorConfig(c, SpreadPlacement([]int{0, 1, 2}, 3), 1<<30))
	c.Env.Spawn("boot", func(p *sim.Proc) { vm.Boot(p) })
	c.Env.Run()
	if msgs := c.Fabric.Stats().Messages; msgs < 4 {
		t.Fatalf("boot exchanged %d fabric messages, want >=4 (2 handshakes + replies)", msgs)
	}
	if c.Env.Now() < 6*sim.Millisecond {
		t.Fatalf("boot took %v, expected >= 3 slices x 2ms", c.Env.Now())
	}
}

func TestDoubleBootPanics(t *testing.T) {
	c := newCluster(2)
	vm := New(FragVisorConfig(c, SpreadPlacement([]int{0, 1}, 2), 1<<30))
	c.Env.Spawn("boot", func(p *sim.Proc) {
		vm.Boot(p)
		defer func() {
			if recover() == nil {
				t.Error("double boot did not panic")
			}
		}()
		vm.Boot(p)
	})
	c.Env.Run()
}

func TestRunExecutesOnPinnedPCPU(t *testing.T) {
	c := newCluster(2)
	vm := New(FragVisorConfig(c, SpreadPlacement([]int{0, 1}, 2), 1<<30))
	vm.Run(1, "job", func(ctx *vcpu.Ctx) {
		ctx.Compute(50 * sim.Millisecond)
	})
	c.Env.Run()
	done := c.Node(1).PCPUs[0].TotalDone()
	want := cluster.CyclesFor(50 * sim.Millisecond)
	if done < want*0.99 || done > want*1.01 {
		t.Fatalf("node1 pCPU0 did %v cycles, want ~%v", done, want)
	}
}

func TestMigrateAndConsolidate(t *testing.T) {
	c := newCluster(2)
	vm := New(FragVisorConfig(c, SpreadPlacement([]int{0, 1}, 2), 1<<30))
	c.Env.Spawn("orchestrator", func(p *sim.Proc) {
		if d := vm.MigrateVCPU(p, 1, 0); d <= 0 {
			t.Errorf("migration latency = %v", d)
		}
	})
	c.Env.Run()
	if !vm.Consolidated() {
		t.Fatal("VM not consolidated after migration")
	}
	if nodes := vm.VCPUNodes(); nodes[1] != 0 {
		t.Fatalf("vCPU1 on node %d", nodes[1])
	}
}

// TestMigrateTakesTheLowestFreeCore: the VM picks a migrating vCPU's
// core. vCPUs 1, 2 and 3 of a VM spread over four nodes move onto node
// 0, whose pCPU 0 vCPU 0 holds, and take pCPUs 1, 2 and 3. vCPU 1 then
// leaves and comes back, and takes pCPU 1 again: the lowest core left
// free, not the next one in turn.
func TestMigrateTakesTheLowestFreeCore(t *testing.T) {
	c := newCluster(4)
	defer c.Env.Close()
	vm := New(FragVisorConfig(c, SpreadPlacement([]int{0, 1, 2, 3}, 4), 1<<30))
	var back, home int
	c.Env.Spawn("orchestrator", func(p *sim.Proc) {
		for id := 1; id < 4; id++ {
			vm.MigrateVCPU(p, id, 0)
		}
		vm.MigrateVCPU(p, 1, 1)
		home = pcpuIndex(vm, 1)
		vm.MigrateVCPU(p, 1, 0)
		back = pcpuIndex(vm, 1)
	})
	c.Env.Run()
	if !vm.Consolidated() {
		t.Fatalf("vCPUs on %v, want all on node 0", vm.VCPUNodes())
	}
	for id := 0; id < 4; id++ {
		if k := pcpuIndex(vm, id); k != id {
			t.Errorf("vCPU %d on pCPU %d of node 0, want %d", id, k, id)
		}
	}
	if home != 0 || back != 1 {
		t.Errorf("vCPU 1 took pCPU %d on node 1 and pCPU %d back on node 0, want 0 and 1", home, back)
	}
}

func TestMobilityDisabledPanics(t *testing.T) {
	c := newCluster(2)
	cfg := FragVisorConfig(c, SpreadPlacement([]int{0, 1}, 2), 1<<30)
	cfg.Mobility = false
	vm := New(cfg)
	c.Env.Spawn("orchestrator", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("migration without mobility did not panic")
			}
		}()
		vm.MigrateVCPU(p, 1, 0)
	})
	c.Env.Run()
}

func TestInvalidConfigsPanic(t *testing.T) {
	c := newCluster(1)
	for name, fn := range map[string]func(){
		"no placement": func() { New(Config{Cluster: c, MemBytes: 1}) },
		"no memory":    func() { New(Config{Cluster: c, Placement: []int{0}}) },
		"no cluster":   func() { New(Config{Placement: []int{0}, MemBytes: 1}) },
		"bad spread":   func() { SpreadPlacement(nil, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestDetectionRunsDuringRecovery: the detector never waits on a
// recovery. Node 1's callback blocks for 100ms (a long checkpoint
// restore), and node 2 crashes while it blocks: node 2 must be declared
// dead before node 1's callback returns, and both callbacks run in
// declaration order. Stopping the heartbeat leaves no proc parked.
func TestDetectionRunsDuringRecovery(t *testing.T) {
	c := newCluster(3)
	defer c.Env.Close()
	inj := fault.New(c)
	vm := New(FragVisorConfig(c, SpreadPlacement([]int{0, 1, 2}, 3), 1<<30))
	var sched fault.Schedule
	sched.Add(fault.Event{At: 5 * sim.Millisecond, Kind: fault.CrashNode, Node: 1})
	sched.Add(fault.Event{At: 15 * sim.Millisecond, Kind: fault.CrashNode, Node: 2})

	var recovered []int
	declaredDuring := false
	c.Env.Spawn("driver", func(p *sim.Proc) {
		vm.Boot(p)
		vm.StartHeartbeat(func(rp *sim.Proc, node int) {
			recovered = append(recovered, node)
			if node == 1 {
				rp.Sleep(100 * sim.Millisecond)
				declaredDuring = !vm.Alive(2)
			}
			if len(recovered) == 2 {
				vm.StopHeartbeat()
			}
		})
		inj.Apply(sched.Shifted(p.Now()))
	})
	c.Env.Run()
	if !declaredDuring {
		t.Error("node 2 was not declared dead while node 1's recovery blocked")
	}
	if len(recovered) != 2 || recovered[0] != 1 || recovered[1] != 2 {
		t.Errorf("recoveries ran for %v, want [1 2]", recovered)
	}
	if live := c.Env.LiveProcs(); len(live) != 0 {
		t.Errorf("procs left parked after StopHeartbeat: %v", live)
	}
}

// TestFaultedClusterWiresEveryVM: fault.New on the cluster is the only
// fault switch. A VM built from the plain FragVisor profile on a faulted
// cluster must carry its messages over its reliable transport, which
// retransmits through an Any→Any drop burst and suppresses duplicated
// frames, so every vCPU's writes complete and the DSM stays coherent.
func TestFaultedClusterWiresEveryVM(t *testing.T) {
	c := newCluster(4)
	defer c.Env.Close()
	inj := fault.New(c)
	vm := New(FragVisorConfig(c, SpreadPlacement([]int{0, 1, 2, 3}, 4), 1<<30))
	region := vm.Layout.Alloc("shared", 4, mem.KindHeap)
	c.Env.Spawn("driver", func(p *sim.Proc) {
		vm.Boot(p)
		var sched fault.Schedule
		sched.Add(fault.Event{Kind: fault.DropMessages, From: fault.Any, To: fault.Any, Count: 20})
		sched.Add(fault.Event{Kind: fault.DupMessages, From: fault.Any, To: fault.Any, Count: 20})
		inj.Apply(sched.Shifted(p.Now()))
		var done []*sim.Event
		for i := 0; i < vm.NVCPU(); i++ {
			w := vm.Run(i, fmt.Sprintf("writer%d", i), func(ctx *vcpu.Ctx) {
				for k := 0; k < 40; k++ {
					vm.DSM.Write(ctx.P, ctx.Node(), region.Page(int64(k%4)), 8*i, []byte{byte(k), byte(i)})
					c.Env.MarkProgress()
				}
			})
			done = append(done, w.Done())
		}
		p.WaitAll(done...)
	})
	c.Env.WatchProgress(100 * sim.Millisecond)
	c.Env.Run()
	if st := c.Env.Stalled(); st != nil {
		t.Fatal(st)
	}
	if live := c.Env.LiveProcs(); len(live) != 0 {
		t.Fatalf("procs left blocked: %v", live)
	}
	st := vm.Layer.Transport().Stats()
	if st.Retransmits == 0 {
		t.Error("the transport never retransmitted through the drop burst")
	}
	if st.DupsSuppressed == 0 {
		t.Error("the transport suppressed no duplicated frame")
	}
	if err := vm.DSM.Validate(); err != nil {
		t.Error(err)
	}
}

// runFaulted boots a VM with one vCPU on each of three nodes of a faulted
// cluster, applies the schedule at boot time (before Boot when early is
// set, else right after it) and runs drive, under a watchdog. It fails
// the test unless everything completes.
func runFaulted(t *testing.T, sched fault.Schedule, early bool, drive func(p *sim.Proc, vm *VM)) *VM {
	t.Helper()
	c := newCluster(3)
	defer c.Env.Close()
	inj := fault.New(c)
	vm := New(FragVisorConfig(c, SpreadPlacement([]int{0, 1, 2}, 3), 1<<30))
	done := false
	if early {
		inj.Apply(sched) // its rules are live before the driver starts
	}
	c.Env.Spawn("driver", func(p *sim.Proc) {
		vm.Boot(p)
		if !early {
			inj.Apply(sched.Shifted(p.Now()))
		}
		drive(p, vm)
		done = true
	})
	c.Env.WatchProgress(100 * sim.Millisecond)
	c.Env.Run()
	if st := c.Env.Stalled(); st != nil {
		t.Fatal(st)
	}
	if live := c.Env.LiveProcs(); len(live) != 0 || !done {
		t.Fatalf("driver finished %v, procs left blocked: %v", done, live)
	}
	if st := vm.Layer.Transport().Stats(); st.Retransmits == 0 {
		t.Errorf("the lost frame was never retransmitted: %+v", st)
	}
	return vm
}

// TestDroppedFrameDoesNotWedgeMigration: one frame lost on route 1→2
// while vCPU 1 live-migrates from node 1 to node 2 is retransmitted, and
// the migration completes.
func TestDroppedFrameDoesNotWedgeMigration(t *testing.T) {
	var sched fault.Schedule
	sched.Add(fault.Event{Kind: fault.DropMessages, From: 1, To: 2, Count: 1})
	vm := runFaulted(t, sched, false, func(p *sim.Proc, vm *VM) { vm.MigrateVCPU(p, 1, 2) })
	if got := vm.VCPUNodes()[1]; got != 2 {
		t.Errorf("vCPU 1 is on node %d, want 2", got)
	}
}

// TestDroppedFrameDoesNotWedgeBoot: one frame lost on route 0→1 before
// Boot — the first handshake's — is retransmitted, and boot completes.
func TestDroppedFrameDoesNotWedgeBoot(t *testing.T) {
	var sched fault.Schedule
	sched.Add(fault.Event{Kind: fault.DropMessages, From: 0, To: 1, Count: 1})
	runFaulted(t, sched, true, func(*sim.Proc, *VM) {})
}
