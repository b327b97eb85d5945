package hypervisor

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// detectorRun boots an idle VM over nodes 0, 1 and 2 of a faulted
// cluster, arms its failure detector, applies sched shifted to the
// arming instant, and stops the detector 20 ms later. It returns the
// VM's hb.miss count and, per declared slice, its declaration time
// after arming. An idle VM sends nothing between its own probes, so
// every message rule in sched is spent on probe legs.
func detectorRun(t *testing.T, sched fault.Schedule) (misses int64, declared map[int]sim.Time) {
	t.Helper()
	c := newCluster(3)
	defer c.Env.Close()
	inj := fault.New(c)
	vm := New(FragVisorConfig(c, SpreadPlacement([]int{0, 1, 2}, 3), 1<<30))
	declared = make(map[int]sim.Time)
	c.Env.Spawn("driver", func(p *sim.Proc) {
		vm.Boot(p)
		start := p.Now()
		vm.StartHeartbeat(func(rp *sim.Proc, node int) { declared[node] = rp.Now() - start })
		inj.Apply(sched.Shifted(start))
		p.Sleep(20 * sim.Millisecond)
		vm.StopHeartbeat()
	})
	c.Env.Run()
	if live := c.Env.LiveProcs(); len(live) != 0 {
		t.Errorf("procs left parked after StopHeartbeat: %v", live)
	}
	return vm.Counters().Get("hb.miss"), declared
}

// TestDetectorIsNotAProc: the failure detector is a timer chain, so once
// armed the only proc it adds is vm-recovery, parked on its empty queue.
func TestDetectorIsNotAProc(t *testing.T) {
	c := newCluster(3)
	defer c.Env.Close()
	fault.New(c)
	vm := New(FragVisorConfig(c, SpreadPlacement([]int{0, 1, 2}, 3), 1<<30))
	c.Env.Spawn("driver", func(p *sim.Proc) {
		vm.Boot(p)
		vm.StartHeartbeat(nil)
	})
	c.Env.RunUntil(10 * sim.Millisecond)
	if live := fmt.Sprint(c.Env.LiveProcs()); live != "[vm-recovery]" {
		t.Errorf("live procs %s with the detector armed, want [vm-recovery]", live)
	}
	vm.StopHeartbeat()
	c.Env.Run()
	if live := c.Env.LiveProcs(); len(live) != 0 {
		t.Errorf("procs left parked after StopHeartbeat: %v", live)
	}
}

// TestDroppedProbesDeclareSlice: a drop rule on route 0→2 — no crash —
// eats probe legs. One dropped probe costs node 2 one miss and nothing
// more; two in a row declare it at the second probe tick, 4 ms after
// arming.
func TestDroppedProbesDeclareSlice(t *testing.T) {
	for _, tc := range []struct {
		count  int
		misses int64
		want   string
	}{
		{1, 1, "map[]"},
		{2, 2, "map[2:4.000ms]"},
	} {
		var sched fault.Schedule
		sched.Add(fault.Event{At: sim.Millisecond, Kind: fault.DropMessages, From: 0, To: 2, Count: tc.count})
		misses, declared := detectorRun(t, sched)
		if misses != tc.misses || fmt.Sprint(declared) != tc.want {
			t.Errorf("%d dropped: %d misses, declared %v; want %d misses, declared %s",
				tc.count, misses, declared, tc.misses, tc.want)
		}
	}
}

// TestLateProbeIsAMiss: a reply delayed past hbTimeout is a miss even
// though it arrives, and one miss declares nothing.
func TestLateProbeIsAMiss(t *testing.T) {
	var sched fault.Schedule
	sched.Add(fault.Event{At: sim.Millisecond, Kind: fault.DelayMessages, From: 2, To: 0, Count: 1, Delay: 2 * hbTimeout})
	misses, declared := detectorRun(t, sched)
	if misses != 1 || len(declared) != 0 {
		t.Errorf("%d misses, declared %v; want 1 miss and no declaration", misses, declared)
	}
}

// pcpuIndex returns the index, on its node, of the pCPU vCPU id is pinned to.
func pcpuIndex(vm *VM, id int) int {
	v := vm.VCPUs.VCPU(id)
	return slices.Index(vm.cfg.Cluster.Node(v.Node()).PCPUs, v.PCPU())
}

// TestRestartGivesEachVCPUItsOwnCore: lender 1 of a VM with two vCPUs on
// each of nodes 0, 1 and 2 crashes, and recovery restarts its vCPUs on
// the survivors. Each lands on a core no other vCPU of the VM holds, not
// on pCPU 0 beside the survivor already running there.
func TestRestartGivesEachVCPUItsOwnCore(t *testing.T) {
	c := newCluster(3)
	defer c.Env.Close()
	inj := fault.New(c)
	vm := New(FragVisorConfig(c, SpreadPlacement([]int{0, 1, 2}, 6), 1<<30))
	var sched fault.Schedule
	sched.Add(fault.Event{At: sim.Millisecond, Kind: fault.CrashNode, Node: 1})
	moved := 0
	c.Env.Spawn("driver", func(p *sim.Proc) {
		vm.Boot(p)
		vm.StartHeartbeat(func(*sim.Proc, int) {
			moved = vm.Restart(vm.AliveNodes())
			vm.StopHeartbeat()
		})
		inj.Apply(sched.Shifted(p.Now()))
	})
	c.Env.Run()
	if moved != 2 || vm.Alive(1) {
		t.Fatalf("restart moved %d vCPUs, node 1 alive %v; want 2 moved off a dead node 1", moved, vm.Alive(1))
	}
	if got := vm.Counters().Get("recover.vcpus_moved"); got != 2 {
		t.Errorf("recover.vcpus_moved = %d, want 2", got)
	}
	holder := map[*sim.PS]int{}
	for id := 0; id < vm.NVCPU(); id++ {
		v := vm.VCPUs.VCPU(id)
		if v.Node() == 1 {
			t.Errorf("vCPU %d is still on the dead node", id)
		}
		if other, ok := holder[v.PCPU()]; ok {
			t.Errorf("vCPUs %d and %d share pCPU %d of node %d", other, id, pcpuIndex(vm, id), v.Node())
		}
		holder[v.PCPU()] = id
	}
	// vCPU 1 goes to node 0 and vCPU 4 to node 2, each onto pCPU 2:
	// pCPUs 0 and 1 there hold the survivors.
	for _, id := range []int{1, 4} {
		if k := pcpuIndex(vm, id); k != 2 {
			t.Errorf("restarted vCPU %d on pCPU %d of node %d, want pCPU 2", id, k, vm.VCPUs.NodeOf(id))
		}
	}
}
