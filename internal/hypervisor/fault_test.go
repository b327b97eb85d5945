package hypervisor

import (
	"fmt"
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
