package faulttest

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/leakcheck"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestFaultFreeBaseline: the harness itself must pass cleanly with an
// empty schedule — workload completes, memory intact, DSM coherent.
func TestFaultFreeBaseline(t *testing.T) {
	res := Run(Scenario{Seed: 1})
	defer res.Close()
	if !res.Ok() {
		t.Fatalf("fault-free run failed:\n%s", res.Metrics())
	}
	if len(res.DeadAt) != 0 {
		t.Fatalf("heartbeat declared deaths without faults: %v", res.DeadAt)
	}
	if !res.PatternChecked {
		t.Fatal("pattern check skipped on a fault-free run")
	}
}

// TestLenderCrashRecovery is the headline end-to-end scenario: a lender
// slice fail-stops mid-workload; the heartbeat detects it, vCPUs restart
// on survivors, the checkpoint restores guest memory, the workload runs
// to completion, and the pattern written before the crash is
// byte-identical on the survivors.
func TestLenderCrashRecovery(t *testing.T) {
	var sched fault.Schedule
	sched.Add(fault.Event{At: 10 * sim.Millisecond, Kind: fault.CrashNode, Node: 2})
	res := Run(Scenario{Seed: 7, Schedule: sched, Checkpoint: true})
	defer res.Close()
	if len(res.LiveProcs) != 0 {
		t.Fatalf("deadlock: %v", res.LiveProcs)
	}
	if len(res.DeadAt) != 1 || res.DeadAt[0] != 2 {
		t.Fatalf("expected node 2 declared dead, got %v", res.DeadAt)
	}
	if len(res.Recovered) != 1 {
		t.Fatalf("expected one recovery, got %v", res.Recovered)
	}
	if res.Recovered[0] <= res.Detected[0] {
		t.Fatalf("recovery at %v not after detection at %v", res.Recovered[0], res.Detected[0])
	}
	if res.CoherenceErr != nil {
		t.Fatalf("DSM incoherent after recovery: %v", res.CoherenceErr)
	}
	if !res.PatternChecked || len(res.PatternMismatches) != 0 {
		t.Fatalf("guest memory not byte-identical after restore (checked=%v):\n%v",
			res.PatternChecked, res.PatternMismatches)
	}
}

// TestCrashWithoutCheckpointStaysCoherent: without an image to restore,
// a crash loses the dead slice's data (the pattern check is skipped) but
// the surviving protocol state must stay coherent and deadlock-free.
func TestCrashWithoutCheckpointStaysCoherent(t *testing.T) {
	var sched fault.Schedule
	sched.Add(fault.Event{At: 8 * sim.Millisecond, Kind: fault.CrashNode, Node: 3})
	res := Run(Scenario{Seed: 11, Schedule: sched})
	defer res.Close()
	if len(res.LiveProcs) != 0 {
		t.Fatalf("deadlock: %v", res.LiveProcs)
	}
	if res.CoherenceErr != nil {
		t.Fatalf("DSM incoherent: %v", res.CoherenceErr)
	}
	if res.PatternChecked {
		t.Fatal("pattern check should be skipped after data-losing crash")
	}
}

// TestMessageFaultSchedules: seeded random delay/duplicate/drop rules
// (plus transient partitions and degradations) must never deadlock the
// stack or break coherence; with no crash the pattern also survives.
func TestMessageFaultSchedules(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sched := fault.Random(seed, fault.RandomOpts{
				Nodes:      4,
				Horizon:    25 * sim.Millisecond,
				MsgFaults:  6,
				DropRules:  true,
				Partitions: 1,
				Degrades:   1,
			})
			res := Run(Scenario{Seed: seed, Schedule: sched, Checkpoint: true})
			defer res.Close()
			if len(res.LiveProcs) != 0 {
				t.Fatalf("deadlock under schedule:\n%s\nprocs: %v", sched.String(), res.LiveProcs)
			}
			if res.CoherenceErr != nil {
				t.Fatalf("incoherent under schedule:\n%s\nerr: %v", sched.String(), res.CoherenceErr)
			}
			if res.PatternChecked && len(res.PatternMismatches) != 0 {
				t.Fatalf("pattern diverged under schedule:\n%s\n%v", sched.String(), res.PatternMismatches)
			}
		})
	}
}

// TestRandomCrashSchedules: full fault mix including a crash, with
// checkpointing — every seed must recover to byte-identical memory.
func TestRandomCrashSchedules(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sched := fault.Random(seed, fault.RandomOpts{
				Nodes:     4,
				Horizon:   20 * sim.Millisecond,
				MsgFaults: 4,
				Crashes:   1,
			})
			res := Run(Scenario{Seed: seed, Schedule: sched, Checkpoint: true})
			defer res.Close()
			if !res.Ok() {
				t.Fatalf("failed under schedule:\n%s\nresult:\n%s", sched.String(), res.Metrics())
			}
			if len(res.DeadAt) == 0 {
				t.Fatalf("crash never detected under schedule:\n%s", sched.String())
			}
		})
	}
}

// TestTorCutRecovery: cutting rack 1's ToR uplink on a tree fabric takes
// both of its nodes unreachable as one event. The dataset is sized so
// that one checkpoint restore (~135 ms) far outlasts the 38 ms cut
// window: if the detector declared the first death and then blocked in
// its recovery before probing the second node — the pre-batching
// behavior — the link would heal before that node was ever probed
// again, its pings would succeed, and the driver would hang waiting for
// a death that never comes. Batch detection (ping all, declare all,
// then recover all) must declare both in the same heartbeat tick.
func TestTorCutRecovery(t *testing.T) {
	var cut fault.Schedule
	cut.Add(fault.Event{At: 2 * sim.Millisecond, Kind: fault.CutLink, Link: "tor1"})
	cut.Add(fault.Event{At: 40 * sim.Millisecond, Kind: fault.HealLink, Link: "tor1"})
	res := Run(Scenario{
		Topo:         topo.TreeSpec(2, 2, 4),
		Seed:         42,
		Scale:        0.005,
		Schedule:     cut,
		Checkpoint:   true,
		DatasetBytes: 64 << 20,
		ExpectDeaths: 2,
	})
	defer res.Close()
	if !res.Ok() {
		t.Fatalf("tor-cut run failed:\n%s", res.Metrics())
	}
	if len(res.DeadAt) != 2 {
		t.Fatalf("expected both rack-1 nodes declared dead, got %v", res.DeadAt)
	}
	for _, n := range res.DeadAt {
		if n != 2 && n != 3 {
			t.Fatalf("node %d declared dead but only nodes 2,3 are behind tor1 (dead=%v)", n, res.DeadAt)
		}
	}
	if len(res.Recovered) != 2 {
		t.Fatalf("expected 2 recoveries, got %v", res.Recovered)
	}
	// The second node's recovery callback runs after the heal (the first
	// restore outlasts the cut window), which is only possible if its
	// death was declared in the same pre-heal batch as the first: a
	// fresh post-heal probe would have succeeded and never declared it.
	if res.Detected[1] <= 38*sim.Millisecond {
		t.Fatalf("second recovery at %v expected after the 40ms heal (restore should outlast the cut)", res.Detected[1])
	}
}

// TestConcurrentCrashesDetectedTogether: two nodes fail-stopping at the
// same instant must both be detected even though each recovery blocks
// the detector proc for a long checkpoint restore.
func TestConcurrentCrashesDetectedTogether(t *testing.T) {
	var sched fault.Schedule
	sched.Add(fault.Event{At: 2 * sim.Millisecond, Kind: fault.CrashNode, Node: 2})
	sched.Add(fault.Event{At: 2 * sim.Millisecond, Kind: fault.CrashNode, Node: 3})
	res := Run(Scenario{
		Topo:         topo.TreeSpec(2, 2, 4),
		Seed:         42,
		Scale:        0.005,
		Schedule:     sched,
		Checkpoint:   true,
		DatasetBytes: 4 << 20,
	})
	defer res.Close()
	if !res.Ok() {
		t.Fatalf("double-crash run failed:\n%s", res.Metrics())
	}
	if len(res.DeadAt) != 2 || len(res.Recovered) != 2 {
		t.Fatalf("expected 2 deaths and 2 recoveries, got dead=%v recovered=%v", res.DeadAt, res.Recovered)
	}
}

// TestDropStormBlackoutRecovers: an Any→Any drop budget that outlasts
// the workload's sparse fabric traffic is a sustained blackout — every
// blocking sender and every heartbeat ping it touches is lost. The run
// must still terminate: the detector declares the unreachable lenders
// dead and the checkpoint restores run over the reliable transport
// through the residual storm. This is the schedule that wedged blocking
// senders forever before the transport existed.
func TestDropStormBlackoutRecovers(t *testing.T) {
	var storm fault.Schedule
	storm.Add(fault.Event{At: sim.Millisecond, Kind: fault.DropMessages, From: fault.Any, To: fault.Any, Count: 300})
	storm.Add(fault.Event{At: 3 * sim.Millisecond, Kind: fault.DropMessages, From: fault.Any, To: fault.Any, Count: 300})
	res := Run(Scenario{
		Topo:         topo.TreeSpec(2, 2, 4),
		Seed:         42,
		Scale:        0.005,
		Schedule:     storm,
		Checkpoint:   true,
		DatasetBytes: 4 << 20,
		ExpectDeaths: 3,
	})
	defer res.Close()
	if len(res.LiveProcs) != 0 {
		t.Fatalf("blackout storm wedged the stack: %v\n%s", res.LiveProcs, res.Metrics())
	}
	if res.CoherenceErr != nil {
		t.Fatalf("DSM incoherent after blackout recovery: %v", res.CoherenceErr)
	}
	if len(res.PatternMismatches) != 0 {
		t.Fatalf("guest memory diverged after blackout recovery:\n%v", res.PatternMismatches)
	}
}

// TestDeterministicUnderFaults pins the metrics rendering of a random
// fault mix (drops, a partition, a crash with checkpoint restart) to
// testdata/random42_metrics.txt.
func TestDeterministicUnderFaults(t *testing.T) {
	sched := fault.Random(42, fault.RandomOpts{
		Nodes:      4,
		Horizon:    20 * sim.Millisecond,
		MsgFaults:  5,
		DropRules:  true,
		Partitions: 1,
		Crashes:    1,
	})
	res := Run(Scenario{Seed: 42, Schedule: sched, Checkpoint: true})
	defer res.Close()
	golden.Check(t, filepath.Join("testdata", "random42_metrics.txt"), []byte(res.Metrics()))
}

// TestPanickingRunClosesItsWorld: a run that panics (here an unknown
// kernel, looked up by the driver proc after boot and the checkpoint)
// returns no Result to close the world through, so Run closes it itself
// and leaves no worker goroutine behind.
func TestPanickingRunClosesItsWorld(t *testing.T) {
	start := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a run with an unknown kernel did not panic")
			}
		}()
		Run(Scenario{Seed: 1, Kernel: "no-such-kernel"})
	}()
	if n := leakcheck.Settle(start); n > start {
		t.Fatalf("%d goroutines after the panicking run, %d before", n, start)
	}
}
