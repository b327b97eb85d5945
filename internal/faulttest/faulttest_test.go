package faulttest

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
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

// TestTorCutRecovery: cutting rack 1's ToR uplink on a tree fabric takes
// both of its nodes unreachable as one event, and exactly those two must
// be declared dead. Batch detection (probe all, then declare all) declares
// both in one heartbeat tick. The dataset is sized so that one checkpoint
// restore (~135 ms) far outlasts the 38 ms cut window, and the detector
// keeps probing while it streams: a restore chunk sent as one 16 MiB
// frame would hold a link for 2.4 ms, queue a probe past its 1 ms bound
// and get live node 1 declared as well. sendChunk's segments are what
// keep it alive.
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
	// Recoveries run one at a time: the second node's callback starts
	// only once the first restore, which outlasts the cut, is done.
	if res.Detected[1] <= 38*sim.Millisecond {
		t.Fatalf("second recovery at %v expected after the 40ms heal (restore should outlast the cut)", res.Detected[1])
	}
}

// TestConcurrentCrashesDetectedTogether: two nodes fail-stopping at the
// same instant must both be detected and recovered, each recovery a long
// checkpoint restore.
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
// blocking sender and every heartbeat probe it touches is lost. The run
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

// TestPanickingRunClosesItsWorld: a run that panics (here in a proc the
// Hook plants, which panics while the driver proc is booting the VM)
// returns no Result to close the world through, so Run closes it itself
// and leaves no worker goroutine behind.
func TestPanickingRunClosesItsWorld(t *testing.T) {
	start := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a run whose Hook plants a panicking proc did not panic")
			}
		}()
		Run(Scenario{Seed: 1, Hook: func(c *cluster.Cluster) {
			c.Env.Spawn("panicker", func(p *sim.Proc) {
				p.Sleep(sim.Millisecond)
				panic("faulttest: planted panic")
			})
		}})
	}()
	if n := leakcheck.Settle(start); n > start {
		t.Fatalf("%d goroutines after the panicking run, %d before", n, start)
	}
}
