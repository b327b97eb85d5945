package fault

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestScheduleShiftedOffsetsEveryEventAndCopies(t *testing.T) {
	var s Schedule
	s.Add(Event{At: 5 * sim.Millisecond, Kind: CrashNode, Node: 2})
	s.Add(Event{At: 1 * sim.Millisecond, Kind: Partition, A: 0, B: 3})

	shifted := s.Shifted(10 * sim.Millisecond)
	if got := shifted.Events[0].At; got != 15*sim.Millisecond {
		t.Errorf("shifted event 0 at %v, want 15ms", got)
	}
	if got := shifted.Events[1].At; got != 11*sim.Millisecond {
		t.Errorf("shifted event 1 at %v, want 11ms", got)
	}
	// The original must be untouched: Shifted anchors a reusable
	// workload-relative schedule without consuming it.
	if got := s.Events[0].At; got != 5*sim.Millisecond {
		t.Errorf("Shifted mutated the source schedule: %v", got)
	}
}

func TestScheduleCount(t *testing.T) {
	var s Schedule
	s.Add(Event{At: 1, Kind: CrashNode, Node: 1})
	s.Add(Event{At: 2, Kind: DropMessages, From: Any, To: Any, Count: 3})
	s.Add(Event{At: 3, Kind: CrashNode, Node: 2})
	if got := s.Count(CrashNode); got != 2 {
		t.Errorf("Count(CrashNode) = %d, want 2", got)
	}
	if got := s.Count(HealNode); got != 0 {
		t.Errorf("Count(HealNode) = %d, want 0", got)
	}
}

func TestScheduleStringSortedByTime(t *testing.T) {
	var s Schedule
	s.Add(Event{At: 2 * sim.Millisecond, Kind: CrashNode, Node: 1})
	s.Add(Event{At: 1 * sim.Millisecond, Kind: DelayMessages, From: Any, To: 0, Count: 2, Delay: 50 * sim.Microsecond})
	want := "1.000ms delay *->0 count=2 delay=50.00us\n2.000ms crash node=1\n"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestInjectorCrashAndRuleOutcomes(t *testing.T) {
	env := sim.NewEnv()
	c := cluster.NewDefault(env, 4)
	inj := New(c)

	var s Schedule
	s.Add(Event{At: sim.Millisecond, Kind: CrashNode, Node: 2})
	s.Add(Event{At: sim.Millisecond, Kind: Partition, A: 0, B: 3})
	s.Add(Event{At: sim.Millisecond, Kind: DropMessages, From: 0, To: 1, Count: 2})
	s.Add(Event{At: sim.Millisecond, Kind: DelayMessages, From: Any, To: 1, Count: 1, Delay: 100 * sim.Microsecond})
	s.Add(Event{At: 2 * sim.Millisecond, Kind: HealPartition, A: 0, B: 3})
	inj.Apply(s)
	env.Run()

	if inj.NodeAlive(2) || !inj.NodeAlive(1) {
		t.Fatal("liveness view wrong after crash")
	}
	// Crashed endpoints drop in both directions.
	if !inj.Outcome(0, 2, 64).Drop || !inj.Outcome(2, 0, 64).Drop {
		t.Error("traffic to/from crashed node not dropped")
	}
	// The partition healed at 2ms, so 0<->3 flows again.
	if inj.Partitioned(0, 3) || inj.Outcome(0, 3, 64).Drop {
		t.Error("healed partition still dropping")
	}
	// The drop rule consumes exactly its 2-message budget on 0->1.
	if !inj.Outcome(0, 1, 64).Drop || !inj.Outcome(0, 1, 64).Drop {
		t.Error("drop rule did not consume its budget")
	}
	// Budget spent: the next 0->1 message falls through to the delay rule.
	out := inj.Outcome(0, 1, 64)
	if out.Drop || out.Delay != 100*sim.Microsecond {
		t.Errorf("after drop budget, outcome = %+v, want 100µs delay", out)
	}
	// Delay budget spent too: traffic is clean now.
	if out := inj.Outcome(0, 1, 64); out.Drop || out.Delay != 0 {
		t.Errorf("exhausted rules still firing: %+v", out)
	}
}

func TestInjectorDupRuleAtMessageLayer(t *testing.T) {
	env := sim.NewEnv()
	c := cluster.NewDefault(env, 2)
	inj := New(c)

	var s Schedule
	s.Add(Event{At: sim.Microsecond, Kind: DupMessages, From: Any, To: Any, Count: 1})
	inj.Apply(s)
	env.Run()

	if !inj.MsgOutcome(0, 1).Duplicate {
		t.Fatal("dup rule did not duplicate the first message")
	}
	if inj.MsgOutcome(0, 1).Duplicate {
		t.Fatal("dup rule exceeded its budget")
	}
}

// TestDegradeCPUStacksAndHeals: CPU degradations add up as background
// load on every pCPU of the node, and healing removes exactly what they
// added.
func TestDegradeCPUStacksAndHeals(t *testing.T) {
	env := sim.NewEnv()
	c := cluster.NewDefault(env, 2)
	var s Schedule
	s.Add(Event{At: sim.Millisecond, Kind: DegradeCPU, Node: 1, Factor: 0.5})
	s.Add(Event{At: 2 * sim.Millisecond, Kind: DegradeCPU, Node: 1, Factor: 0.25})
	s.Add(Event{At: 4 * sim.Millisecond, Kind: HealCPU, Node: 1})
	New(c).Apply(s)
	ps := c.Node(1).PCPUs[0]
	var degraded, healed float64
	env.At(3*sim.Millisecond, func() { degraded = ps.BackgroundWeight() })
	env.At(5*sim.Millisecond, func() { healed = ps.BackgroundWeight() })
	env.Run()
	if degraded != 0.75 || healed != 0 {
		t.Fatalf("background weight = %v after degradations of 0.5 and 0.25, %v after the heal; want 0.75 and 0",
			degraded, healed)
	}
	if w := c.Node(0).PCPUs[0].BackgroundWeight(); w != 0 {
		t.Fatalf("undegraded node carries background weight %v", w)
	}
}
