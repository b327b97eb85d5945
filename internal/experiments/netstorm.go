package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/faulttest"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/reliable"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
)

func init() { register("netstorm", NetStorm) }

// NetStorm exercises the reliable transport and the link-level fault
// domains end to end, on a 2-rack tree with a 4:1 oversubscribed spine.
//
// Data plane (faulttest on a 4-node Aggregate VM): the same workload
// runs fault-free, under an Any→Any drop storm (every blocking sender —
// DSM fills, checkpoint chunks — must retry through it rather than
// wedge), and with rack 1's ToR uplink cut (nodes 2 and 3 become
// unreachable as one event, the heartbeat declares them dead, and the
// VM restarts on the survivors from its checkpoint). The storm and cut
// rows report the slowdown against the baseline — bounded, because
// every loss is resolved by retransmission or typed failure, never by
// an infinite hang.
//
// Control plane (one fleet per reclaim policy): a seeded burst of VM
// arrivals runs under a message-probing heartbeat (fleet.Config.Probe)
// while the schedule throws a drop storm at the probes and then cuts
// node 1's host links. The storm makes probes go unreachable — false
// positives that restart fragments and requeue VMs — and the cut takes
// a healthy node down without crashing it; both heal, the node rejoins,
// and the fleet's invariants hold at quiescence under all three reclaim
// policies.
func NetStorm(o Options) *metrics.Table {
	spec := topo.TreeSpec(2, 2, 4)
	t := metrics.NewTable(
		fmt.Sprintf("netstorm: recovery under drop storms and link cuts (%s spine, seed=%d)", spec, o.Seed),
		"scenario", "policy", "wall_ms", "slowdown", "deaths", "node_ups", "restarts", "requeues", "retransmits", "unreachable")

	// --- Data plane: Aggregate VM under storms and a ToR cut. ---
	run := func(sched fault.Schedule, expectDeaths int) *faulttest.Result {
		res := faulttest.Run(faulttest.Scenario{
			Topo:         spec,
			Seed:         o.Seed,
			Scale:        o.Scale,
			Schedule:     sched,
			Checkpoint:   true,
			DatasetBytes: int64(64 << 20),
			ExpectDeaths: expectDeaths,
		})
		res.Close()
		if len(res.LiveProcs) > 0 {
			panic("experiments: netstorm scenario deadlocked:\n" + res.Metrics())
		}
		return res
	}
	ms := func(d sim.Time) float64 { return d.Seconds() * 1e3 }

	base := run(fault.Schedule{}, 0)
	t.AddRow("vm-baseline", "-", ms(base.Wall), 1.0,
		float64(len(base.DeadAt)), 0.0, 0.0, 0.0,
		float64(base.Reliable.Retransmits), float64(base.Reliable.Unreachable))

	// The workload's steady-state fabric traffic is sparse (most DSM
	// activity resolves locally), so a 600-message Any→Any drop budget is
	// a sustained blackout: the heartbeat (correctly) declares all three
	// lenders dead, and the interesting claim is that recovery — three
	// full checkpoint restores — runs over the reliable transport while
	// the storm is still eating frames, and completes instead of wedging.
	var storm fault.Schedule
	storm.Add(fault.Event{At: sim.Millisecond, Kind: fault.DropMessages, From: fault.Any, To: fault.Any, Count: 300})
	storm.Add(fault.Event{At: 3 * sim.Millisecond, Kind: fault.DropMessages, From: fault.Any, To: fault.Any, Count: 300})
	st := run(storm, 3)
	t.AddRow("vm-drop-storm", "-", ms(st.Wall), metrics.Ratio(st.Wall, base.Wall),
		float64(len(st.DeadAt)), 0.0, 0.0, 0.0,
		float64(st.Reliable.Retransmits), float64(st.Reliable.Unreachable))

	var cut fault.Schedule
	cut.Add(fault.Event{At: 2 * sim.Millisecond, Kind: fault.CutLink, Link: "tor1"})
	cut.Add(fault.Event{At: 40 * sim.Millisecond, Kind: fault.HealLink, Link: "tor1"})
	tc := run(cut, 2)
	t.AddRow("vm-tor-cut", "-", ms(tc.Wall), metrics.Ratio(tc.Wall, base.Wall),
		float64(len(tc.DeadAt)), 0.0, 0.0, 0.0,
		float64(tc.Reliable.Retransmits), float64(tc.Reliable.Unreachable))

	// --- Control plane: probing heartbeat under the same abuse. ---
	for _, pol := range fleet.Policies() {
		st, rel, ups := netstormFleet(o, spec, pol)
		t.AddRow("fleet-storm", pol.String(), 0.0, st.MeanSlowdown(),
			float64(st.NodeFailures), float64(ups), float64(st.Restarts), float64(st.Requeues),
			float64(rel.Retransmits), float64(rel.Unreachable))
	}
	t.AddNote("storm and cut slowdowns are bounded: every dropped frame resolves by retransmission or a typed unreachable error, never a hang")
	t.AddNote("the ToR cut kills rack 1 (2 nodes) as one event; the probing fleet heartbeat recovers cut nodes like crashed ones and rejoins them after heal")
	return t
}

// netstormFleet runs one reclaim policy's fleet under a probe-visible
// drop storm and a host-link cut/heal cycle, returning its stats, the
// probe transport's stats, and the node-up (rejoin) count.
func netstormFleet(o Options, spec *topo.Spec, pol fleet.ReclaimPolicy) (fleet.Stats, reliable.Stats, int) {
	const (
		gig     = int64(1) << 30
		nodes   = 4
		window  = 60 * sim.Second
		horizon = 240 * sim.Second
	)
	env := o.newEnv(fmt.Sprintf("netstorm/%s/seed%d", pol, o.Seed))
	p := o.params()
	p.Topo = spec
	c := o.observe("netstorm-"+pol.String(), cluster.New(env, nodes, p))
	inj := fault.New(c)

	cfg := fleet.ClusterConfig(c, sched.MinFrag)
	cfg.Reclaim = pol
	cfg.AutoReclaim = true
	cfg.RebalanceEvery = 5 * sim.Second
	cfg.Horizon = horizon
	cfg.Fault = inj
	cfg.HeartbeatEvery = 500 * sim.Millisecond
	cfg.Probe = c.Reliable
	cfg.ProbeFrom = 0 // the controller's host; rack 0
	cfg.Distance = spec.Distance
	f := fleet.New(env, cfg)

	rng := rand.New(rand.NewSource(o.Seed))
	n := int(300 * o.Scale)
	if n < 6 {
		n = 6
	}
	f.Submit(fleet.GenerateBurst(rng, n, window, 2*gig))

	// Probes are the fleet's only fabric traffic, so a modest Any→Any
	// storm eats whole probe rounds: the transport retries, then surfaces
	// ErrUnreachable, and the heartbeat (correctly) declares false
	// positives that heal on the next clean probe.
	var sch fault.Schedule
	sch.Add(fault.Event{At: 60 * sim.Second, Kind: fault.DropMessages, From: fault.Any, To: fault.Any, Count: 60})
	// Then a real link fault: node 1 loses both host links — down without
	// ever crashing — and rejoins after the heal.
	sch.Add(fault.Event{At: 120 * sim.Second, Kind: fault.CutLink, Link: "n1"})
	sch.Add(fault.Event{At: 160 * sim.Second, Kind: fault.HealLink, Link: "n1"})
	inj.Apply(sch)

	env.RunUntil(horizon)
	env.Stop()
	f.Verify()

	ups := 0
	for _, ev := range f.Events() {
		if ev.Kind == "node-up" {
			ups++
		}
	}
	return f.Stats(), c.Reliable.Stats(), ups
}
