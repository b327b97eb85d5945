// Episode execution: one Episode = one fresh sim.Env, one cluster, one
// workload under the episode's fault schedule, judged by the oracle
// registry at quiescence. Run never panics and never hangs — panics
// become typed violations, and the sim watchdog turns deadlocks and
// livelocks into progress violations — so a chaos search survives
// anything an episode does.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/faulttest"
	"repro/internal/fleet"
	"repro/internal/reliable"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Watchdog windows. The vm workload finishes in tens of sim
// milliseconds, the fleet horizon is a minute of sim time with probe
// traffic every 500ms — each window is an order of magnitude above its
// workload's longest legitimate progress gap.
const (
	vmWatchdog     = 250 * sim.Millisecond
	fleetWatchdog  = 30 * sim.Second
	fleetPollEvery = 2 * sim.Second

	// stormIDBase offsets storm burst VM ids per storm so they can
	// never collide with the base burst (ids 1..n) or each other.
	stormIDBase = 1000
)

// Run executes one episode in its own simulation and returns its
// invariant violations (nil when clean). A panic anywhere in the run —
// including a fail-fast fleet Verify() call on an internal code path —
// is recovered into a typed violation so the search keeps going.
func Run(ep Episode, hooks Hooks) (vs []Violation) {
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprint(r)
			name := OraclePanic
			if strings.Contains(msg, "fleet: ") {
				name = OracleConservation
			}
			vs = []Violation{{name, "panic: " + msg}}
		}
	}()
	if ep.Workload == WorkloadVM {
		return runVM(ep, hooks)
	}
	return runFleet(ep, hooks)
}

// runVM drives an Aggregate VM with checkpoint-restart recovery through
// the faulttest harness under the episode's schedule.
func runVM(ep Episode, hooks Hooks) []Violation {
	rt := &Runtime{Workload: ep.Workload}
	res := faulttest.Run(faulttest.Scenario{
		Topo:       topo.TreeSpec(2, 2, 4),
		Seed:       ep.Seed,
		Scale:      ep.Scale,
		Schedule:   ep.Schedule,
		Checkpoint: true,
		Watchdog:   vmWatchdog,
		Hook: func(c *cluster.Cluster) {
			hooks.install(c)
			rt.Fabric = c.Fabric
		},
	})
	rt.Stall = res.Stall
	rt.LiveProcs = res.LiveProcs
	rt.Drained = res.Stall == nil // env.Run ran the queue dry
	rt.Rel = res.Reliable
	rt.VM = res
	defer res.Close() // after judge: the fabric oracle reads the world
	return judge(rt)
}

// fleetPolicy maps a fleet workload name to its reclaim policy.
func fleetPolicy(workload string) fleet.ReclaimPolicy {
	switch workload {
	case WorkloadFleetEvict:
		return fleet.ReclaimEvict
	case WorkloadFleetResize:
		return fleet.ReclaimResize
	default:
		return fleet.ReclaimConsolidate
	}
}

// runFleet drives one reclaim policy's control plane — probing
// heartbeat, auto-reclaim, periodic rebalance — through a base arrival
// burst plus the episode's storms, under its fault schedule, to the
// fixed horizon.
//
// The progress poller exists because the fleet's long-running procs
// (the probe loop) rarely complete: it marks progress whenever the
// probe transport's counters move, which a healthy heartbeat does every
// round against node 0 no matter which other nodes are down — so only
// a genuinely wedged control plane stalls the watchdog.
func runFleet(ep Episode, hooks Hooks) []Violation {
	const gig = int64(1) << 30
	env := sim.NewEnv()
	defer env.Close() // after judge: the oracles read the fabric and the fleet
	spec := topo.TreeSpec(2, 2, 4)
	params := cluster.DefaultParams()
	params.Topo = spec
	c := cluster.New(env, chaosNodes, params)
	inj := fault.New(c)
	hooks.install(c)

	cfg := fleet.ClusterConfig(c, sched.MinFrag)
	cfg.Reclaim = fleetPolicy(ep.Workload)
	cfg.AutoReclaim = true
	cfg.RebalanceEvery = 5 * sim.Second
	cfg.Horizon = fleetHorizon
	cfg.Fault = inj
	cfg.HeartbeatEvery = fleetHeartbeat
	cfg.Probe = c.Reliable
	cfg.ProbeFrom = 0 // the controller's host: the grammar never crashes or cuts it
	cfg.Distance = spec.Distance
	f := fleet.New(env, cfg)

	rng := rand.New(rand.NewSource(ep.Seed))
	n := int(300 * ep.Scale)
	if n < 6 {
		n = 6
	}
	f.Submit(fleet.GenerateBurst(rng, n, 40*sim.Second, 2*gig))
	for si, st := range ep.Storms {
		burst := fleet.GenerateBurst(rand.New(rand.NewSource(st.Seed)), st.VMs, 2*sim.Second, 2*gig)
		for i := range burst {
			burst[i].ID += stormIDBase * (si + 1)
			burst[i].Arrival += st.At
		}
		f.Submit(burst)
	}
	inj.Apply(ep.Schedule)

	var last reliable.Stats
	var poll func()
	poll = func() {
		if s := c.Reliable.Stats(); s != last {
			last = s
			env.MarkProgress()
		}
		if env.Now()+fleetPollEvery <= fleetHorizon {
			env.After(fleetPollEvery, poll)
		}
	}
	env.After(fleetPollEvery, poll)
	env.WatchProgress(fleetWatchdog)
	env.RunUntil(fleetHorizon)
	env.Stop()

	rt := &Runtime{
		Workload: ep.Workload,
		Stall:    env.Stalled(),
		// LiveProcs stays nil: stopping at the horizon legitimately
		// abandons in-flight probes, so a live proc is not a deadlock.
		Fabric: c.Fabric,
		Rel:    c.Reliable.Stats(),
		Fleet:  f,
	}
	return judge(rt)
}
