package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

func init() {
	register("fleetsoak", func(o Options) *metrics.Table {
		return fleetSoak(o, fleet.ReclaimConsolidate, false)
	})
	register("fleetsoak-evict", func(o Options) *metrics.Table {
		return fleetSoak(o, fleet.ReclaimEvict, false)
	})
	register("fleetsoak-resize", func(o Options) *metrics.Table {
		return fleetSoak(o, fleet.ReclaimResize, false)
	})
	register("fleetchurn", func(o Options) *metrics.Table {
		return fleetSoak(o, fleet.ReclaimConsolidate, true)
	})
}

// fleetSoak is the seed-sensitive fleet scenario the sweep engine runs
// in distribution: a randomized burst of VM arrivals (sized by Scale)
// through the control plane with auto-reclaim, periodic consolidation
// and owner-driven reclaims, under the chosen reclaim policy. With
// churn, a seeded node crash and heal additionally exercise the failure
// paths: fragment restart on survivors, whole-VM requeue when the
// survivors are full, and capacity handback when the node returns.
//
// Unlike the figure runners (which pin every arrival), each seed is one
// draw from the scenario distribution, so a multi-seed sweep over this
// runner reports the spread the paper's point estimates hide. Every run
// ends with the capacity/lease invariant verifier.
func fleetSoak(o Options, pol fleet.ReclaimPolicy, churn bool) *metrics.Table {
	const (
		gig     = int64(1) << 30
		nodes   = 4
		window  = 60 * sim.Second
		horizon = 240 * sim.Second
	)
	kind := map[fleet.ReclaimPolicy]string{
		fleet.ReclaimConsolidate: "fleetsoak", fleet.ReclaimEvict: "fleetsoak-evict",
		fleet.ReclaimResize: "fleetsoak-resize"}[pol]
	if churn {
		kind = "fleetchurn"
	}

	env := o.newEnv(fmt.Sprintf("%s/seed%d", kind, o.Seed))
	c := o.observe(kind, o.newCluster(env, nodes))
	cfg := fleet.ClusterConfig(c, sched.MinFrag)
	cfg.Reclaim = pol
	cfg.AutoReclaim = true
	cfg.RebalanceEvery = 5 * sim.Second
	cfg.Horizon = horizon

	var inj *fault.Injector
	if churn {
		inj = fault.New(c)
		cfg.HeartbeatEvery = 500 * sim.Millisecond
	}
	f := fleet.New(env, cfg)

	rng := rand.New(rand.NewSource(o.Seed))
	if churn {
		// Anchors pin three of the four nodes with full-node VMs so a
		// crash always displaces more vCPUs than the survivors can absorb
		// — the requeue path — while burst fragments small enough to fit
		// restart in place.
		f.Submit([]fleet.Request{
			{ID: 9001, VCPUs: cfg.CPUsPerNode, MemBytes: 8 * gig, Arrival: 0, Duration: horizon},
			{ID: 9002, VCPUs: cfg.CPUsPerNode, MemBytes: 8 * gig, Arrival: 1, Duration: horizon},
			{ID: 9003, VCPUs: cfg.CPUsPerNode, MemBytes: 8 * gig, Arrival: 2, Duration: horizon},
		})
	}
	n := int(300 * o.Scale)
	if n < 6 {
		n = 6
	}
	f.Submit(fleet.GenerateBurst(rng, n, window, 2*gig))

	// Owner-driven reclaims at seeded times stress the lease machinery
	// under both policies.
	for i := 0; i < 6; i++ {
		at := sim.Time(1+rng.Intn(150)) * sim.Second
		node := rng.Intn(nodes)
		env.DeferAt(at, func() { f.Reclaim(node) })
	}

	if churn {
		// One crash/heal cycle at seeded times on a seeded anchor node:
		// node 1 or 2, since node 0 hosts the controller.
		crashAt := sim.Time(80+rng.Intn(40)) * sim.Second
		healAt := crashAt + sim.Time(40+rng.Intn(30))*sim.Second
		victim := 1 + rng.Intn(2)
		var sch fault.Schedule
		sch.Add(fault.Event{At: crashAt, Kind: fault.CrashNode, Node: victim})
		sch.Add(fault.Event{At: healAt, Kind: fault.HealNode, Node: victim})
		inj.Apply(sch)
	}

	env.RunUntil(horizon)
	env.Stop()
	f.Verify()

	st := f.Stats()
	ws := metrics.Summarize(f.QueueWaits())
	snap := f.Snapshot()
	t := metrics.NewTable(fmt.Sprintf("Fleet soak (%s policy=%s seed=%d, %d burst VMs)",
		kind, cfg.Reclaim, o.Seed, n),
		"stat", "value")
	t.AddRow("admitted", float64(st.Admitted))
	t.AddRow("gangs", float64(st.Gangs))
	t.AddRow("queued", float64(st.Queued))
	t.AddRow("max_queue", float64(st.MaxQueue))
	t.AddRow("leases", float64(st.Leases))
	t.AddRow("reclaims", float64(st.Reclaims))
	t.AddRow("reclaims_deferred", float64(st.ReclaimsDeferred))
	t.AddRow("evictions", float64(st.Evictions))
	t.AddRow("migrations", float64(st.Migrations))
	t.AddRow("rebalances", float64(st.Rebalances))
	t.AddRow("handbacks", float64(st.Handbacks))
	nodeUps := 0
	for _, ev := range f.Events() {
		if ev.Kind == "node-up" {
			nodeUps++
		}
	}
	t.AddRow("node_failures", float64(st.NodeFailures))
	t.AddRow("node_ups", float64(nodeUps))
	t.AddRow("restarts", float64(st.Restarts))
	t.AddRow("requeues", float64(st.Requeues))
	t.AddRow("inflations", float64(st.Inflations))
	t.AddRow("deflations", float64(st.Deflations))
	t.AddRow("ballooned_cpu_sec", float64(st.BalloonedTime)/float64(sim.Second))
	t.AddRow("slowdown_mean", st.MeanSlowdown())
	t.AddRow("wait_mean_s", ws.Mean.Seconds())
	t.AddRow("wait_p95_s", ws.P95.Seconds())
	t.AddRow("final_util", snap.Utilization)
	t.AddNote("capacity/lease invariant verified at quiescence; events=%d", len(f.Events()))
	return t
}
