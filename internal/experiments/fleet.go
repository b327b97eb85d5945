package experiments

import (
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

func init() { register("fleet", FleetScenario) }

// FleetScenario drives the fleet control plane (§7.3 taken to its
// conclusion: a long-running cluster orchestrator built on FragBFF) through
// reclaim-vs-evict: on a 3-node scenario where a lender node reclaims its
// lent capacity, the consolidating control plane resolves the reclaim with
// a vCPU migration and zero evictions, while the capacity-identical
// evict-policy baseline kills the borrower. One row per reclaim policy,
// both from the same trace.
func FleetScenario(o Options) *metrics.Table {
	ts := func(seconds float64) sim.Time { return sim.FromSeconds(seconds * o.Scale * 10) }
	t := metrics.NewTable("Fleet control plane: reclaim-vs-evict",
		"policy", "reclaims", "migrations", "evictions")
	for _, pol := range []fleet.ReclaimPolicy{fleet.ReclaimConsolidate, fleet.ReclaimEvict} {
		st := runReclaimScenario(o, pol, ts)
		t.AddRow(pol.String(), st.Reclaims, st.Migrations, st.Evictions)
	}
	t.AddNote("paper's argument: the lender gets its capacity back either way; only the evict baseline kills the borrower")
	return t
}

// runReclaimScenario is the shared reclaim trace: three nodes nearly
// full, a 4-vCPU VM gang-placed 2+2 with a borrow lease on node 1, an
// early departure opening room on node 2, then node 1 reclaims.
func runReclaimScenario(o Options, pol fleet.ReclaimPolicy, ts func(float64) sim.Time) fleet.Stats {
	env := o.newEnv("fleet/reclaim-" + pol.String())
	f := fleet.New(env, fleet.Config{
		Nodes: 3, CPUsPerNode: 8, MemPerNode: 32 << 30,
		Policy: sched.MinFrag, Reclaim: pol, Horizon: ts(400),
	})
	f.Submit([]fleet.Request{
		{ID: 1, VCPUs: 6, MemBytes: 6 << 30, Arrival: 0, Duration: ts(400)},
		{ID: 2, VCPUs: 6, MemBytes: 6 << 30, Arrival: 1, Duration: ts(400)},
		{ID: 3, VCPUs: 6, MemBytes: 6 << 30, Arrival: 2, Duration: ts(100)},
		{ID: 4, VCPUs: 4, MemBytes: 2 << 30, Arrival: 3, Duration: ts(400)},
	})
	env.DeferAt(ts(300), func() { f.Reclaim(1) })
	env.RunUntil(ts(350))
	env.Stop()
	f.Verify()
	return f.Stats()
}
