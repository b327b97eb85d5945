// Command fragfleet runs the fleet control plane — gang admission,
// borrow leases, reclaim-driven consolidation — over a synthetic arrival
// burst and renders the run: a sampled utilization/fragmentation
// timeline, the control-plane event log, queue-wait statistics, and the
// final stats. Output is deterministic: the same seed and flags print
// byte-identical text.
//
// Usage:
//
//	fragfleet                                # 8 nodes, 40 VMs, 60 s burst
//	fragfleet -nodes 4 -vms 20 -seed 7
//	fragfleet -reclaim-at 2@30 -policy minfrag
//	fragfleet -reclaim-at 2@30 -reclaim evict   # the eviction baseline
//	fragfleet -reclaim-at 2@30 -reclaim resize  # balloon borrowers instead
//	fragfleet -crash 1@25                       # inject a node failure
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	nodes := flag.Int("nodes", 8, "cluster size")
	cpus := flag.Int("cpus", 8, "vCPU capacity per node")
	memGiB := flag.Int64("mem", 32, "guest memory capacity per node, GiB")
	vms := flag.Int("vms", 40, "VM arrivals in the burst")
	window := flag.Float64("window", 60, "arrival window, seconds")
	until := flag.Float64("until", 120, "simulated run length, seconds")
	sample := flag.Float64("sample", 10, "timeline sampling period, seconds")
	seed := flag.Int64("seed", 42, "deterministic seed")
	policy := flag.String("policy", "minfrag", "placement policy: minfrag or minnodes")
	reclaim := flag.String("reclaim", "consolidate", "reclaim policy: consolidate, evict, or resize")
	autoReclaim := flag.Bool("auto-reclaim", true, "reclaim leases to admit otherwise-unplaceable requests")
	rebalance := flag.Float64("rebalance", 10, "consolidation tick period, seconds (0 disables)")
	reclaimAt := flag.String("reclaim-at", "", "owner-driven reclaim, node@seconds (e.g. 2@30)")
	crash := flag.String("crash", "", "inject a node crash, node@seconds (e.g. 1@25)")
	topoFlag := flag.String("topo", "", "fabric topology: flat (the default) or tree:RxN@O; a tree makes placement locality-aware (e.g. tree:2x4@4)")
	events := flag.Int("events", 20, "event-log rows to print (0 disables, -1 prints all)")
	flag.Parse()

	pol := sched.MinFrag
	switch *policy {
	case "minfrag":
	case "minnodes":
		pol = sched.MinNodes
	default:
		fmt.Fprintf(os.Stderr, "fragfleet: unknown policy %q\n", *policy)
		os.Exit(1)
	}

	spec, err := topo.ParseSpec(*topoFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fragfleet:", err)
		os.Exit(1)
	}
	if spec != nil && spec.Nodes() != 0 && *nodes > spec.Nodes() {
		fmt.Fprintf(os.Stderr, "fragfleet: %d nodes do not fit the %s topology\n", *nodes, spec)
		os.Exit(1)
	}

	env := sim.NewEnv()
	params := cluster.DefaultParams()
	params.CoresPerNode = *cpus
	params.RAMBytes = *memGiB << 30
	params.Topo = spec
	clus := cluster.New(env, *nodes, params)
	cfg := fleet.ClusterConfig(clus, pol)
	if spec != nil {
		cfg.Distance = spec.Distance
	}
	cfg.AutoReclaim = *autoReclaim
	cfg.RebalanceEvery = sim.FromSeconds(*rebalance)
	cfg.Horizon = sim.FromSeconds(*until)
	switch *reclaim {
	case "consolidate":
	case "evict":
		cfg.Reclaim = fleet.ReclaimEvict
	case "resize":
		cfg.Reclaim = fleet.ReclaimResize
	default:
		fmt.Fprintf(os.Stderr, "fragfleet: unknown reclaim policy %q\n", *reclaim)
		os.Exit(1)
	}
	if *crash != "" {
		cfg.Fault = fault.New(clus)
		cfg.HeartbeatEvery = 100 * sim.Millisecond
	}
	f := fleet.New(env, cfg)

	f.Submit(fleet.GenerateBurst(rand.New(rand.NewSource(*seed)), *vms,
		sim.FromSeconds(*window), 2<<30))
	if node, at, ok := parseAt(*reclaimAt); ok {
		env.At(at, func() { f.Reclaim(node) })
	} else if *reclaimAt != "" {
		fmt.Fprintf(os.Stderr, "fragfleet: bad -reclaim-at %q, want node@seconds\n", *reclaimAt)
		os.Exit(1)
	}
	if node, at, ok := parseAt(*crash); ok {
		var sch fault.Schedule
		sch.Add(fault.Event{At: at, Kind: fault.CrashNode, Node: node})
		cfg.Fault.Apply(sch)
	} else if *crash != "" {
		fmt.Fprintf(os.Stderr, "fragfleet: bad -crash %q, want node@seconds\n", *crash)
		os.Exit(1)
	}

	// Sample the fleet on a fixed grid while the simulation runs.
	var snaps []fleet.Snapshot
	for t := sim.FromSeconds(*sample); t <= sim.FromSeconds(*until); t += sim.FromSeconds(*sample) {
		env.At(t-1, func() { snaps = append(snaps, f.Snapshot()) })
	}
	env.RunUntil(sim.FromSeconds(*until))
	env.Stop()
	f.Verify()

	timeline := metrics.NewTable("Fleet timeline",
		"t", "util", "used/total-cpu", "frag-nodes", "leases", "queue", "running", "down")
	for _, s := range snaps {
		timeline.AddRow(s.T, s.Utilization, fmt.Sprintf("%d/%d", s.UsedCPU, s.TotalCPU),
			s.Frags, s.Leases, s.QueueLen, s.Running, s.DownNodes)
	}
	timeline.Fprint(os.Stdout)
	fmt.Println()

	log := f.Events()
	counts := map[string]int{}
	for _, e := range log {
		counts[e.Kind]++
	}
	evtab := metrics.NewTable("Fleet events", "kind", "count")
	var kinds []string
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		evtab.AddRow(k, counts[k])
	}
	evtab.Fprint(os.Stdout)
	fmt.Println()

	if *events != 0 {
		n := *events
		if n < 0 || n > len(log) {
			n = len(log)
		}
		fmt.Printf("-- last %d of %d events --\n", n, len(log))
		for _, e := range log[len(log)-n:] {
			fmt.Println(renderEvent(e))
		}
		fmt.Println()
	}

	waits := metrics.NewTable("Queue waits", "n", "mean", "p50", "p95", "max")
	w := metrics.Summarize(f.QueueWaits())
	waits.AddRow(w.N, w.Mean, w.P50, w.P95, w.Max)
	st := f.Stats()
	waits.AddNote("admitted %d (%d single-node, %d gangs), %d queued, max queue %d, %d requeues",
		st.Admitted, st.SingleNode, st.Gangs, st.Queued, st.MaxQueue, st.Requeues)
	waits.AddNote("leases %d, reclaims %d (%d deferred), evictions %d, migrations %d, rebalances %d, handbacks %d",
		st.Leases, st.Reclaims, st.ReclaimsDeferred, st.Evictions, st.Migrations, st.Rebalances, st.Handbacks)
	if st.Inflations > 0 || st.Deflations > 0 {
		waits.AddNote("balloon: %d inflations (%d vCPUs), %d deflations (%d vCPUs), %.3f ballooned cpu-sec, mean slowdown %.3f",
			st.Inflations, st.InflatedVCPUs, st.Deflations, st.DeflatedVCPUs,
			float64(st.BalloonedTime)/float64(sim.Second), st.MeanSlowdown())
	}
	if st.NodeFailures > 0 {
		waits.AddNote("node failures %d, fragment restarts %d", st.NodeFailures, st.Restarts)
	}
	if spec != nil {
		waits.AddNote("topology %s: %d rack-local gangs, %d cross-spine", spec, st.LocalGangs, st.CrossGangs)
	}
	waits.Fprint(os.Stdout)
}

// parseAt parses "node@seconds".
func parseAt(s string) (node int, at sim.Time, ok bool) {
	if s == "" {
		return 0, 0, false
	}
	parts := strings.SplitN(s, "@", 2)
	if len(parts) != 2 {
		return 0, 0, false
	}
	var sec float64
	if _, err := fmt.Sscanf(parts[0], "%d", &node); err != nil {
		return 0, 0, false
	}
	if _, err := fmt.Sscanf(parts[1], "%g", &sec); err != nil {
		return 0, 0, false
	}
	return node, sim.FromSeconds(sec), true
}

// renderEvent formats one control-plane event for the log listing.
func renderEvent(e fleet.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%14v  %-13s", e.T, e.Kind)
	if e.VM >= 0 {
		fmt.Fprintf(&b, " vm=%d", e.VM)
	}
	if e.From >= 0 {
		fmt.Fprintf(&b, " from=n%d", e.From)
	}
	if e.To >= 0 {
		fmt.Fprintf(&b, " to=n%d", e.To)
	}
	if e.N > 0 {
		fmt.Fprintf(&b, " vcpus=%d", e.N)
	}
	if e.Lease >= 0 {
		fmt.Fprintf(&b, " lease=%d", e.Lease)
	}
	return b.String()
}
