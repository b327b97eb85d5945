package fleet

import (
	"encoding/json"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/sched"
	"repro/internal/sim"
)

const gig = int64(1) << 30

func newFleet(t *testing.T, cfg Config) (*sim.Env, *Fleet) {
	t.Helper()
	env := sim.NewEnv()
	return env, New(env, cfg)
}

func TestSingleNodeAdmission(t *testing.T) {
	env, f := newFleet(t, Config{Nodes: 4, CPUsPerNode: 8, MemPerNode: 32 * gig, Policy: sched.MinFrag})
	f.Submit([]Request{{ID: 1, VCPUs: 4, MemBytes: 8 * gig, Arrival: 0, Duration: sim.Second}})
	env.RunUntil(1)
	pl := f.PlacementOf(1)
	if len(pl) != 1 || pl[0] != 4 {
		t.Fatalf("placement = %v, want 4 vCPUs on node 0", pl)
	}
	if got := f.Stats().SingleNode; got != 1 {
		t.Fatalf("single-node placements = %d", got)
	}
	f.Verify()
}

func TestGangPlacementGrantsLeases(t *testing.T) {
	env, f := newFleet(t, Config{Nodes: 2, CPUsPerNode: 4, MemPerNode: 8 * gig, Policy: sched.MinNodes})
	f.Submit([]Request{
		{ID: 1, VCPUs: 3, MemBytes: gig, Arrival: 0, Duration: 10 * sim.Second},
		{ID: 2, VCPUs: 3, MemBytes: gig, Arrival: 0, Duration: 10 * sim.Second},
		// 1 CPU free per node: only a gang placement fits.
		{ID: 3, VCPUs: 2, MemBytes: gig, Arrival: 1, Duration: 10 * sim.Second},
	})
	env.RunUntil(2)
	pl := f.PlacementOf(3)
	if len(pl) != 2 || pl[0] != 1 || pl[1] != 1 {
		t.Fatalf("placement of VM3 = %v, want 1+1", pl)
	}
	if f.Stats().Gangs != 1 {
		t.Fatalf("gangs = %d, want 1", f.Stats().Gangs)
	}
	// Exactly one lease: the non-home fragment.
	var active []Lease
	for _, l := range f.Leases() {
		if l.State == LeaseActive {
			active = append(active, l)
		}
	}
	if len(active) != 1 || active[0].VM != 3 || active[0].Node != 1 {
		t.Fatalf("active leases = %+v, want one for VM3 on node 1", active)
	}
	f.Verify()
}

func TestConsolidationOnDeparture(t *testing.T) {
	env, f := newFleet(t, Config{Nodes: 2, CPUsPerNode: 4, MemPerNode: 8 * gig, Policy: sched.MinNodes})
	f.Submit([]Request{
		{ID: 1, VCPUs: 3, MemBytes: gig, Arrival: 0, Duration: 5 * sim.Second},  // node 0
		{ID: 2, VCPUs: 3, MemBytes: gig, Arrival: 0, Duration: 60 * sim.Second}, // node 1
		{ID: 3, VCPUs: 2, MemBytes: gig, Arrival: 1, Duration: 60 * sim.Second}, // gang 1+1
	})
	env.Run()
	// When VM1 departs (t=5s), its node has 3 free CPUs: VM3's node-1
	// vCPU must consolidate there, and VM3 is handed back to best fit.
	var migrated, handedBack bool
	for _, e := range f.Events() {
		switch {
		case e.Kind == "migrate" && e.VM == 3 && e.T == 5*sim.Second:
			migrated = e.From == 1 && e.To == 0 && e.N == 1
		case e.Kind == "handback" && e.VM == 3:
			handedBack = migrated && e.To == 0
		}
	}
	if !migrated || !handedBack {
		t.Fatalf("missing migrate 1->0 then handback for VM3 at VM1's departure (migrate=%v handback=%v): %+v",
			migrated, handedBack, f.Events())
	}
	if st := f.Stats(); st.Migrations != 1 || st.Handbacks != 1 {
		t.Fatalf("stats = %+v, want 1 migration and 1 handback", st)
	}
	f.Verify()
}

func TestFragBFFPlacesMoreThanBFFAlone(t *testing.T) {
	// The reason FragBFF exists: on a fragmented cluster it places VMs
	// plain BFF must delay.
	env, f := newFleet(t, Config{Nodes: 4, CPUsPerNode: 12, MemPerNode: 64 * gig, Policy: sched.MinFrag})
	f.Submit(GenerateBurst(rand.New(rand.NewSource(7)), 100, 30*sim.Second, gig))
	env.Run()
	st := f.Stats()
	if st.Gangs == 0 {
		t.Fatal("burst produced no gang placements — trace too easy")
	}
	if st.Admitted != 100 {
		t.Fatalf("admitted %d of 100", st.Admitted)
	}
	f.Verify()
}

func TestGenerateBurstShape(t *testing.T) {
	reqs := GenerateBurst(rand.New(rand.NewSource(1)), 200, 60*sim.Second, gig)
	if len(reqs) != 200 {
		t.Fatalf("got %d requests", len(reqs))
	}
	small := 0
	for i, r := range reqs {
		if r.VCPUs < 1 || r.VCPUs > 12 || r.Duration <= 0 || r.MemBytes != int64(r.VCPUs)*gig ||
			r.Priority < Batch || r.Priority > Critical {
			t.Fatalf("bad request %+v", r)
		}
		if r.VCPUs <= 2 {
			small++
		}
		if i > 0 && reqs[i].Arrival < reqs[i-1].Arrival {
			t.Fatal("arrivals not sorted")
		}
	}
	// Azure-like: most VMs are small.
	if small < 80 {
		t.Fatalf("only %d/200 small VMs", small)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{{}, {Nodes: 2, CPUsPerNode: 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(sim.NewEnv(), cfg)
		}()
	}
}

func TestMemoryConstrainedPlacement(t *testing.T) {
	// Plenty of CPUs but memory forces fragmentation: an 8-vCPU/8-GiB
	// request cannot fit one node's 4 GiB.
	env, f := newFleet(t, Config{Nodes: 2, CPUsPerNode: 8, MemPerNode: 4 * gig, Policy: sched.MinNodes})
	f.Submit([]Request{{ID: 1, VCPUs: 8, MemBytes: 8 * gig, Arrival: 0, Duration: sim.Second}})
	env.RunUntil(1)
	pl := f.PlacementOf(1)
	if len(pl) != 2 || pl[0] != 4 || pl[1] != 4 {
		t.Fatalf("placement = %v, want 4+4 forced by memory", pl)
	}
	f.Verify()
}

func TestPriorityQueueOrdering(t *testing.T) {
	env, f := newFleet(t, Config{Nodes: 1, CPUsPerNode: 4, MemPerNode: 8 * gig, Policy: sched.MinFrag})
	f.Submit([]Request{
		{ID: 1, VCPUs: 4, MemBytes: gig, Arrival: 0, Duration: 2 * sim.Second},
		// Both wait; the later-arriving Critical one must win the free slot.
		{ID: 2, VCPUs: 4, MemBytes: gig, Priority: Batch, Arrival: 1, Duration: sim.Second},
		{ID: 3, VCPUs: 4, MemBytes: gig, Priority: Critical, Arrival: 2, Duration: sim.Second},
	})
	env.RunUntil(2*sim.Second + sim.Millisecond)
	if f.PlacementOf(3) == nil {
		t.Fatal("critical request not admitted first")
	}
	if f.PlacementOf(2) != nil {
		t.Fatal("batch request jumped the critical one")
	}
	if f.Stats().Queued != 2 || f.Stats().MaxQueue != 2 {
		t.Fatalf("queue stats = %+v", f.Stats())
	}
	f.Verify()
}

// TestEnqueueMatchesStableSort pushes random requests through enqueue and
// checks the queue after every insert against a stable sort of the same
// requests by (priority desc, arrival asc, ID asc). Few distinct
// priorities and arrivals make ties on the first two keys common.
func TestEnqueueMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		_, f := newFleet(t, Config{Nodes: 1, CPUsPerNode: 4, MemPerNode: 8 * gig, Policy: sched.MinFrag})
		var ref []Request
		for _, id := range rng.Perm(1 + rng.Intn(40)) {
			r := Request{ID: id, VCPUs: 1, Priority: Class(rng.Intn(3)), Arrival: sim.Time(rng.Intn(4))}
			f.enqueue(r)
			ref = append(ref, r)
			sort.SliceStable(ref, func(i, j int) bool {
				a, b := ref[i], ref[j]
				if a.Priority != b.Priority {
					return a.Priority > b.Priority
				}
				if a.Arrival != b.Arrival {
					return a.Arrival < b.Arrival
				}
				return a.ID < b.ID
			})
			if !reflect.DeepEqual(f.waiting, ref) {
				t.Fatalf("trial %d: queue after enqueueing %+v\n got %+v\nwant %+v", trial, r, f.waiting, ref)
			}
		}
	}
}

// reclaimTrace is the shared arrival trace for the reclaim-vs-evict
// acceptance scenario: three loaded nodes, then VM 4 gang-places 2+2
// across nodes 0 and 1 (home node 0, borrow lease on node 1), and VM 3
// departs early so node 2 has room when node 1's owner reclaims.
func reclaimTrace() []Request {
	return []Request{
		{ID: 1, VCPUs: 6, MemBytes: 6 * gig, Arrival: 0, Duration: 200 * sim.Second},
		{ID: 2, VCPUs: 6, MemBytes: 6 * gig, Arrival: 1, Duration: 200 * sim.Second},
		{ID: 3, VCPUs: 6, MemBytes: 6 * gig, Arrival: 2, Duration: 5 * sim.Second},
		{ID: 4, VCPUs: 4, MemBytes: 2 * gig, Arrival: 3, Duration: 200 * sim.Second},
	}
}

// TestReclaimConsolidatesNotEvicts is the acceptance scenario: the same
// arrival trace and the same owner-driven reclaim event, under both
// policies. Consolidation resolves the reclaim by migrating the
// borrower's vCPUs (zero evictions); the capacity-identical evict
// baseline kills the borrower.
func TestReclaimConsolidatesNotEvicts(t *testing.T) {
	run := func(pol ReclaimPolicy) *Fleet {
		env := sim.NewEnv()
		f := New(env, Config{
			Nodes: 3, CPUsPerNode: 8, MemPerNode: 32 * gig,
			Policy: sched.MinFrag, Reclaim: pol,
		})
		f.Submit(reclaimTrace())
		env.At(10*sim.Second, func() { f.Reclaim(1) })
		env.RunUntil(20 * sim.Second) // after the reclaim, before departures
		f.Verify()
		return f
	}

	cons := run(ReclaimConsolidate)
	evic := run(ReclaimEvict)

	// Consolidation: the borrower survives, its node-1 fragment moved by
	// migration, zero evictions.
	if pl := cons.PlacementOf(4); pl == nil || pl[1] != 0 {
		t.Fatalf("consolidate: borrower placement = %v, want alive and off node 1", cons.PlacementOf(4))
	}
	if got := cons.Stats().Evictions; got != 0 {
		t.Fatalf("consolidate: evictions = %d, want 0", got)
	}
	if cons.Stats().Reclaims != 1 || cons.Stats().Migrations == 0 {
		t.Fatalf("consolidate: reclaim did not resolve by migration: %+v", cons.Stats())
	}
	var sawMigrate, sawDone bool
	for _, e := range cons.Events() {
		if e.Kind == "migrate" && e.VM == 4 && e.From == 1 {
			sawMigrate = true
		}
		if e.Kind == "reclaim-done" && e.VM == 4 {
			sawDone = true
		}
	}
	if !sawMigrate || !sawDone {
		t.Fatalf("consolidate: missing migrate/reclaim-done events (migrate=%v done=%v)", sawMigrate, sawDone)
	}

	// Evict baseline: same trace, same reclaim — the borrower dies.
	if evic.PlacementOf(4) != nil {
		t.Fatal("evict: borrower survived under evict policy")
	}
	if got := evic.Stats().Evictions; got < 1 {
		t.Fatalf("evict: evictions = %d, want >= 1", got)
	}
}

func TestExplicitReclaimDefersUnderPressure(t *testing.T) {
	// Fleet completely full: reclaim cannot relocate, the lease parks in
	// LeaseReclaiming, and the retry fires when capacity frees.
	env, f := newFleet(t, Config{Nodes: 2, CPUsPerNode: 4, MemPerNode: 8 * gig, Policy: sched.MinFrag})
	f.Submit([]Request{
		{ID: 1, VCPUs: 3, MemBytes: gig, Arrival: 0, Duration: 10 * sim.Second},
		{ID: 2, VCPUs: 3, MemBytes: gig, Arrival: 0, Duration: 5 * sim.Second},
		{ID: 3, VCPUs: 2, MemBytes: gig, Arrival: 1, Duration: 20 * sim.Second}, // gang 1+1
	})
	env.At(2*sim.Second, func() { f.Reclaim(1) })
	env.RunUntil(30 * sim.Second)
	st := f.Stats()
	if st.ReclaimsDeferred != 1 {
		t.Fatalf("deferred reclaims = %d, want 1 (full fleet)", st.ReclaimsDeferred)
	}
	if st.Reclaims != 1 {
		t.Fatalf("reclaims = %d, want 1 (retried once capacity freed)", st.Reclaims)
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", st.Evictions)
	}
	f.Verify()
}

func TestNodeFailureRestartsFragments(t *testing.T) {
	env := sim.NewEnv()
	c := cluster.NewDefault(env, 3) // 8 cores / 32 GiB per node
	inj := fault.New(c)
	cfg := ClusterConfig(c, sched.MinFrag)
	cfg.Fault = inj
	cfg.HeartbeatEvery = 100 * sim.Millisecond
	cfg.Horizon = 40 * sim.Second
	f := New(env, cfg)
	f.Submit([]Request{
		{ID: 1, VCPUs: 6, MemBytes: 4 * gig, Arrival: 0, Duration: 30 * sim.Second},
		{ID: 2, VCPUs: 6, MemBytes: 4 * gig, Arrival: 1, Duration: 30 * sim.Second},
		{ID: 3, VCPUs: 6, MemBytes: 4 * gig, Arrival: 2, Duration: 30 * sim.Second},
		{ID: 4, VCPUs: 4, MemBytes: 2 * gig, Arrival: 3, Duration: 30 * sim.Second}, // gang 2+2 on nodes 0,1
	})
	var sch fault.Schedule
	sch.Add(fault.Event{At: 10 * sim.Second, Kind: fault.CrashNode, Node: 1})
	inj.Apply(sch)
	env.RunUntil(20 * sim.Second)
	st := f.Stats()
	if st.NodeFailures != 1 {
		t.Fatalf("node failures = %d, want 1", st.NodeFailures)
	}
	// Every fragment that was on node 1 must have moved or requeued.
	for id := 1; id <= 4; id++ {
		if pl := f.PlacementOf(id); pl != nil && pl[1] > 0 {
			t.Fatalf("VM %d still places on crashed node: %v", id, pl)
		}
	}
	// VM 4's lost fragment fits node 2's spare capacity; VM 2 (a whole
	// node's worth) cannot and returns to the queue.
	if st.Restarts == 0 {
		t.Fatalf("no fragment restart recorded: %+v", st)
	}
	if st.Requeues == 0 {
		t.Fatalf("no requeue recorded: %+v", st)
	}
	f.Verify()
}

// TestLinkCutNodeDownAndRejoin is the partition-blindness regression:
// a node whose host links are cut never crashes, but the quorum
// reachability view must still declare it down — fragments restart on
// the survivors exactly like a crash — and when the link heals the node
// must rejoin and serve placements again.
func TestLinkCutNodeDownAndRejoin(t *testing.T) {
	env := sim.NewEnv()
	c := cluster.NewDefault(env, 3)
	inj := fault.New(c)
	cfg := ClusterConfig(c, sched.MinFrag)
	cfg.Fault = inj
	cfg.HeartbeatEvery = 100 * sim.Millisecond
	cfg.Horizon = 60 * sim.Second
	f := New(env, cfg)
	f.Submit([]Request{
		{ID: 1, VCPUs: 6, MemBytes: 4 * gig, Arrival: 0, Duration: 30 * sim.Second},
		{ID: 2, VCPUs: 4, MemBytes: 2 * gig, Arrival: 1, Duration: 30 * sim.Second},
		// Arrives while node 1 is down, sized so it needs the healed
		// node: 3 nodes × 8 cores, VMs 1+2 hold 10, this wants 12.
		{ID: 3, VCPUs: 12, MemBytes: 4 * gig, Arrival: 15 * sim.Second, Duration: 10 * sim.Second},
	})
	var sch fault.Schedule
	sch.Add(fault.Event{At: 10 * sim.Second, Kind: fault.CutLink, Link: "n1"})
	sch.Add(fault.Event{At: 20 * sim.Second, Kind: fault.HealLink, Link: "n1"})
	inj.Apply(sch)
	// Stop mid-flight, after the heal admits VM 3 but before it finishes.
	env.RunUntil(25 * sim.Second)

	st := f.Stats()
	if st.NodeFailures != 1 {
		t.Fatalf("node failures = %d, want 1 (link cut must count like a crash)", st.NodeFailures)
	}
	if inj.NodeAlive(1) == false {
		t.Fatal("cut node must never be marked crashed")
	}
	var downs, ups int
	for _, ev := range f.Events() {
		switch ev.Kind {
		case "node-down":
			downs++
		case "node-up":
			ups++
		}
	}
	if downs != 1 || ups != 1 {
		t.Fatalf("saw %d node-down / %d node-up events, want 1 each", downs, ups)
	}
	// The healed node is back in service: the VM that could only fit
	// with node 1's capacity must be running on it.
	if pl := f.PlacementOf(3); pl == nil || pl[1] == 0 {
		t.Fatalf("post-heal VM not placed on the rejoined node: %v", pl)
	}
	f.Verify()
}

// TestSameSeedIdenticalEventLog pins the structured event log of a
// 60-VM auto-reclaim burst, one event per line of
// testdata/burst_events.json.
func TestSameSeedIdenticalEventLog(t *testing.T) {
	env := sim.NewEnv()
	f := New(env, Config{
		Nodes: 4, CPUsPerNode: 8, MemPerNode: 32 * gig,
		Policy: sched.MinFrag, AutoReclaim: true,
		RebalanceEvery: 5 * sim.Second, Horizon: 120 * sim.Second,
	})
	f.Submit(GenerateBurst(rand.New(rand.NewSource(7)), 60, 60*sim.Second, 2*gig))
	env.RunUntil(120 * sim.Second)
	f.Verify()
	b := []byte("[")
	for i, e := range f.Events() {
		if i > 0 {
			b = append(b, ",\n "...)
		}
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, line...)
	}
	golden.Check(t, filepath.Join("testdata", "burst_events.json"), append(b, "]\n"...))
}
