// Package fleet is the long-running cluster control plane of the
// FragVisor reproduction: the standing manager the paper sketches in §7 —
// instead of reducing or evicting a VM when its node runs short, capacity
// is borrowed from other nodes and later *reclaimed* by migrating the
// borrower's vCPUs, never by killing it.
//
// The fleet is the repository's one scheduler: the paper's FragBFF (§6.5)
// run over time on books that track both CPUs and memory; Fig 14 runs on
// it. Its concerns:
//
//   - Gang admission. An arriving VM asks for vCPUs AND guest memory; the
//     fleet places it on one node (best fit) or all-or-nothing across
//     fragments of several nodes (an Aggregate VM). Requests that cannot
//     be satisfied wait in a priority queue (Critical > Standard > Batch)
//     whose length and waiting times are the backpressure signal.
//   - Consolidation. Every capacity change (a departure, a reclaim)
//     replays FragBFF's consolidation pass (sched.Planner) over the
//     multi-node VMs, and a VM that lands on one node is handed back to
//     plain best fit. Bind couples a live Aggregate VM to its fleet VM:
//     each committed move of a bound VM queues its live migration, onto
//     the VM's own live slices only, and one fleet-live proc runs the
//     queue in commit order.
//   - Borrow leases. Every non-home fragment of an Aggregate VM is a
//     first-class lease of the lender node's capacity. The lender can
//     reclaim: under ReclaimConsolidate the borrower's vCPUs migrate to
//     other capacity (the paper's core claim — zero evictions); under
//     ReclaimEvict (the baseline every other cluster manager implements)
//     the borrower dies.
//   - Background rebalancing. An optional periodic tick runs the same
//     consolidation pass over the whole fleet to shrink fragmentation,
//     then admits and re-inflates into what it freed. The pass reads no
//     clock or RNG, so once a pass changes nothing the tick sleeps: it
//     schedules nothing until the books change, then wakes on its own
//     grid of period instants.
//   - Failure handling. A heartbeat tick probes every node over the
//     cluster fabric; when a node stops answering, fragments hosted there
//     are re-placed on survivors, and VMs bound to a live Aggregate VM
//     are restarted on their surviving slices, with a checkpoint restore
//     (internal/checkpoint) queued behind their earlier moves.
//
// Everything runs on the deterministic DES core: the same (config, trace,
// seed) triple replays bit-identically, including the event log, which
// tests compare across runs. Every placement decision is one of
// internal/sched's pure functions (BestFit, FragPlacement,
// Planner.Moves) applied to the fleet's books.
package fleet

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Class is an admission priority class.
type Class int

// Priority classes, lowest first.
const (
	Batch Class = iota
	Standard
	Critical
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Batch:
		return "batch"
	case Standard:
		return "standard"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ReclaimPolicy selects what happens to borrowers when a lender wants its
// capacity back.
type ReclaimPolicy int

const (
	// ReclaimConsolidate migrates the borrower's vCPUs to other capacity;
	// the borrower keeps running (the paper's answer).
	ReclaimConsolidate ReclaimPolicy = iota
	// ReclaimEvict kills the borrower — the baseline cluster managers
	// implement today.
	ReclaimEvict
	// ReclaimResize balloons the borrower down: the leased fragment is
	// surrendered back to the lender and the VM keeps running on less
	// than it was provisioned, at proportionally reduced speed, until
	// free capacity lets the fleet re-inflate it. The paper's "reduce"
	// baseline (see internal/balloon).
	ReclaimResize
)

// String names the policy.
func (r ReclaimPolicy) String() string {
	switch r {
	case ReclaimConsolidate:
		return "consolidate"
	case ReclaimEvict:
		return "evict"
	case ReclaimResize:
		return "resize"
	default:
		return fmt.Sprintf("reclaim(%d)", int(r))
	}
}

// Policies lists every reclaim policy in comparison-table order.
func Policies() []ReclaimPolicy {
	return []ReclaimPolicy{ReclaimConsolidate, ReclaimEvict, ReclaimResize}
}

// Request is one VM arrival: a gang of vCPUs plus guest memory that must
// be placed all-or-nothing.
type Request struct {
	ID       int
	VCPUs    int
	MemBytes int64
	Priority Class
	Arrival  sim.Time
	Duration sim.Time // 0 = runs until evicted or the simulation ends
}

// memPerCPU is the per-vCPU memory quantum a request is accounted at:
// guest memory is charged to fragments proportionally to their vCPUs,
// rounded up to this quantum so accounting stays integral.
func (r Request) memPerCPU() int64 {
	if r.VCPUs <= 0 || r.MemBytes <= 0 {
		return 0
	}
	return (r.MemBytes + int64(r.VCPUs) - 1) / int64(r.VCPUs)
}

// Event is one control-plane decision, for timelines and tests.
type Event struct {
	T     sim.Time
	Kind  string // admit|gang|queue|dequeue|lease|release|reclaim|reclaim-done|reclaim-defer|evict|migrate|rebalance|handback|node-down|node-up|restart|requeue|finish|inflate|deflate
	VM    int    // -1 when not about a VM
	From  int    // source node (-1 if n/a)
	To    int    // destination/subject node (-1 if n/a)
	N     int    // vCPUs involved
	Lease int    // lease id (-1 if n/a)
}

// Config sizes the managed fleet.
type Config struct {
	Nodes       int
	CPUsPerNode int
	MemPerNode  int64
	Policy      sched.Policy  // fragment-placement objective (FragBFF)
	Reclaim     ReclaimPolicy // what reclaim does to borrowers
	// AutoReclaim lets admission trigger reclaims: when a request fits no
	// node but a lender's lent capacity would complete one, the lender
	// reclaims every lease the way Reclaim does (consolidating, evicting
	// or ballooning the borrowers per Reclaim; a borrower bound to a live
	// VM is consolidated under ReclaimResize) and the request is placed
	// there. A lender whose borrowers cannot all be moved is left alone.
	AutoReclaim bool
	// RebalanceEvery runs the consolidation pass periodically as well
	// (0 = only on capacity changes, FragBFF's behavior and Fig 14's
	// setting). Passes run only at New's time plus a whole number of
	// periods. After a pass that changed nothing the tick is not
	// scheduled again until the books change; it then runs at the
	// first such instant that is not in the past.
	RebalanceEvery sim.Time
	// HeartbeatEvery is the period of the failure detector's probe
	// rounds over Fabric (0 = no failure detection).
	HeartbeatEvery sim.Time
	// Horizon stops periodic ticks from rescheduling past this time so
	// the event queue can drain (0 = tick for as long as the world runs).
	// With Horizon 0 a settled fleet without a heartbeat schedules
	// nothing, so Env.Run returns once the rest of the world is done.
	Horizon sim.Time
	// Fabric is the cluster fabric the heartbeat probes nodes over;
	// ClusterConfig fills it in, and HeartbeatEvery needs it. Probes are
	// the fleet's only view of faults: a node that is crashed, cut off or
	// losing its frames is down because its probes stop coming back.
	Fabric *topo.Fabric
	// Distance, when set, is the topology oracle (topo.Spec.Distance):
	// admission, borrowing, and consolidation prefer rack-local node
	// sets wherever the capacity policy leaves a tie, and gangs are
	// classified local/remote in Stats. Nil keeps the flat decision
	// procedure — and the event log — bit for bit.
	Distance sched.DistanceFunc
}

// ClusterConfig derives a fleet config from simulated hardware: every
// core and every byte of RAM of each node is placeable capacity, and a
// heartbeat, once HeartbeatEvery is set, probes over the cluster fabric.
func ClusterConfig(c *cluster.Cluster, pol sched.Policy) Config {
	return Config{
		Nodes:       len(c.Nodes),
		CPUsPerNode: c.Params.CoresPerNode,
		MemPerNode:  c.Params.RAMBytes,
		Policy:      pol,
		Fabric:      c.Fabric,
	}
}

// Stats summarizes a fleet run.
type Stats struct {
	Admitted   int // VMs placed (single-node or gang)
	SingleNode int // placed on one node
	Gangs      int // fragmented (Aggregate VM) placements
	LocalGangs int // gangs whose fragments all share a rack (span <= 2)
	CrossGangs int // gangs straddling the spine (span > 2; 0 without Distance)
	Queued     int // requests that waited at least once
	Requeues   int // VMs sent back to the queue after losing a node
	MaxQueue   int // high-water queue length

	Leases           int // borrow leases granted
	Reclaims         int // leases returned by consolidation migration
	ReclaimsDeferred int // reclaim attempts left pending for capacity
	Evictions        int // borrowers killed (ReclaimEvict only)

	Migrations int // vCPUs moved by consolidation/reclaim
	Rebalances int // rebalance ticks that moved something
	Handbacks  int // Aggregate VMs consolidated to one node

	NodeFailures int // node-down transitions observed
	Restarts     int // lost fragments re-placed on survivors
	ProbeMisses  int // heartbeat probes that went unanswered

	Inflations    int      // resize: balloon inflations (fragments surrendered)
	Deflations    int      // resize: balloon deflations (capacity re-granted)
	InflatedVCPUs int      // resize: vCPUs surrendered to the balloon
	DeflatedVCPUs int      // resize: vCPUs re-granted from the balloon
	BalloonedTime sim.Time // vCPU-time spent running below provisioned size

	TimedFinishes int     // departures of VMs with a Duration
	SlowdownSum   float64 // sum over timed finishes of elapsed/Duration
}

// MeanSlowdown is the mean elapsed/Duration ratio over every timed VM
// that ran to completion: exactly 1.0 when nothing was ever resized,
// > 1.0 when ballooned VMs had to stretch their work out.
func (s Stats) MeanSlowdown() float64 {
	if s.TimedFinishes == 0 {
		return 0
	}
	return s.SlowdownSum / float64(s.TimedFinishes)
}

// Fleet is the long-running control plane. Construct with New.
type Fleet struct {
	env *sim.Env
	cfg Config
	tr  *trace.Tracer

	// freeCPU and freeMem are the free books; only occupy and vacate
	// write them after New.
	freeCPU []int
	freeMem []int64
	down    []bool

	// vms holds one record per admitted VM, in ascending request ID:
	// commit inserts in place, release deletes, and vm looks one up, so
	// every pass over the VMs runs in ID order without sorting.
	// queuedAt keys requests by when they first waited, until they are
	// admitted.
	vms      []*vmRec
	queuedAt map[int]sim.Time

	// leases is the append-only ledger of every lease ever granted;
	// live holds the outstanding ones (not yet released), in grant
	// order. Only the grant in syncLeases and releaseLease write live,
	// each in the same step as its Event (lease.go).
	leases    []*Lease
	live      []*Lease
	nextLease int

	waiting []Request
	events  []Event
	stats   Stats
	waits   []sim.Time

	// verified is len(events) when verify last passed, and settled is
	// len(events) after the last rebalance pass that logged nothing (-1
	// before one). Every write to the books appends an Event (see log),
	// so a log that has not grown since means books that have not
	// changed: nothing to re-check, and a pass that would do nothing.
	verified int
	settled  int

	// lastTick is the instant of the last rebalance tick that ran (New's
	// time before one), so the tick's grid is lastTick plus whole
	// periods. nextTick is the instant of the armed tick, 0 while the
	// tick sleeps; log wakes it. tick is the tick's callback, built once.
	lastTick sim.Time
	nextTick sim.Time
	tick     func()

	// Buffers the quiescent-point checks and passes reuse, so that a
	// clean VerifyReport and a consolidation pass that plans no move
	// allocate nothing: the report's scratch, the consolidation
	// planner, and the pass's effective-capacity vector.
	scratch verifyScratch
	plan    sched.Planner
	eff     []int

	// jobs is the data-plane queue: the committed changes to bound VMs
	// not yet carried out on their live VMs, in commit order. A job
	// leaves it only once done, so the fleet-live proc runs exactly
	// while it is non-empty.
	jobs []liveJob
}

// vmRec is one admitted VM: its request, where it runs, its balloon and
// work accounting, its departure, and its live binding.
//
// Balloon accounting (ReclaimResize) counts vCPU quanta — memory
// follows at the request's memPerCPU — so balloon conservation is CPU
// conservation: the placed vCPUs plus ballooned equal req.VCPUs. Work
// accounting turns resize into slowdown: a VM with resident r of p
// provisioned vCPUs progresses at rate r/p, and its departure timer is
// re-armed from the exact integer work remaining whenever r changes.
type vmRec struct {
	req       Request
	pl        sched.Placement
	home      int
	ballooned int64

	startAt    sim.Time // admission commit time, for slowdown
	lastAccrue sim.Time // when workDone was last brought current
	workNeeded int64    // Duration x provisioned vCPUs (timed VMs only)
	workDone   int64    // accrued elapsed x resident vCPUs

	endAt sim.Time   // departure deadline (timed VMs only)
	timer *sim.Timer // departure timer (timed VMs only)
	bound *binding   // live Aggregate VM, or nil
}

// New creates a fleet over an idle cluster and arms its periodic ticks.
func New(env *sim.Env, cfg Config) *Fleet {
	if cfg.Nodes <= 0 || cfg.CPUsPerNode <= 0 {
		panic("fleet: config needs nodes and CPUs")
	}
	if cfg.MemPerNode <= 0 {
		panic("fleet: config needs per-node memory")
	}
	if cfg.HeartbeatEvery > 0 && cfg.Fabric == nil {
		panic("fleet: a heartbeat needs a fabric to probe over")
	}
	f := &Fleet{
		env:      env,
		cfg:      cfg,
		tr:       trace.FromEnv(env),
		freeCPU:  make([]int, cfg.Nodes),
		freeMem:  make([]int64, cfg.Nodes),
		down:     make([]bool, cfg.Nodes),
		queuedAt: map[int]sim.Time{},
		settled:  -1,
		lastTick: env.Now(),
		eff:      make([]int, cfg.Nodes),
	}
	for i := range f.freeCPU {
		f.freeCPU[i] = cfg.CPUsPerNode
		f.freeMem[i] = cfg.MemPerNode
	}
	f.armHeartbeat()
	f.armRebalance()
	return f
}

// vmIndex returns where VM id's record is, or would be inserted, in
// f.vms, and whether it is there.
func (f *Fleet) vmIndex(id int) (int, bool) {
	return slices.BinarySearchFunc(f.vms, id, func(rec *vmRec, id int) int { return cmp.Compare(rec.req.ID, id) })
}

// vm returns admitted VM id's record, or nil.
func (f *Fleet) vm(id int) *vmRec {
	if i, ok := f.vmIndex(id); ok {
		return f.vms[i]
	}
	return nil
}

// FreeCPU returns a copy of the per-node free-vCPU vector.
func (f *Fleet) FreeCPU() []int { return append([]int(nil), f.freeCPU...) }

// PlacementOf returns a copy of a VM's current placement (nil if absent).
func (f *Fleet) PlacementOf(vmID int) sched.Placement {
	rec := f.vm(vmID)
	if rec == nil {
		return nil
	}
	return slices.Clone(rec.pl)
}

// Events returns the decision log.
func (f *Fleet) Events() []Event { return append([]Event(nil), f.events...) }

// Stats returns run statistics.
func (f *Fleet) Stats() Stats { return f.stats }

// QueueWaits returns every completed queue wait, in admission order.
func (f *Fleet) QueueWaits() []sim.Time { return append([]sim.Time(nil), f.waits...) }

// Snapshot is a point-in-time fleet observation, for utilization and
// fragmentation timelines.
type Snapshot struct {
	T           sim.Time
	UsedCPU     int
	TotalCPU    int
	FreeCPU     []int
	Frags       int // partially-free, up nodes
	QueueLen    int
	Leases      int // active borrow leases
	Running     int // admitted VMs
	DownNodes   int
	Utilization float64
}

// Snapshot observes the fleet now.
func (f *Fleet) Snapshot() Snapshot {
	s := Snapshot{
		T:        f.env.Now(),
		FreeCPU:  f.FreeCPU(),
		QueueLen: len(f.waiting),
		Running:  len(f.vms),
	}
	for n := 0; n < f.cfg.Nodes; n++ {
		if f.down[n] {
			s.DownNodes++
			continue
		}
		s.TotalCPU += f.cfg.CPUsPerNode
		s.UsedCPU += f.cfg.CPUsPerNode - f.freeCPU[n]
		if f.freeCPU[n] > 0 && f.freeCPU[n] < f.cfg.CPUsPerNode {
			s.Frags++
		}
	}
	s.Leases = len(f.live)
	if s.TotalCPU > 0 {
		s.Utilization = float64(s.UsedCPU) / float64(s.TotalCPU)
	}
	return s
}

// log appends one Event to the decision log and wakes a sleeping
// rebalance tick. Every write to the books (free vectors, down, the
// waiting queue, the lease ledger, and the placement, home and balloon
// of a VM's record) must append an Event in the same step: verify skips
// its scan while the log length is unchanged, and the rebalance tick
// sleeps until log wakes it.
//
// Bind is the one write the pass reads that logs nothing: it sets a
// record's bound. That is sound only because a new binding narrows what
// a pass may do — reclaimAs turns a bound borrower's balloon, which
// always succeeds, into a relocation, which needs room, and
// placeFragment offers a bound VM only its live slices — so a pass that
// found nothing to do before a Bind finds nothing after it. A write that
// could widen the pass's options must log.
func (f *Fleet) log(kind string, vm, from, to, n, lease int) {
	f.events = append(f.events, Event{T: f.env.Now(), Kind: kind, VM: vm, From: from, To: to, N: n, Lease: lease})
	if f.nextTick == 0 && f.tick != nil {
		f.armTick()
	}
	if f.tr != nil {
		node := to
		if node < 0 {
			node = 0
		}
		cat := trace.CatFleet
		if kind == "inflate" || kind == "deflate" {
			cat = trace.CatBalloon
		}
		f.tr.Instant(0, cat, node, f.tr.Key("fleet", kind))
	}
}

// Submit schedules the arrival of every request. Call before Env.Run.
func (f *Fleet) Submit(reqs []Request) {
	for _, r := range reqs {
		r := r
		if r.VCPUs <= 0 {
			panic(fmt.Sprintf("fleet: request %d needs vCPUs", r.ID))
		}
		if r.MemBytes < 0 {
			panic(fmt.Sprintf("fleet: request %d has negative memory", r.ID))
		}
		// Reject requests no empty fleet could gang-place: without a
		// distance oracle, fragments gang-place a request exactly when
		// their sum covers it.
		if f.cfg.Nodes*f.effCap(f.cfg.CPUsPerNode, f.cfg.MemPerNode, r.memPerCPU()) < r.VCPUs {
			panic(fmt.Sprintf("fleet: request %d (%d vCPUs, %d B) is unsatisfiable even on an empty fleet", r.ID, r.VCPUs, r.MemBytes))
		}
		f.env.DeferAt(r.Arrival, func() { f.arrive(r) })
	}
}

// effCap caps a node's placeable vCPUs by both free CPUs and free memory
// at the request's per-vCPU quantum.
func (f *Fleet) effCap(freeCPU int, freeMem, mpc int64) int {
	e := freeCPU
	if mpc > 0 {
		if byMem := int(freeMem / mpc); byMem < e {
			e = byMem
		}
	}
	return e
}

// effective returns the per-node placeable-vCPU vector for a request with
// the given memory quantum: down nodes contribute nothing, up nodes the
// minimum of their CPU and memory headroom.
func (f *Fleet) effective(mpc int64) []int {
	return f.fillEffective(make([]int, f.cfg.Nodes), mpc)
}

// fillEffective writes the effective vector into eff (one entry per
// node) and returns it.
func (f *Fleet) fillEffective(eff []int, mpc int64) []int {
	for n := range eff {
		eff[n] = 0
		if !f.down[n] {
			eff[n] = f.effCap(f.freeCPU[n], f.freeMem[n], mpc)
		}
	}
	return eff
}

func (f *Fleet) arrive(r Request) {
	if f.tryAdmit(r) {
		f.verify()
		return
	}
	f.enqueue(r)
	f.verify()
}

func (f *Fleet) enqueue(r Request) {
	if _, ok := f.queuedAt[r.ID]; !ok {
		f.queuedAt[r.ID] = f.env.Now()
		f.stats.Queued++
	}
	// The queue is kept in order (priority desc, arrival asc, ID asc):
	// insert after every request that does not rank behind r.
	i := sort.Search(len(f.waiting), func(i int) bool { return queuedBefore(r, f.waiting[i]) })
	f.waiting = slices.Insert(f.waiting, i, r)
	if len(f.waiting) > f.stats.MaxQueue {
		f.stats.MaxQueue = len(f.waiting)
	}
	f.log("queue", r.ID, -1, -1, r.VCPUs, -1)
}

// queuedBefore is the waiting queue's order: higher priority first, then
// earlier arrival, then lower ID.
func queuedBefore(a, b Request) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// tryAdmit gang-places a request: one node best-fit, then all-or-nothing
// fragments, then (when enabled) an admission-driven reclaim. It returns
// false when the request must wait.
func (f *Fleet) tryAdmit(r Request) bool {
	eff := f.effective(r.memPerCPU())
	if node, ok := sched.BestFit(eff, r.VCPUs, f.cfg.Distance, nil); ok {
		f.commit(r, sched.Placement{{Node: node, CPUs: r.VCPUs}}, "admit")
		return true
	}
	if pl, ok := sched.FragPlacement(eff, r.VCPUs, f.cfg.Policy, f.cfg.Distance, nil); ok {
		f.commit(r, pl, "gang")
		return true
	}
	if f.cfg.AutoReclaim && f.reclaimFor(r) {
		return true
	}
	return false
}

// commit applies a gang placement atomically and schedules the departure.
func (f *Fleet) commit(r Request, pl sched.Placement, kind string) {
	i, dup := f.vmIndex(r.ID)
	if dup {
		panic(fmt.Sprintf("fleet: VM %d admitted twice", r.ID))
	}
	now := f.env.Now()
	rec := &vmRec{req: r, pl: pl, home: homeOf(pl), startAt: now, lastAccrue: now}
	for _, fr := range pl {
		f.occupy(rec, fr.Node, fr.CPUs)
	}
	f.vms = slices.Insert(f.vms, i, rec)
	if qa, ok := f.queuedAt[r.ID]; ok {
		f.waits = append(f.waits, now-qa)
		delete(f.queuedAt, r.ID)
		f.log("dequeue", r.ID, -1, -1, r.VCPUs, -1)
	}
	f.stats.Admitted++
	if len(pl) == 1 {
		f.stats.SingleNode++
		f.log(kind, r.ID, -1, pl[0].Node, r.VCPUs, -1)
	} else {
		f.stats.Gangs++
		if pl.Span(f.cfg.Distance) <= 2 {
			f.stats.LocalGangs++
		} else {
			f.stats.CrossGangs++
		}
		f.log(kind, r.ID, -1, -1, r.VCPUs, -1)
	}
	if r.Duration > 0 {
		rec.workNeeded = int64(r.Duration) * int64(r.VCPUs)
		rec.endAt = now + r.Duration
		rec.timer = f.env.After(r.Duration, func() { f.depart(r.ID) })
	}
	f.syncLeases(rec)
}

func (f *Fleet) depart(vmID int) {
	f.finishStats(vmID)
	f.release(vmID)
	f.log("finish", vmID, -1, -1, 0, -1)
	f.maintain()
	f.verify()
}

// finishStats records a timed VM's completion slowdown: elapsed wall
// time over its full-speed Duration. Consolidate and evict never slow a
// running VM down, so their departures contribute exactly 1.0; resized
// VMs stretch their work out and contribute > 1.0.
func (f *Fleet) finishStats(vmID int) {
	rec := f.vm(vmID)
	if rec == nil || rec.req.Duration <= 0 {
		return
	}
	f.accrueWork(rec)
	f.stats.TimedFinishes++
	f.stats.SlowdownSum += float64(f.env.Now()-rec.startAt) / float64(rec.req.Duration)
}

// release frees every resource a VM holds and drops its leases.
func (f *Fleet) release(vmID int) {
	i, ok := f.vmIndex(vmID)
	if !ok {
		panic(fmt.Sprintf("fleet: release of unknown VM %d", vmID))
	}
	rec := f.vms[i]
	for _, fr := range rec.pl {
		f.vacate(rec, fr.Node, fr.CPUs)
	}
	f.vms = slices.Delete(f.vms, i, i+1)
	if rec.timer != nil {
		rec.timer.Cancel()
	}
	// Releases shrink live: gather the VM's leases, then release them
	// in grant order.
	var buf [4]*Lease
	mine := buf[:0]
	for _, l := range f.live {
		if l.VM == vmID {
			mine = append(mine, l)
		}
	}
	for _, l := range mine {
		f.releaseLease(l)
	}
}

// maintain is the control loop run after every capacity change: admit
// waiting requests, retry deferred reclaims, re-inflate ballooned VMs
// into whatever capacity is left, then consolidate. Admission beats
// deflation on purpose — new VMs get first claim on freed capacity.
// Deflation deliberately does NOT run inside Reclaim, so a lender's
// just-reclaimed capacity is never instantly re-borrowed.
func (f *Fleet) maintain() {
	f.drainQueue()
	f.retryReclaims()
	f.deflateAll()
	f.consolidateAll()
}

func (f *Fleet) drainQueue() {
	still := f.waiting[:0]
	for _, r := range f.waiting {
		if !f.tryAdmit(r) {
			still = append(still, r)
		}
	}
	f.waiting = append([]Request(nil), still...)
}

// consolidateAll replays FragBFF's consolidation pass over every
// multi-node VM, bounded by each VM's memory headroom: the free vector
// handed to the pure planner is the memory-capped effective capacity, so
// a move never lands where the moved vCPUs' memory share cannot follow.
// VMs are visited in ID order. The pass admits and releases no VM, and a
// VM's moves change only its own placement, so it walks f.vms directly.
// It returns how many moves it committed, and a pass that commits none
// allocates nothing.
func (f *Fleet) consolidateAll() int {
	moved := 0
	for _, rec := range f.vms {
		if len(rec.pl) < 2 {
			continue
		}
		// The planner copies eff, so one buffer serves the whole pass.
		f.fillEffective(f.eff, rec.req.memPerCPU())
		moves := f.plan.Moves(f.eff, f.cfg.CPUsPerNode, rec.pl, f.cfg.Policy, f.cfg.Distance)
		for _, m := range moves {
			if !f.moveAccounting(rec, m.From, m.To, m.N) {
				break
			}
			moved++
		}
		f.settle(rec)
	}
	return moved
}

// settle re-syncs a VM's leases after its placement changed and, when
// the VM now runs on one node, hands it back to plain best fit.
func (f *Fleet) settle(rec *vmRec) {
	f.syncLeases(rec)
	if len(rec.pl) == 1 {
		f.stats.Handbacks++
		f.log("handback", rec.req.ID, -1, rec.pl[0].Node, 0, -1)
	}
}

// moveAccounting commits one vCPU move (CPU and memory share) in the
// control plane's books and, for a bound VM, queues the live migration.
// It refuses moves the current state no longer supports and reports
// whether it applied.
func (f *Fleet) moveAccounting(rec *vmRec, from, to, n int) bool {
	if rec.pl.CPUs(from) < n || !f.fits(rec, to, n) {
		return false
	}
	f.occupy(rec, to, n)
	f.vacate(rec, from, n)
	rec.pl.Add(from, -n)
	rec.pl.Add(to, n)
	f.stats.Migrations += n
	f.log("migrate", rec.req.ID, from, to, n, -1)
	if b := rec.bound; b != nil {
		f.queueLive(rec.req.ID, func(p *sim.Proc) { b.migrate(p, from, to, n) })
	}
	return true
}

// occupy charges c of a VM's vCPUs, with their memory share, to node n's
// free books. It and vacate are the only writers of the free books; it
// panics when n is down or cannot hold them.
func (f *Fleet) occupy(rec *vmRec, n, c int) {
	if !f.fits(rec, n, c) {
		panic(fmt.Sprintf("fleet: overcommitting node %d for VM %d", n, rec.req.ID))
	}
	f.freeCPU[n] -= c
	f.freeMem[n] -= int64(c) * rec.req.memPerCPU()
}

// fits reports whether node n is up and has c of a VM's vCPUs, with
// their memory share, free.
func (f *Fleet) fits(rec *vmRec, n, c int) bool {
	return !f.down[n] && f.freeCPU[n] >= c && f.freeMem[n] >= int64(c)*rec.req.memPerCPU()
}

// vacate credits c of a VM's vCPUs, with their memory share, back to
// node n's free books. A down node is credited too, so its capacity is
// whole when it heals.
func (f *Fleet) vacate(rec *vmRec, n, c int) {
	f.freeCPU[n] += c
	f.freeMem[n] += int64(c) * rec.req.memPerCPU()
}

// liveJob is one committed change to bound VM vm, for the fleet-live
// proc to carry out on the live VM.
type liveJob struct {
	vm  int
	run func(*sim.Proc)
}

// queueLive appends a job to the data-plane queue and, when the queue
// was empty, spawns the fleet-live proc to run it. The books are
// already up to date; the live VM converges at real migration latency.
func (f *Fleet) queueLive(vm int, run func(*sim.Proc)) {
	f.jobs = append(f.jobs, liveJob{vm, run})
	if len(f.jobs) == 1 {
		f.env.Spawn("fleet-live", f.runJobs)
	}
}

// runJobs is the fleet-live proc: it runs the queued jobs one at a time
// in commit order, jobs queued meanwhile included, and ends when the
// queue is empty. A job whose VM has left the fleet is skipped.
func (f *Fleet) runJobs(p *sim.Proc) {
	for len(f.jobs) > 0 {
		if j := f.jobs[0]; f.vm(j.vm) != nil {
			j.run(p)
		}
		f.jobs = slices.Delete(f.jobs, 0, 1)
	}
}

// armRebalance starts the periodic defragmentation tick, first one
// period from now.
func (f *Fleet) armRebalance() {
	if f.cfg.RebalanceEvery <= 0 {
		return
	}
	f.tick = f.rebalanceTick
	f.armTick()
}

// rebalanceTick runs the consolidation pass, then admits and re-inflates
// into what it freed. The pass is a pure function of the books, so once
// it logs nothing every later one would too until the log grows: the
// tick then sleeps, and log wakes it. Otherwise it runs again one period
// later. The tick stays armed during its pass, so the pass's own
// entries do not wake it.
func (f *Fleet) rebalanceTick() {
	f.lastTick = f.env.Now()
	n := len(f.events)
	if moved := f.consolidateAll(); moved > 0 {
		f.stats.Rebalances++
		f.log("rebalance", -1, -1, -1, moved, -1)
	}
	f.drainQueue()
	f.deflateAll()
	f.verify()
	f.nextTick = 0
	if len(f.events) == n {
		f.settled = n
		return
	}
	f.armTick()
}

// armTick arms the tick at the first instant of its grid that is not
// before now and later than the last tick that ran, unless that passes
// the horizon. So a write in the instant a tick ran waits one period.
func (f *Fleet) armTick() {
	p := f.cfg.RebalanceEvery
	at := f.lastTick + p
	if now := f.env.Now(); at < now {
		at += (now - at + p - 1) / p * p
	}
	if f.cfg.Horizon > 0 && at > f.cfg.Horizon {
		return
	}
	f.nextTick = at
	f.env.DeferAt(at, f.tick)
}

// every runs tick each period, first one period from now, and stops
// rescheduling once the next run would pass the horizon.
func (f *Fleet) every(period sim.Time, tick func()) {
	var loop func()
	loop = func() {
		tick()
		if f.cfg.Horizon > 0 && f.env.Now()+period > f.cfg.Horizon {
			return
		}
		f.env.Defer(period, loop)
	}
	f.env.Defer(period, loop)
}

// homeOf picks a placement's home fragment: the largest, lowest node id
// on ties. Every other fragment is borrowed capacity under a lease.
func homeOf(pl sched.Placement) int {
	best, bestC := -1, -1
	for _, fr := range pl {
		if fr.CPUs > bestC {
			best, bestC = fr.Node, fr.CPUs
		}
	}
	return best
}

// Verify checks every control-plane invariant and panics on the first
// violation: per-node CPU/memory books balance against placements,
// nothing exceeds capacity, balloon conservation holds, and the lease
// ledger matches the fragments exactly (no double-booked lease). Verify
// always runs the full scan, whatever the books last looked like; the
// fleet's own quiescent points call the memoized verify (verify.go),
// which skips the scan while the event log has not grown. Use
// VerifyReport for the same checks as typed data.
func (f *Fleet) Verify() {
	if vs := f.VerifyReport(); len(vs) > 0 {
		panic(vs[0].Error())
	}
}

// GenerateBurst synthesizes n VM arrivals following the paper's setup:
// sizes drawn from an Azure-like small-VM-heavy distribution [45],
// durations from a heavy-tailed distribution scaled down by 100x, arrivals
// uniform over the window, memory at memPerCPU per vCPU, and priorities
// drawn 1/5 Critical, 3/10 Batch, the rest Standard. The draw order
// (every size/duration/arrival first, then the priorities in arrival
// order) is part of every seeded workload built on it.
func GenerateBurst(rng *rand.Rand, n int, window sim.Time, memPerCPU int64) []Request {
	sizes := []int{1, 1, 1, 2, 2, 2, 4, 4, 8, 12}
	out := make([]Request, n)
	for i := range out {
		dur := 20*sim.Second + sim.FromSeconds(rng.ExpFloat64()*80)
		if dur > 600*sim.Second {
			dur = 600 * sim.Second
		}
		vcpus := sizes[rng.Intn(len(sizes))]
		out[i] = Request{
			ID:       i + 1,
			VCPUs:    vcpus,
			MemBytes: int64(vcpus) * memPerCPU,
			Arrival:  sim.Time(rng.Int63n(int64(window))),
			Duration: dur,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	for i := range out {
		switch d := rng.Intn(10); {
		case d < 2:
			out[i].Priority = Critical
		case d < 5:
			out[i].Priority = Batch
		default:
			out[i].Priority = Standard
		}
	}
	return out
}
