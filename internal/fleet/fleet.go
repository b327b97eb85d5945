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
//     replays FragBFF's consolidation pass (sched.ConsolidationMoves)
//     over the multi-node VMs, and a VM that lands on one node is handed
//     back to plain best fit. OnMigrate or Bind executes each planned
//     move on a live Aggregate VM.
//   - Borrow leases. Every non-home fragment of an Aggregate VM is a
//     first-class lease of the lender node's capacity. The lender can
//     reclaim: under ReclaimConsolidate the borrower's vCPUs migrate to
//     other capacity (the paper's core claim — zero evictions); under
//     ReclaimEvict (the baseline every other cluster manager implements)
//     the borrower dies.
//   - Background rebalancing. An optional periodic tick runs the same
//     consolidation pass over the whole fleet to shrink fragmentation.
//   - Failure handling. A heartbeat tick watches the fault injector's
//     liveness; when a node dies, fragments hosted there are re-placed on
//     survivors, and VMs bound to a live Aggregate VM are restarted from
//     their checkpoint image (internal/checkpoint) on the new slices.
//
// Everything runs on the deterministic DES core: the same (config, trace,
// seed) triple replays bit-identically, including the event log, which
// tests compare across runs. Every placement decision is one of
// internal/sched's pure functions (BestFit, FragPlacement,
// ConsolidationMoves) applied to the fleet's books.
package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/balloon"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/reliable"
	"repro/internal/sched"
	"repro/internal/sim"
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
	// reclaims (consolidating or evicting the borrowers per Reclaim) and
	// the request is placed there.
	AutoReclaim bool
	// RebalanceEvery runs the consolidation pass periodically as well
	// (0 = only on capacity changes, FragBFF's behavior and Fig 14's
	// setting).
	RebalanceEvery sim.Time
	// HeartbeatEvery polls node liveness against Fault (0 = no failure
	// detection).
	HeartbeatEvery sim.Time
	// Horizon stops periodic ticks from rescheduling past this time so
	// the event queue can drain (0 = tick until Stop is called).
	Horizon sim.Time
	// Fault, when set, is the liveness source for the heartbeat. The
	// heartbeat judges nodes with the injector's quorum reachability
	// view (fault.Up), so a node cut off by a partition or a link cut is
	// detected and recovered like a crashed one.
	Fault *fault.Injector
	// Probe, when set alongside Fault, upgrades the heartbeat to real
	// probe messages on the reliable transport: each tick probes every
	// node the view considers up, and probeMissThreshold consecutive
	// unreachable verdicts declare the node down on message evidence
	// alone. Zero keeps the pure view-based heartbeat (and its timing)
	// unchanged.
	Probe *reliable.Transport
	// ProbeFrom is the fabric endpoint the controller probes from —
	// conventionally the node hosting the control plane (node 0). On a
	// tree topology it must be a real node id (external endpoints are
	// not routable on the datacenter tree); probes to ProbeFrom itself
	// short-circuit locally and are always answered.
	ProbeFrom int
	// Distance, when set, is the topology oracle (topo.Spec.Distance):
	// admission, borrowing, and consolidation prefer rack-local node
	// sets wherever the capacity policy leaves a tie, and gangs are
	// classified local/remote in Stats. Nil keeps the flat decision
	// procedure — and the event log — bit for bit.
	Distance sched.DistanceFunc
}

// ClusterConfig derives a fleet config from simulated hardware: every
// core and every byte of RAM of each node is placeable capacity.
func ClusterConfig(c *cluster.Cluster, pol sched.Policy) Config {
	return Config{
		Nodes:       len(c.Nodes),
		CPUsPerNode: c.Params.CoresPerNode,
		MemPerNode:  c.Params.RAMBytes,
		Policy:      pol,
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
	ProbeMisses  int // heartbeat probes that came back unreachable

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

// liveMove is deferred data-plane work: a vCPU migration the accounting
// already committed, to be executed on bound/hooked live VMs.
type liveMove struct {
	vm, from, to, n int
}

// Fleet is the long-running control plane. Construct with New.
type Fleet struct {
	env *sim.Env
	cfg Config
	tr  *trace.Tracer

	freeCPU []int
	freeMem []int64
	down    []bool

	placements map[int]sched.Placement
	reqs       map[int]Request
	home       map[int]int
	endAt      map[int]sim.Time
	timers     map[int]*sim.Timer
	queuedAt   map[int]sim.Time

	// Balloon accounting (ReclaimResize). The ledger counts vCPU
	// quanta — memory follows at each request's memPerCPU — so balloon
	// conservation is CPU conservation. Work accounting turns resize
	// into slowdown: a VM with resident r of p provisioned vCPUs
	// progresses at rate r/p, and its departure timer is re-armed from
	// the exact integer work remaining whenever r changes.
	ballooned  *balloon.Ledger
	startAt    map[int]sim.Time // admission commit time, for slowdown
	workNeeded map[int]int64    // Duration x provisioned vCPUs (work units)
	workDone   map[int]int64    // accrued elapsed x resident vCPUs
	lastAccrue map[int]sim.Time // when workDone was last brought current

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

	// verified is len(events) when verify last passed. Every write to the
	// books appends an Event (see log), so a log that has not grown since
	// means books that have not changed.
	verified int

	bound map[int]*binding

	stopped          bool
	hbTimer, rbTimer *sim.Timer

	// OnMigrate, when set, runs for every committed vCPU move so an
	// external live Aggregate VM can execute it (runs in a fleet process;
	// see also Bind for the built-in integration).
	OnMigrate func(p *sim.Proc, vmID, from, to, n int)
}

// New creates a fleet over an idle cluster and arms its periodic ticks.
func New(env *sim.Env, cfg Config) *Fleet {
	if cfg.Nodes <= 0 || cfg.CPUsPerNode <= 0 {
		panic("fleet: config needs nodes and CPUs")
	}
	if cfg.MemPerNode <= 0 {
		panic("fleet: config needs per-node memory")
	}
	f := &Fleet{
		env:        env,
		cfg:        cfg,
		tr:         trace.FromEnv(env),
		freeCPU:    make([]int, cfg.Nodes),
		freeMem:    make([]int64, cfg.Nodes),
		down:       make([]bool, cfg.Nodes),
		placements: map[int]sched.Placement{},
		reqs:       map[int]Request{},
		home:       map[int]int{},
		endAt:      map[int]sim.Time{},
		timers:     map[int]*sim.Timer{},
		queuedAt:   map[int]sim.Time{},
		ballooned:  balloon.NewLedger(),
		startAt:    map[int]sim.Time{},
		workNeeded: map[int]int64{},
		workDone:   map[int]int64{},
		lastAccrue: map[int]sim.Time{},
		bound:      map[int]*binding{},
	}
	for i := range f.freeCPU {
		f.freeCPU[i] = cfg.CPUsPerNode
		f.freeMem[i] = cfg.MemPerNode
	}
	f.armHeartbeat()
	f.armRebalance()
	return f
}

// Env returns the simulation environment the fleet runs in.
func (f *Fleet) Env() *sim.Env { return f.env }

// Stop cancels the periodic ticks so the event queue can drain.
func (f *Fleet) Stop() {
	f.stopped = true
	if f.hbTimer != nil {
		f.hbTimer.Cancel()
	}
	if f.rbTimer != nil {
		f.rbTimer.Cancel()
	}
}

// FreeCPU returns a copy of the per-node free-vCPU vector.
func (f *Fleet) FreeCPU() []int { return append([]int(nil), f.freeCPU...) }

// PlacementOf returns a copy of a VM's current placement (nil if absent).
func (f *Fleet) PlacementOf(vmID int) sched.Placement {
	pl, ok := f.placements[vmID]
	if !ok {
		return nil
	}
	out := make(sched.Placement, len(pl))
	for n, c := range pl {
		out[n] = c
	}
	return out
}

// Events returns the decision log.
func (f *Fleet) Events() []Event { return append([]Event(nil), f.events...) }

// Stats returns run statistics.
func (f *Fleet) Stats() Stats { return f.stats }

// QueueWaits returns every completed queue wait, in admission order.
func (f *Fleet) QueueWaits() []sim.Time { return append([]sim.Time(nil), f.waits...) }

// QueueLen returns the number of requests currently waiting.
func (f *Fleet) QueueLen() int { return len(f.waiting) }

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
		Running:  len(f.placements),
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

// log appends one Event to the decision log. Every write to the books
// (free vectors, down, placements, home, the waiting queue, the lease
// ledger, the balloon ledger) must append an Event in the same step:
// verify skips its scan while the log length is unchanged.
func (f *Fleet) log(kind string, vm, from, to, n, lease int) {
	f.events = append(f.events, Event{T: f.env.Now(), Kind: kind, VM: vm, From: from, To: to, N: n, Lease: lease})
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
		// Reject requests no empty fleet could gang-place.
		empty := make([]int, f.cfg.Nodes)
		for i := range empty {
			empty[i] = f.effCap(f.cfg.CPUsPerNode, f.cfg.MemPerNode, r.memPerCPU())
		}
		if _, ok := sched.FragPlacement(empty, r.VCPUs, f.cfg.Policy, nil, nil); !ok {
			panic(fmt.Sprintf("fleet: request %d (%d vCPUs, %d B) is unsatisfiable even on an empty fleet", r.ID, r.VCPUs, r.MemBytes))
		}
		f.env.At(r.Arrival, func() { f.arrive(r) })
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
		f.commit(r, sched.Placement{node: r.VCPUs}, "admit")
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
	if _, dup := f.placements[r.ID]; dup {
		panic(fmt.Sprintf("fleet: VM %d admitted twice", r.ID))
	}
	mpc := r.memPerCPU()
	for _, n := range pl.Nodes() {
		c := pl[n]
		if f.down[n] || f.freeCPU[n] < c || f.freeMem[n] < int64(c)*mpc {
			panic(fmt.Sprintf("fleet: overcommitting node %d for VM %d", n, r.ID))
		}
		f.freeCPU[n] -= c
		f.freeMem[n] -= int64(c) * mpc
	}
	f.placements[r.ID] = pl
	f.reqs[r.ID] = r
	f.home[r.ID] = homeOf(pl)
	if qa, ok := f.queuedAt[r.ID]; ok {
		f.waits = append(f.waits, f.env.Now()-qa)
		delete(f.queuedAt, r.ID)
		f.log("dequeue", r.ID, -1, -1, r.VCPUs, -1)
	}
	f.stats.Admitted++
	if len(pl) == 1 {
		f.stats.SingleNode++
		f.log(kind, r.ID, -1, pl.Nodes()[0], r.VCPUs, -1)
	} else {
		f.stats.Gangs++
		if pl.Span(f.cfg.Distance) <= 2 {
			f.stats.LocalGangs++
		} else {
			f.stats.CrossGangs++
		}
		f.log(kind, r.ID, -1, -1, r.VCPUs, -1)
	}
	f.ballooned.Provision(r.ID, int64(r.VCPUs))
	f.startAt[r.ID] = f.env.Now()
	f.lastAccrue[r.ID] = f.env.Now()
	if r.Duration > 0 {
		f.workNeeded[r.ID] = int64(r.Duration) * int64(r.VCPUs)
		f.workDone[r.ID] = 0
		f.endAt[r.ID] = f.env.Now() + r.Duration
		f.timers[r.ID] = f.env.After(r.Duration, func() { f.depart(r.ID) })
	}
	f.syncLeases(r.ID)
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
	r, ok := f.reqs[vmID]
	if !ok || r.Duration <= 0 {
		return
	}
	f.accrueWork(vmID)
	f.stats.TimedFinishes++
	f.stats.SlowdownSum += float64(f.env.Now()-f.startAt[vmID]) / float64(r.Duration)
}

// release frees every resource a VM holds and drops its leases.
func (f *Fleet) release(vmID int) {
	pl, ok := f.placements[vmID]
	if !ok {
		panic(fmt.Sprintf("fleet: release of unknown VM %d", vmID))
	}
	mpc := f.reqs[vmID].memPerCPU()
	for _, n := range pl.Nodes() {
		if !f.down[n] {
			f.freeCPU[n] += pl[n]
			f.freeMem[n] += int64(pl[n]) * mpc
		}
	}
	delete(f.placements, vmID)
	delete(f.reqs, vmID)
	delete(f.home, vmID)
	delete(f.endAt, vmID)
	f.ballooned.Remove(vmID)
	delete(f.startAt, vmID)
	delete(f.workNeeded, vmID)
	delete(f.workDone, vmID)
	delete(f.lastAccrue, vmID)
	if tm, ok := f.timers[vmID]; ok {
		tm.Cancel()
		delete(f.timers, vmID)
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
	work := f.retryReclaims()
	f.deflateAll()
	work = append(work, f.consolidateAll()...)
	f.runLive(work)
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
func (f *Fleet) consolidateAll() []liveMove {
	var ids []int
	for id, pl := range f.placements {
		if len(pl) > 1 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var work []liveMove
	var eff []int // one buffer for the pass: ConsolidationMoves copies it
	if len(ids) > 0 {
		eff = make([]int, f.cfg.Nodes)
	}
	for _, id := range ids {
		pl := f.placements[id]
		f.fillEffective(eff, f.reqs[id].memPerCPU())
		moves := sched.ConsolidationMoves(eff, f.cfg.CPUsPerNode, pl, f.cfg.Policy, f.cfg.Distance)
		for _, m := range moves {
			if !f.moveAccounting(id, m.From, m.To, m.N) {
				break
			}
			work = append(work, liveMove{id, m.From, m.To, m.N})
		}
		f.syncLeases(id)
		if len(f.placements[id]) == 1 {
			f.stats.Handbacks++
			f.log("handback", id, -1, f.placements[id].Nodes()[0], 0, -1)
		}
	}
	return work
}

// moveAccounting commits one vCPU move (CPU and memory share) in the
// control plane's books. It refuses moves the current state no longer
// supports and reports whether it applied.
func (f *Fleet) moveAccounting(vmID, from, to, n int) bool {
	pl := f.placements[vmID]
	mpc := f.reqs[vmID].memPerCPU()
	if pl == nil || pl[from] < n || f.down[to] ||
		f.freeCPU[to] < n || f.freeMem[to] < int64(n)*mpc {
		return false
	}
	f.freeCPU[to] -= n
	f.freeMem[to] -= int64(n) * mpc
	if !f.down[from] {
		f.freeCPU[from] += n
		f.freeMem[from] += int64(n) * mpc
	}
	pl[from] -= n
	pl[to] += n
	if pl[from] == 0 {
		delete(pl, from)
	}
	f.stats.Migrations += n
	f.log("migrate", vmID, from, to, n, -1)
	return true
}

// runLive executes committed moves on live VMs (bound or hooked) in a
// fleet process; the control plane's books are already up to date, the
// data plane converges at real migration latency.
func (f *Fleet) runLive(work []liveMove) {
	if len(work) == 0 || (f.OnMigrate == nil && len(f.bound) == 0) {
		return
	}
	f.env.Spawn("fleet-live", func(p *sim.Proc) {
		for _, w := range work {
			if b := f.bound[w.vm]; b != nil {
				b.migrate(p, w.from, w.to, w.n)
			}
			if f.OnMigrate != nil {
				f.OnMigrate(p, w.vm, w.from, w.to, w.n)
			}
		}
	})
}

// armRebalance schedules the periodic defragmentation tick.
func (f *Fleet) armRebalance() {
	if f.cfg.RebalanceEvery <= 0 {
		return
	}
	var tick func()
	tick = func() {
		if f.stopped {
			return
		}
		work := f.consolidateAll()
		if len(work) > 0 {
			f.stats.Rebalances++
			f.log("rebalance", -1, -1, -1, len(work), -1)
		}
		f.runLive(work)
		f.drainQueue()
		f.deflateAll()
		f.verify()
		f.rbTimer = f.reschedule(f.cfg.RebalanceEvery, tick)
	}
	f.rbTimer = f.env.After(f.cfg.RebalanceEvery, tick)
}

// reschedule arms the next periodic tick unless it would pass the horizon.
func (f *Fleet) reschedule(every sim.Time, tick func()) *sim.Timer {
	if f.stopped || (f.cfg.Horizon > 0 && f.env.Now()+every > f.cfg.Horizon) {
		return nil
	}
	return f.env.After(every, tick)
}

// homeOf picks a placement's home fragment: the largest, lowest node id
// on ties. Every other fragment is borrowed capacity under a lease.
func homeOf(pl sched.Placement) int {
	best, bestC := -1, -1
	for _, n := range pl.Nodes() {
		if pl[n] > bestC {
			best, bestC = n, pl[n]
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
