// Package dsm implements FragVisor's distributed shared memory: the
// protocol that keeps an Aggregate VM's pseudo-physical address space
// coherent across the hypervisor instances that host its slices.
//
// The protocol is the Popcorn-style single-writer/multiple-reader ownership
// protocol the paper builds on. One instance — the bootstrap slice, called
// the origin here — maintains a directory mapping every guest page to its
// current owner and copyset. Remote read faults replicate a page into the
// faulting node's copyset; write faults invalidate all other copies and
// transfer ownership. Every protocol step pays for its fabric messages and
// a fixed fault-handler CPU cost, so DSM contention emerges from the same
// mechanics as on the real system: page ping-pong between concurrent
// writers, invalidation storms on false sharing, and fault-handler
// serialization on hot pages.
//
// The DSM is functional, not just a cost model: page contents are real
// bytes that move with ownership, which lets tests state coherence
// invariants ("a read observes the most recent write") directly. A replica
// whose buffer is nil is a zero page: its 4 KiB exist only once something
// is written to it, so Touch-only sharing (most of the paper's workloads)
// allocates and copies no page bytes. The elision is host-side only: a
// zero page moving between nodes is charged a full page on the wire and
// in BytesMoved, exactly like one carrying data.
//
// Two access granularities are offered. Read/Write/Touch run the full
// per-page protocol and are used wherever sharing matters (microbenchmarks,
// kernel data structures, virtio rings, socket buffers). TouchRange covers
// multi-megabyte private application data — NPB datasets, lambda working
// sets — through an extent table that tracks ownership per range and
// charges aggregate first-touch/claim costs without materializing bytes.
// The two views must be kept disjoint by callers: a page accessed through
// Read/Write must not also be covered by TouchRange.
//
// Model notes (documented deviations from the prototype):
//
//   - Fault-handler CPU is charged as elapsed time on the faulting vCPU
//     rather than as load on the host pCPU; vCPUs are pinned 1:1 in all
//     distributed scenarios, so the two are equivalent there.
//   - Bulk (TouchRange) transfers charge serialization in their aggregate
//     cost but do not occupy the NIC object, so they do not delay
//     concurrent small messages; the paper's workloads do not overlap bulk
//     claims with latency-critical traffic.
package dsm

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// State is a node's local MSI-style state for one page.
type State uint8

const (
	// Invalid means the node holds no valid copy.
	Invalid State = iota
	// Shared means the node holds a read-only replica.
	Shared
	// Exclusive means the node owns the page with no other copies.
	Exclusive
)

// String names the state for diagnostics.
func (s State) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case Shared:
		return "shared"
	case Exclusive:
		return "exclusive"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// FragVisor's kernel-space DSM costs, shared by every profile.
const (
	// faultHandler is the CPU time per EPT-violation fault: VM exit plus
	// the in-kernel protocol handler.
	faultHandler = 3 * sim.Microsecond
	// minorFault is the cost of a local first touch (allocate + map).
	minorFault = 300 * sim.Nanosecond
	// contextualWriteCost is the per-write cost when piggybacking.
	contextualWriteCost = 300 * sim.Nanosecond
	// reqBytes is the wire size of a fault request message.
	reqBytes = 64
)

// Params is the part of the DSM cost model that differs between
// profiles.
type Params struct {
	// UserSpaceExtra is added per fault for DSM implementations living in
	// user space (GiantVM): two user/kernel crossings and an extra copy.
	UserSpaceExtra sim.Time
	// ContextualPiggyback enables the contextual-DSM optimization: writes
	// to pages the hypervisor understands (page tables, interrupt
	// context) are piggybacked onto IPI traffic instead of running the
	// invalidation protocol.
	ContextualPiggyback bool
	// DirtyBitTracking models EPT hardware dirty-bit management, which
	// writes to a shared tracking structure on every write fault.
	// FragVisor disables it (the DSM already tracks writes).
	DirtyBitTracking bool
}

// DefaultParams returns FragVisor's kernel-space DSM profile.
func DefaultParams() Params {
	return Params{ContextualPiggyback: true}
}

// GiantVMParams returns the cost model for the user-space DSM baseline:
// higher per-fault cost and no contextual optimization.
func GiantVMParams() Params {
	return Params{UserSpaceExtra: 6 * sim.Microsecond}
}

// Stats counts DSM activity for one node (or aggregated).
type Stats struct {
	ReadFaults       int64
	WriteFaults      int64
	LocalHits        int64
	Invalidations    int64 // invalidation messages received
	ContextualWrites int64
	DirtyFaults      int64 // extra faults due to dirty-bit tracking
	BulkLocalPages   int64 // bulk pages first-touched locally
	BulkRemotePages  int64 // bulk pages claimed or copied from a remote owner
	BytesMoved       int64 // page payload bytes transferred on behalf of this node
}

// Faults returns the total protocol faults (read + write + dirty).
func (s Stats) Faults() int64 { return s.ReadFaults + s.WriteFaults + s.DirtyFaults }

func (s *Stats) add(o Stats) {
	s.ReadFaults += o.ReadFaults
	s.WriteFaults += o.WriteFaults
	s.LocalHits += o.LocalHits
	s.Invalidations += o.Invalidations
	s.ContextualWrites += o.ContextualWrites
	s.DirtyFaults += o.DirtyFaults
	s.BulkLocalPages += o.BulkLocalPages
	s.BulkRemotePages += o.BulkRemotePages
	s.BytesMoved += o.BytesMoved
}

// localPage is one node's replica of a guest page. A nil data is a zero
// page: the buffer is materialized by writable on the first write, and a
// transfer of a zero page is still charged as a full page.
type localPage struct {
	state State
	data  []byte // nil, or exactly mem.PageSize bytes
}

// zeroPage is what a nil replica reads as. It is never written.
var zeroPage [mem.PageSize]byte

// writable returns the replica's buffer, materializing a zero page.
func (lp *localPage) writable() []byte {
	if lp.data == nil {
		lp.data = make([]byte, mem.PageSize)
	}
	return lp.data
}

// install sets the replica's contents to a transferred page's: a zero
// page for nil data, else a copy in the replica's own buffer.
func (lp *localPage) install(data []byte) {
	if data == nil {
		lp.data = nil
		return
	}
	copy(lp.writable(), data)
}

// contents returns the replica's bytes for reading, a zero page reading as
// mem.PageSize zero bytes; it never materializes the buffer.
func (lp *localPage) contents() []byte {
	if lp.data == nil {
		return zeroPage[:]
	}
	return lp.data
}

// pageRec is everything the DSM keeps about one explicitly-managed page,
// reached by a single map lookup: the directory's view, the page lock, the
// contextual tag and every node's replica. A record exists from a page's
// first access (or MarkContextual); inDir and held say which views the
// page has joined since.
type pageRec struct {
	page mem.PageID
	// inDir says the origin directory tracks the page; owner and copyset
	// mean nothing before. A page only the origin has touched has no
	// directory entry: the bootstrap slice owns it implicitly.
	inDir   bool
	owner   int    // fabric node id
	copyset uint32 // dense node indices holding valid replicas; the origin is bit 0

	contextual bool // CPU-context memory, eligible for the piggyback path
	// held marks the replicas that exist, by dense node index. A replica
	// not held reads as Invalid and is materialized by replica on first
	// use; state alone cannot tell an untouched origin replica (which
	// starts Exclusive) from an invalidated one.
	held  uint32
	local []localPage // by dense node index

	// locked is the page lock, which serializes directory grants (and
	// RestorePage); waiters queue for it in FIFO order.
	locked  bool
	waiters []lockWaiter
}

// lockWaiter is one party queued for a page lock: a grant, which resumes
// on an event of its own, or a RestorePage process, woken through ev.
type lockWaiter struct {
	pf *pendingFault
	ev *sim.Event
}

// pendingFault is one fault in flight. It is the payload of the fault
// request to the directory, by pointer; the directory only reads its
// request fields and answers through grant, which points back here. The
// directory serves it as a chain of event callbacks: a step that waits
// (for the page lock, a reply, the invalidations) leaves the next step
// as a lock waiter, a CallThen continuation or the last invalidation's
// event, and returns.
//
// A fault has two owners, the requester's ensure and the directory, and
// goes back on the DSM's free list when both have released it: ensure
// once it has read moved, the directory in granted. A requester that a
// fence made give up never releases, so its fault is left to the
// collector and a late step of its grant can never reach a reused one.
type pendingFault struct {
	d      *DSM
	rec    *pageRec
	ni     int // requester's dense node index
	write  bool
	owners int   // owners yet to release the fault
	span   int64 // the requester's dsm.read or dsm.write span

	ev  sim.Event // fired when the grant is installed
	dir task      // the directory's own strand: lock, fetch, grant
	// hadCopy says a write grant's requester held a valid copy when the
	// grant began, so the owner's invalidation moves no bytes; invLeft
	// counts the grant's invalidations still running.
	hadCopy bool
	invLeft int
	moved   int64 // payload bytes installed by the grant
	grant   grantMsg
}

// task is one strand of the directory's work on a fault: the grant itself
// (pendingFault.dir) or one of a write grant's invalidations, which run in
// parallel. span is the strand's tracing span (dsm.dir or dsm.inv), the
// causal parent of its messages. A fetch task's answer is the owner's
// bytes, which go into the grant.
type task struct {
	pf    *pendingFault
	span  int64
	n     int  // the holder an invalidation asks
	inv   bool // one of grantWrite's invalidations
	fetch bool
}

// grantMsg carries the directory's answer to a fault back to the faulting
// node. The requester installs it synchronously at delivery and
// acknowledges; the directory holds the page lock until the ack, so a
// replica can never be resurrected by a stale in-flight grant.
type grantMsg struct {
	pf *pendingFault
	// carry says the grant moves the page's contents, which the wire and
	// BytesMoved charge as a full page; it is false when the requester's
	// existing copy remains valid. data is nil when carry is false, and
	// also when the page moved is a zero page.
	carry bool
	data  []byte
}

// DSM is one Aggregate VM's distributed shared memory instance.
// Construct with New.
type DSM struct {
	env    *sim.Env
	layer  *msg.Layer
	nodes  []int
	origin int
	idx    []int   // fabric node id -> dense index, -1 for non-members
	stats  []Stats // by dense index
	params Params

	pages   map[mem.PageID]*pageRec
	extents extentTable

	// Recycled per-fault objects, reused LIFO so a remote fault
	// allocates nothing in steady state. freePages holds the transfer
	// copies of pages that grants have installed.
	freeFaults []*pendingFault
	freeTasks  []*task
	freePages  [][]byte

	dirtyPage mem.PageID
	dirSvc    *msg.Service // the directory, at the origin
	ownSvc    *msg.Service // replica holders, on every node

	tr *trace.Tracer
}

// New creates a DSM spanning the given hypervisor instances. nodes[0] is
// the origin (the bootstrap slice). The same messaging layer may carry
// several DSM instances.
func New(env *sim.Env, layer *msg.Layer, nodes []int, p Params) *DSM {
	if len(nodes) == 0 {
		panic("dsm: no nodes")
	}
	if len(nodes) > 32 {
		panic("dsm: more than 32 nodes in one DSM")
	}
	d := &DSM{
		env:       env,
		layer:     layer,
		nodes:     append([]int(nil), nodes...),
		origin:    nodes[0],
		stats:     make([]Stats, len(nodes)),
		params:    p,
		pages:     make(map[mem.PageID]*pageRec),
		dirtyPage: mem.PageID(1) << 40,
		tr:        trace.FromEnv(env),
	}
	// Instance numbers are per messaging layer, so service (and span) names
	// depend only on construction order within one simulation.
	service := fmt.Sprintf("dsm%d", layer.Instance("dsm"))
	d.dirSvc = layer.Register(service + ".dir")
	d.ownSvc = layer.Register(service + ".own")
	for i, n := range nodes {
		if n < 0 {
			panic(fmt.Sprintf("dsm: negative node %d", n))
		}
		for len(d.idx) <= n {
			d.idx = append(d.idx, -1)
		}
		if d.idx[n] >= 0 {
			panic(fmt.Sprintf("dsm: duplicate node %d", n))
		}
		d.idx[n] = i
	}
	d.dirSvc.Handle(d.origin, d.handleDir)
	for _, n := range nodes {
		d.ownSvc.Handle(n, d.handleOwner)
	}
	return d
}

// Nodes returns the hypervisor instances participating in the DSM; the
// first entry is the origin.
func (d *DSM) Nodes() []int { return append([]int(nil), d.nodes...) }

// Origin returns the directory (bootstrap-slice) node.
func (d *DSM) Origin() int { return d.origin }

// NodeStats returns the counters for one node.
func (d *DSM) NodeStats(node int) Stats { return *d.mustStats(node) }

// TotalStats returns counters aggregated over all nodes.
func (d *DSM) TotalStats() Stats {
	var t Stats
	for i := range d.stats {
		t.add(d.stats[i])
	}
	return t
}

// PageState reports a node's local state for an explicitly-managed page.
func (d *DSM) PageState(node int, pg mem.PageID) State {
	r, ok := d.pages[pg]
	i := d.index(node)
	if !ok || r.held&(1<<i) == 0 {
		return Invalid
	}
	return r.local[i].state
}

// DirEntry exposes the directory record for tests: the owning node and the
// sorted copyset. ok is false for pages never explicitly accessed.
func (d *DSM) DirEntry(pg mem.PageID) (owner int, copyset []int, ok bool) {
	r, found := d.pages[pg]
	if !found || !r.inDir {
		return 0, nil, false
	}
	for i, n := range d.nodes {
		if r.copyset&(1<<i) != 0 {
			copyset = append(copyset, n)
		}
	}
	return r.owner, copyset, true
}

// MarkContextual tags a region's pages as CPU-context memory eligible for
// the contextual-DSM piggyback optimization.
func (d *DSM) MarkContextual(r mem.Region) {
	for i := int64(0); i < r.Pages; i++ {
		d.rec(r.Page(i)).contextual = true
	}
}

// index returns a member's dense index, panicking for non-members.
func (d *DSM) index(node int) int {
	if node < 0 || node >= len(d.idx) || d.idx[node] < 0 {
		panic(fmt.Sprintf("dsm: node %d not part of this DSM", node))
	}
	return d.idx[node]
}

func (d *DSM) mustStats(node int) *Stats { return &d.stats[d.index(node)] }

// Read returns a copy of the page's current contents at the node, running
// the coherence protocol if the node lacks a valid replica.
func (d *DSM) Read(p *sim.Proc, node int, pg mem.PageID) []byte {
	lp := d.ensure(p, node, d.rec(pg), false)
	out := make([]byte, mem.PageSize)
	copy(out, lp.data)
	return out
}

// Write stores data at the given offset in the page, acquiring exclusive
// ownership first.
func (d *DSM) Write(p *sim.Proc, node int, pg mem.PageID, off int, data []byte) {
	if off < 0 || off+len(data) > mem.PageSize {
		panic(fmt.Sprintf("dsm: write [%d,%d) outside page", off, off+len(data)))
	}
	r := d.rec(pg)
	if d.contextualWrite(p, node, r, off, data) {
		return
	}
	lp := d.ensure(p, node, r, true)
	copy(lp.writable()[off:], data)
}

// Touch performs an access for its coherence cost only, moving no payload
// bytes of the caller's.
func (d *DSM) Touch(p *sim.Proc, node int, pg mem.PageID, write bool) {
	r := d.rec(pg)
	if write && d.contextualWrite(p, node, r, 0, nil) {
		return
	}
	d.ensure(p, node, r, write)
}

// contextualWrite applies the piggyback fast path for context pages:
// every replica is updated in place at a fixed small cost, modelling the
// update riding an IPI that is being sent anyway (e.g. TLB shootdown).
func (d *DSM) contextualWrite(p *sim.Proc, node int, r *pageRec, off int, data []byte) bool {
	if !d.params.ContextualPiggyback || !r.contextual {
		return false
	}
	if !d.alive(node) {
		// A crashed slice must not update survivors' replicas in place.
		return true
	}
	ni := d.index(node)
	d.stats[ni].ContextualWrites++
	p.Sleep(contextualWriteCost)
	d.entry(r)
	if data != nil {
		for i := range r.local {
			if r.copyset&r.held&(1<<i) != 0 && r.local[i].state != Invalid {
				copy(r.local[i].writable()[off:], data)
			}
		}
	}
	// Ensure the writer holds a copy so subsequent local reads hit. Once
	// a second node holds the page the owner's replica is no longer
	// Exclusive — downgrade it, or the directory state lies.
	lp := d.replica(r, ni)
	if lp.state == Invalid {
		lp.state = Shared
		r.copyset |= 1 << ni
		if data != nil {
			copy(lp.writable()[off:], data)
		}
		if oi := d.index(r.owner); r.held&(1<<oi) != 0 && r.local[oi].state == Exclusive {
			r.local[oi].state = Shared
		}
	}
	return true
}

// ensure runs the coherence protocol until the node holds the page in at
// least the required state, returning the local replica. A remote fault
// charges the fault handler's CPU time before its request leaves, and
// the process parks once, until the grant is installed or a fence fails
// the wait.
func (d *DSM) ensure(p *sim.Proc, node int, r *pageRec, write bool) *localPage {
	ni := d.index(node)
	st := &d.stats[ni]
	lp := d.replica(r, ni)
	if lp.state == Exclusive || (!write && lp.state == Shared) {
		st.LocalHits++
		return lp
	}
	if !d.alive(node) {
		// A crashed slice's in-flight guest work is discarded at restart;
		// its faults must not reach (or block on) the directory.
		return lp
	}
	var sp trace.SpanID
	if d.tr != nil {
		name := "dsm.read"
		if write {
			name = "dsm.write"
		}
		sp = d.tr.Begin(p.Span(), trace.CatDSM, node, name)
	}
	if write {
		st.WriteFaults++
	} else {
		st.ReadFaults++
	}
	// The fault handler's CPU time is the request's departure delay:
	// sendFault sends it from a timer when the handler is done, so the
	// vCPU parks once for the whole fault, and the request leaves at the
	// (time, seq) a Sleep's wake-up would have sent it at.
	pf := d.newFault(r, ni, write)
	pf.span = sp
	d.env.DeferArg(faultHandler+d.params.UserSpaceExtra, sendFault, pf)
	if !d.layer.Wait(p, &pf.ev) {
		// MarkDead fenced the requester mid-fault: no grant will reach
		// it, and its in-flight guest work is discarded at restart.
		d.tr.End(sp)
		return lp
	}
	d.tr.End(sp)
	st.BytesMoved += pf.moved
	d.releaseFault(pf)
	if write && d.params.DirtyBitTracking && r.page != d.dirtyPage {
		// Hardware dirty-bit management writes the shared tracking
		// structure, itself kept coherent by the DSM.
		st.DirtyFaults++
		d.Touch(p, node, d.dirtyPage, true)
	}
	return lp
}

// sendFault sends a fault's request to the directory once the fault
// handler's CPU time has passed, and arms the fence for its requester's
// wait: a requester fenced in the meantime fails its wait now, one
// fenced later when MarkDead declares it.
func sendFault(a any) {
	pf := a.(*pendingFault)
	d := pf.d
	node := d.nodes[pf.ni]
	d.layer.Send(pf.span, node, d.origin, d.dirSvc, "fault", reqBytes, pf)
	d.layer.Watch(&pf.ev, node, d.origin)
}

// newFault returns a fault on r for the node with dense index ni, owned
// by its requester and the directory, reusing a released one if any. A
// reused fault is zeroed and its fields set one by one: assigning a whole
// pendingFault literal through the pointer would build it aside and copy
// all of it.
func (d *DSM) newFault(r *pageRec, ni int, write bool) *pendingFault {
	pf := take(&d.freeFaults)
	if pf == nil {
		pf = new(pendingFault)
	} else {
		*pf = pendingFault{}
	}
	pf.d, pf.rec, pf.ni, pf.write, pf.owners = d, r, ni, write, 2
	pf.dir.pf = pf
	return pf
}

// releaseFault drops one owner's hold on pf, recycling it after the last.
func (d *DSM) releaseFault(pf *pendingFault) {
	if pf.owners--; pf.owners == 0 {
		d.freeFaults = append(d.freeFaults, pf)
	}
}

// take pops the most recently freed entry off a free list, or returns the
// zero value when the list is empty.
func take[T any](free *[]T) (x T) {
	if n := len(*free) - 1; n >= 0 {
		x = (*free)[n]
		clear((*free)[n:])
		*free = (*free)[:n]
	}
	return x
}

// rec returns (lazily creating) the page's record. A new record holds no
// replica and no directory entry.
func (d *DSM) rec(pg mem.PageID) *pageRec {
	r, ok := d.pages[pg]
	if !ok {
		r = &pageRec{page: pg, local: make([]localPage, len(d.nodes))}
		d.pages[pg] = r
	}
	return r
}

// replica returns (materializing) the replica of the node with dense
// index i. A new replica is a zero page (nil buffer) and allocates no page
// bytes. The origin's replica of a page the directory does not track yet
// starts Exclusive: the bootstrap slice initially backs the whole guest
// physical space.
func (d *DSM) replica(r *pageRec, i int) *localPage {
	lp := &r.local[i]
	if r.held&(1<<i) == 0 {
		r.held |= 1 << i
		if i == 0 && !r.inDir {
			lp.state = Exclusive
		}
	}
	return lp
}

// entry enters the page into the directory if it is not there yet, owned
// by the origin, whose replica it materializes first.
func (d *DSM) entry(r *pageRec) {
	if !r.inDir {
		d.replica(r, 0)
		r.inDir, r.owner, r.copyset = true, d.origin, 1
	}
}

// lockProc takes the page lock for a process, waiting its turn behind
// the grants and processes queued before it.
func (d *DSM) lockProc(p *sim.Proc, r *pageRec) {
	if !r.locked {
		r.locked = true
		return
	}
	ev := new(sim.Event)
	r.waiters = append(r.waiters, lockWaiter{ev: ev})
	p.Wait(ev)
}

// unlock releases the page lock to its longest waiter, if any: a grant
// resumes one event later, a process is woken. The grant is deferred
// rather than run in place: unlock's callers (granted, and RestorePage's
// process) have the previous holder's work still to finish, and a lock
// handoff is rare enough that its event costs nothing measurable.
func (d *DSM) unlock(r *pageRec) {
	if len(r.waiters) == 0 {
		r.locked = false
		return
	}
	w := r.waiters[0]
	r.waiters[0] = lockWaiter{}
	r.waiters = r.waiters[1:]
	if w.pf != nil {
		d.env.DeferArg(0, dirGrant, w.pf)
	} else {
		w.ev.Fire()
	}
}

// Granting returns the pages whose directory grant is in flight, in
// ascending order: their lock is held by a grant that its requester has
// not acknowledged yet. The directory runs no process, so a run stalled
// on a grant (one to a crashed requester nobody has declared dead, say)
// shows it here rather than in the simulation's live processes.
func (d *DSM) Granting() []mem.PageID {
	var out []mem.PageID
	for pg, r := range d.pages {
		if r.locked {
			out = append(out, pg)
		}
	}
	slices.Sort(out)
	return out
}

// handleDir serves fault requests at the origin directory. As in the
// kernel implementation, a request is served from message callbacks under
// a per-page lock, with no process per request: concurrent faults on one
// page queue while faults on different pages proceed in parallel. Each
// step that waits on a reply continues in a CallThen continuation, so the
// directory's work on a fault is a chain of event callbacks on its
// pendingFault (dirStart, then grantRead or grantWrite, then sendGrant and
// granted), each step running in place in the event that made it ready.
// The page lock is held until the requester acknowledges installing the
// grant, which is what makes the protocol race-free: no replica can be
// resurrected by a grant that was in flight when ownership moved on.
func (d *DSM) handleDir(m *msg.Message) {
	pf := m.Payload.(*pendingFault)
	pf.dir.span = m.SpanID()
	d.dirStart(pf)
}

// dirStart opens the fault's dsm.dir span, a child of its request's
// delivery, and runs the grant once it holds the page lock.
func (d *DSM) dirStart(pf *pendingFault) {
	r := pf.rec
	if d.tr != nil {
		pf.dir.span = d.tr.Begin(pf.dir.span, trace.CatDSM, d.origin, "dsm.dir")
	}
	if r.locked {
		r.waiters = append(r.waiters, lockWaiter{pf: pf})
		return
	}
	r.locked = true
	dirGrant(pf)
}

// dirGrant runs the fault's grant under the page lock.
func dirGrant(a any) {
	pf := a.(*pendingFault)
	if pf.write {
		pf.d.grantWrite(pf)
	} else {
		pf.d.grantRead(pf)
	}
}

// sendGrant delivers pf's grant to the requester; granted runs on its
// ack. A requester fenced before acknowledging fails the call, and the
// grant gives up; MarkDead has reconciled the directory. The caller sets
// only the grant's carry and data; a carried page costs mem.PageSize on
// the wire even when data is nil.
func (d *DSM) sendGrant(pf *pendingFault) {
	g := &pf.grant
	g.pf = pf
	size := reqBytes
	if g.carry {
		size += mem.PageSize
	}
	d.layer.CallThen(pf.dir.span, d.origin, d.nodes[pf.ni], d.ownSvc, "grant", size, g, granted, pf)
}

// granted ends the directory's work on a fault once its grant is
// acknowledged or its requester fenced: it releases the page lock, then
// closes the dsm.dir span and releases the directory's hold on the fault.
func granted(a any, _ *msg.Message, _ bool) {
	pf := a.(*pendingFault)
	d := pf.d
	d.unlock(pf.rec)
	d.tr.End(pf.dir.span)
	d.env.MarkProgress()
	d.releaseFault(pf)
}

// grantRead adds the requester to the page's copyset, fetching the bytes
// from the current owner.
func (d *DSM) grantRead(pf *pendingFault) {
	r := pf.rec
	d.entry(r)
	if r.copyset&(1<<pf.ni) != 0 {
		// The requester already regained a copy (raced with an earlier
		// grant from this node): nothing to transfer.
		d.sendGrant(pf)
		return
	}
	pf.dir.fetch = true
	d.ask(&pf.dir, r.owner, "fetch")
}

// readFetched finishes a read grant once the owner's bytes are in it.
func (d *DSM) readFetched(pf *pendingFault) {
	r := pf.rec
	if d.alive(d.nodes[pf.ni]) {
		r.copyset |= 1 << pf.ni
	}
	d.reconcileOrigin(r)
	d.sendGrant(pf)
}

// grantWrite invalidates every other replica and transfers ownership (and,
// if the requester lacks a valid copy, the bytes) to the requester. The
// invalidations run in parallel, each a task of its own; the last to
// finish resumes the grant at transfer. All of them are counted before
// any starts, since one served at the origin finishes in place, and the
// grant must not go out while a remote one is still unanswered.
func (d *DSM) grantWrite(pf *pendingFault) {
	r := pf.rec
	d.entry(r)
	pf.hadCopy = r.copyset&(1<<pf.ni) != 0
	holders := r.copyset &^ (1 << pf.ni)
	pf.invLeft = bits.OnesCount32(holders)
	if pf.invLeft == 0 {
		d.transfer(pf)
		return
	}
	// Start them in the DSM's fixed node order: the start order of the
	// invalidations feeds the event sequence, and trace output must be
	// byte-identical across same-seed runs.
	for i, n := range d.nodes {
		if holders&(1<<i) != 0 {
			d.invStart(d.newInv(pf, n))
		}
	}
}

// newInv returns an invalidation task of pf on holder n, reusing a
// retired one if any.
func (d *DSM) newInv(pf *pendingFault, n int) *task {
	t := take(&d.freeTasks)
	if t == nil {
		t = new(task)
	}
	*t = task{pf: pf, n: n, inv: true}
	return t
}

// invStart runs one of grantWrite's invalidations under a dsm.inv span.
// The owner's replica is fetched-and-invalidated so its bytes reach the
// new owner, unless the requester already holds them.
func (d *DSM) invStart(t *task) {
	pf := t.pf
	r := pf.rec
	if d.tr != nil {
		t.span = d.tr.Begin(pf.dir.span, trace.CatDSM, d.origin, "dsm.inv")
	}
	if t.n == r.owner && !pf.hadCopy {
		t.fetch = true
		d.ask(t, r.owner, "invfetch")
		return
	}
	// A holder fenced mid-invalidation needs none: its replica is
	// unreachable and MarkDead dropped it from the copyset.
	d.ask(t, t.n, "inv")
}

// invDone retires one of grantWrite's invalidations: it closes its span
// and recycles the task, and the last one resumes the grant in place.
func (d *DSM) invDone(t *task) {
	pf := t.pf
	d.tr.End(t.span)
	d.env.MarkProgress()
	*t = task{}
	d.freeTasks = append(d.freeTasks, t)
	if pf.invLeft--; pf.invLeft == 0 {
		d.transfer(pf)
	}
}

// transfer makes the requester of a write grant the page's sole owner and
// sends the grant.
func (d *DSM) transfer(pf *pendingFault) {
	r := pf.rec
	g := &pf.grant
	r.owner, r.copyset = d.nodes[pf.ni], 1<<pf.ni
	if !d.alive(r.owner) {
		// MarkDead fenced the requester mid-grant: re-home the page as it
		// would have, with the bytes this grant collected.
		r.copyset = 0
		d.rehome(r)
		if g.carry {
			d.replica(r, 0).install(g.data)
		}
	}
	d.reconcileOrigin(r)
	d.sendGrant(pf)
}

// ask runs a fetch, invfetch or inv for t on node n's replica of the
// page: in place at the origin, by a call elsewhere. answered continues t
// with the reply, or with ok false when MarkDead fences n out before it
// answers.
func (d *DSM) ask(t *task, n int, kind string) {
	r := t.pf.rec
	if n == d.origin {
		d.answered(t, d.serve(r, 0, kind), true)
		return
	}
	d.layer.CallThen(t.span, d.origin, n, d.ownSvc, kind, reqBytes, r, askReply, t)
}

// askReply is ask's CallThen continuation.
func askReply(a any, reply *msg.Message, ok bool) {
	t := a.(*task)
	var data []byte
	if ok {
		data, _ = reply.Payload.([]byte)
	}
	t.pf.d.answered(t, data, ok)
}

// answered continues t once its ask is done. A fetch's bytes go into the
// grant. An owner fenced mid-fetch has been re-homed by MarkDead, so the
// fetch goes on to the successor MarkDead chose, as a plain fetch: the
// successor is a copyset member the grant invalidates on its own, or the
// origin standing in, which the grant settles afterwards. A read grant
// then sends its grant; an invalidation retires.
func (d *DSM) answered(t *task, data []byte, ok bool) {
	pf := t.pf
	if t.fetch {
		if !ok {
			d.ask(t, pf.rec.owner, "fetch")
			return
		}
		pf.grant.carry, pf.grant.data = true, data
	}
	if t.inv {
		d.invDone(t)
	} else {
		d.readFetched(pf)
	}
}

// handleOwner serves grant installations and fetch/invalidate requests at
// replica holders. All run synchronously at message delivery, so a node's
// replica state transitions exactly in fabric-delivery order. A fetch or
// invalidation carries the page's record. A grant reaches its requester
// exactly once, and never one fenced while it was in flight: the layer
// handles no message to a fenced node. Once installed, the grant's copy
// of the page is dead and goes back on the page free list.
func (d *DSM) handleOwner(m *msg.Message) {
	if m.Kind == "grant" {
		pf := m.Payload.(*grantMsg).pf
		lp := d.replica(pf.rec, pf.ni)
		if g := &pf.grant; g.carry {
			lp.install(g.data)
			if g.data != nil {
				d.freePages = append(d.freePages, g.data)
				g.data = nil
			}
			pf.moved = mem.PageSize
		}
		if pf.write {
			lp.state = Exclusive
		} else if lp.state == Invalid {
			lp.state = Shared
		}
		pf.ev.Fire()
		m.Reply(reqBytes, nil)
		return
	}
	size := reqBytes
	if m.Kind != "inv" {
		size += mem.PageSize
	}
	m.Reply(size, d.serve(m.Payload.(*pageRec), d.index(m.To), m.Kind))
}

// pageCopy returns a copy of a replica's bytes for a transfer, in a
// buffer from the page free list: nil for a zero page.
func (d *DSM) pageCopy(lp *localPage) []byte {
	if lp.data == nil {
		return nil
	}
	buf := take(&d.freePages)
	if buf == nil {
		buf = make([]byte, mem.PageSize)
	}
	copy(buf, lp.data)
	return buf
}

// serve applies a fetch, invfetch or inv to the replica of the node with
// dense index i, returning the bytes a fetch or invfetch hands over.
func (d *DSM) serve(r *pageRec, i int, kind string) []byte {
	lp := d.replica(r, i)
	switch kind {
	case "fetch":
		if lp.state == Exclusive {
			lp.state = Shared
		}
		return d.pageCopy(lp)
	case "invfetch":
		data := d.pageCopy(lp)
		lp.state = Invalid
		d.stats[i].Invalidations++
		return data
	case "inv":
		lp.state = Invalid
		d.stats[i].Invalidations++
		return nil
	}
	panic(fmt.Sprintf("dsm: unknown owner message kind %q", kind))
}
