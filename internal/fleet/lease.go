// Borrow leases: the contract behind every fragment of an Aggregate VM
// that lives on a node other than its home. The lender can reclaim; what
// that does to the borrower is the ReclaimPolicy — the experiment the
// paper's argument hinges on (consolidate, don't evict).
package fleet

import (
	"fmt"
	"slices"

	"repro/internal/sched"
	"repro/internal/sim"
)

// LeaseState is the lease's position in its lifecycle.
type LeaseState int

const (
	// LeaseActive: the borrower is using the lender's capacity.
	LeaseActive LeaseState = iota
	// LeaseReclaiming: the lender asked for its capacity back but the
	// fleet found no room to move the borrower yet; retried on every
	// capacity change.
	LeaseReclaiming
	// LeaseReleased: the capacity is back with the lender (consolidated
	// away, borrower departed, or borrower evicted).
	LeaseReleased
)

// String names the state.
func (s LeaseState) String() string {
	switch s {
	case LeaseActive:
		return "active"
	case LeaseReclaiming:
		return "reclaiming"
	case LeaseReleased:
		return "released"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Lease records one borrowed fragment: CPUs and memory of the lender
// node, used by the borrower VM.
type Lease struct {
	ID       int
	VM       int // borrower
	Node     int // lender
	CPUs     int
	MemBytes int64
	State    LeaseState

	Granted  sim.Time
	Released sim.Time
}

// Leases returns a copy of the full lease ledger, granted order.
func (f *Fleet) Leases() []Lease {
	out := make([]Lease, len(f.leases))
	for i, l := range f.leases {
		out[i] = *l
	}
	return out
}

// The ledger f.leases is append-only history: every lease ever granted,
// released ones included. f.live indexes the outstanding ones — every
// lease not yet released, in grant order — so the scans that skip
// released leases cost what the live books hold, not what the history
// holds. It has exactly two writers, each changing it in the same step
// as its Event (which keeps verify's memo sound): the grant in
// syncLeases appends, releaseLease removes. VerifyReport checks it
// against the ledger (VLeaseIndex).

// syncLeases reconciles the lease ledger with a VM's placement: the home
// fragment (sticky; re-elected only when it disappears) carries no lease,
// every other fragment exactly one.
func (f *Fleet) syncLeases(rec *vmRec) {
	pl, vmID, mpc := rec.pl, rec.req.ID, rec.req.memPerCPU()
	if pl.CPUs(rec.home) == 0 {
		rec.home = homeOf(pl)
	}
	h := rec.home
	// Releases shrink live, so the stale leases are gathered first and
	// released afterwards, still in grant order.
	var buf [4]*Lease
	stale, covered := buf[:0], 0
	for _, l := range f.live {
		if l.VM != vmID {
			continue
		}
		c := pl.CPUs(l.Node)
		if c == 0 || l.Node == h {
			stale = append(stale, l)
			continue
		}
		l.CPUs = c
		l.MemBytes = int64(c) * mpc
		covered++
	}
	for _, l := range stale {
		f.releaseLease(l)
	}
	if covered == len(pl)-1 {
		return // every non-home fragment has its lease
	}
	for _, fr := range pl {
		n := fr.Node
		if n == h || f.leaseOn(vmID, n) != nil {
			continue
		}
		l := &Lease{
			ID:       f.nextLease,
			VM:       vmID,
			Node:     n,
			CPUs:     fr.CPUs,
			MemBytes: int64(fr.CPUs) * mpc,
			State:    LeaseActive,
			Granted:  f.env.Now(),
		}
		f.nextLease++
		f.leases = append(f.leases, l)
		f.live = append(f.live, l)
		f.stats.Leases++
		f.log("lease", vmID, -1, n, l.CPUs, l.ID)
	}
}

// leaseOn returns the VM's outstanding lease on a node, or nil.
func (f *Fleet) leaseOn(vmID, node int) *Lease {
	for _, l := range f.live {
		if l.VM == vmID && l.Node == node {
			return l
		}
	}
	return nil
}

// releaseLease returns a lease's capacity to its lender and drops it
// from the outstanding list.
func (f *Fleet) releaseLease(l *Lease) {
	l.State = LeaseReleased
	l.Released = f.env.Now()
	if i := slices.Index(f.live, l); i >= 0 {
		f.live = slices.Delete(f.live, i, i+1)
	}
	f.log("release", l.VM, -1, l.Node, l.CPUs, l.ID)
}

// activeLeasesOn returns the lender node's outstanding leases, grant
// order. The result is a copy, so callers may release while they walk it.
func (f *Fleet) activeLeasesOn(node int) []*Lease {
	var out []*Lease
	for _, l := range f.live {
		if l.Node == node {
			out = append(out, l)
		}
	}
	return out
}

// lentOn sums the capacity a node has lent out through active leases.
func (f *Fleet) lentOn(node int) (cpus int, mem int64) {
	for _, l := range f.live {
		if l.Node == node {
			cpus += l.CPUs
			mem += l.MemBytes
		}
	}
	return cpus, mem
}

// Reclaim takes back every lease the node has granted, each by
// reclaimLease: the borrower's fragment migrates to other capacity under
// ReclaimConsolidate (deferred and retried if the fleet is full), the
// borrower is killed under ReclaimEvict, and ballooned down under
// ReclaimResize. The freed capacity then admits waiting requests.
func (f *Fleet) Reclaim(node int) {
	if node < 0 || node >= f.cfg.Nodes {
		panic(fmt.Sprintf("fleet: reclaim of node %d out of range", node))
	}
	f.log("reclaim", -1, -1, node, 0, -1)
	for _, l := range f.activeLeasesOn(node) {
		if !f.reclaimLease(l) {
			l.State = LeaseReclaiming
			f.stats.ReclaimsDeferred++
			f.log("reclaim-defer", l.VM, -1, node, l.CPUs, l.ID)
		}
	}
	f.drainQueue()
	f.consolidateAll()
	f.verify()
}

// reclaimAs is the policy one lease is reclaimed by: the fleet's, except
// that a borrower bound to a live Aggregate VM is consolidated under
// ReclaimResize, since it cannot shrink its vCPU set in place.
func (f *Fleet) reclaimAs(l *Lease) ReclaimPolicy {
	if f.cfg.Reclaim == ReclaimResize && f.vm(l.VM).bound != nil {
		return ReclaimConsolidate
	}
	return f.cfg.Reclaim
}

// reclaimLease takes one lease's capacity back as reclaimAs says: it
// evicts the borrower, balloons it down, or relocates its fragment. It
// returns false, having changed nothing, only when a relocation finds no
// room. A balloon or relocation counts a reclaim and logs reclaim-done;
// an eviction counts as an eviction only.
func (f *Fleet) reclaimLease(l *Lease) bool {
	switch f.reclaimAs(l) {
	case ReclaimEvict:
		f.evictVM(l.VM)
		return true
	case ReclaimResize:
		f.balloonLease(l)
	case ReclaimConsolidate:
		if !f.relocate(l.VM, l.Node) {
			return false
		}
	}
	f.stats.Reclaims++
	f.log("reclaim-done", l.VM, l.Node, -1, 0, l.ID)
	return true
}

// retryReclaims re-attempts every lease stuck in LeaseReclaiming, in
// grant order. The stuck set is taken first: relocating a fragment
// releases only that fragment's lease, and what it grants is active,
// never stuck.
func (f *Fleet) retryReclaims() {
	var stuck []*Lease
	for _, l := range f.live {
		if l.State == LeaseReclaiming {
			stuck = append(stuck, l)
		}
	}
	for _, l := range stuck {
		f.reclaimLease(l)
	}
}

// relocate moves a VM's whole fragment off the src node: first into the
// VM's existing slices, then onto any other capacity (which may grant new
// leases). All-or-nothing; reports whether it happened.
func (f *Fleet) relocate(vmID, src int) bool {
	rec := f.vm(vmID)
	eff := f.effective(rec.req.memPerCPU())
	eff[src] = 0
	target, ok := f.placeFragment(eff, rec, src, rec.pl.CPUs(src))
	if !ok {
		return false
	}
	for _, fr := range target {
		if !f.moveAccounting(rec, src, fr.Node, fr.CPUs) {
			panic(fmt.Sprintf("fleet: planned relocation of VM %d from node %d went stale", vmID, src))
		}
	}
	f.settle(rec)
	return true
}

// placeFragment gang-places k of a VM's vCPUs given an
// effective-capacity vector, preferring the VM's existing slice nodes
// (consolidation) before spilling onto new lenders. With a topology
// oracle, the spill anchors on the VM's surviving slices so new borrow
// sets cluster around the gang instead of scattering across the spine.
// A bound VM's vCPUs can run only on its live slices, so for one it
// first zeroes eff on every other node.
func (f *Fleet) placeFragment(eff []int, rec *vmRec, src, k int) (sched.Placement, bool) {
	if b := rec.bound; b != nil {
		nodes := b.vm.Nodes()
		for n := range eff {
			if !slices.Contains(nodes, n) || !b.vm.Alive(n) {
				eff[n] = 0
			}
		}
	}
	own := make([]int, len(eff))
	var near []int
	for _, fr := range rec.pl {
		if n := fr.Node; n != src {
			own[n] = eff[n]
			near = append(near, n)
		}
	}
	if target, ok := sched.FragPlacement(own, k, f.cfg.Policy, f.cfg.Distance, nil); ok {
		return target, true
	}
	return sched.FragPlacement(eff, k, f.cfg.Policy, f.cfg.Distance, near)
}

// reclaimFor is admission-driven reclaim: if some lender node could host
// the whole request once its lent capacity returned, reclaim every lease
// there (reclaimLease) and place the request on it. All-or-nothing: a
// lender is reclaimed only when reclaimFits says every lease can go, so
// otherwise nothing moves and the request keeps waiting.
func (f *Fleet) reclaimFor(r Request) bool {
	mpc := r.memPerCPU()
	for n := 0; n < f.cfg.Nodes; n++ {
		if f.down[n] {
			continue
		}
		lentC, lentM := f.lentOn(n)
		if lentC == 0 ||
			f.freeCPU[n]+lentC < r.VCPUs ||
			f.freeMem[n]+lentM < int64(r.VCPUs)*mpc ||
			!f.reclaimFits(n) {
			continue
		}
		f.log("reclaim", r.ID, -1, n, r.VCPUs, -1)
		for _, l := range f.activeLeasesOn(n) {
			if !f.reclaimLease(l) {
				panic(fmt.Sprintf("fleet: planned reclaim of node %d went stale", n))
			}
		}
		f.commit(r, sched.Placement{{Node: n, CPUs: r.VCPUs}}, "admit")
		return true
	}
	return false
}

// reclaimFits reports whether reclaimLease can take back every lease on
// the lender node. Evictions and balloons always can; each lease that
// reclaimAs consolidates is planned in grant order on scratch books that
// already hold the earlier plans, exactly as reclaimLease would commit
// them. The scratch books are made only once such a lease turns up.
func (f *Fleet) reclaimFits(node int) bool {
	var cpu, eff []int
	var mem []int64
	for _, l := range f.live {
		if l.Node != node || f.reclaimAs(l) != ReclaimConsolidate {
			continue
		}
		if eff == nil {
			cpu, mem, eff = slices.Clone(f.freeCPU), slices.Clone(f.freeMem), make([]int, f.cfg.Nodes)
		}
		rec := f.vm(l.VM)
		mpc := rec.req.memPerCPU()
		for i := range eff {
			eff[i] = 0
			if !f.down[i] && i != node {
				eff[i] = f.effCap(cpu[i], mem[i], mpc)
			}
		}
		target, ok := f.placeFragment(eff, rec, node, rec.pl.CPUs(node))
		if !ok {
			return false
		}
		for _, fr := range target {
			cpu[fr.Node] -= fr.CPUs
			mem[fr.Node] -= int64(fr.CPUs) * mpc
		}
	}
	return true
}

// evictVM kills a borrower: the baseline behavior the paper argues
// against. Its resources return to the lenders; it is not re-queued.
func (f *Fleet) evictVM(vmID int) {
	rec := f.vm(vmID)
	if rec == nil {
		return
	}
	if rec.bound != nil {
		panic(fmt.Sprintf("fleet: refusing to evict VM %d bound to a live Aggregate VM", vmID))
	}
	f.release(vmID)
	f.stats.Evictions++
	f.log("evict", vmID, -1, -1, 0, -1)
}
