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

	Granted   sim.Time
	Reclaimed sim.Time // when reclaim was first requested (zero if never)
	Released  sim.Time
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
func (f *Fleet) syncLeases(vmID int) {
	pl, ok := f.placements[vmID]
	if !ok {
		return
	}
	h := f.home[vmID]
	if pl[h] == 0 {
		h = homeOf(pl)
		f.home[vmID] = h
	}
	// Releases shrink live, so the stale leases are gathered first and
	// released afterwards, still in grant order.
	var buf [4]*Lease
	stale, covered := buf[:0], 0
	for _, l := range f.live {
		if l.VM != vmID {
			continue
		}
		if pl[l.Node] == 0 || l.Node == h {
			stale = append(stale, l)
			continue
		}
		l.CPUs = pl[l.Node]
		l.MemBytes = int64(pl[l.Node]) * f.reqs[vmID].memPerCPU()
		covered++
	}
	for _, l := range stale {
		f.releaseLease(l)
	}
	if covered == len(pl)-1 {
		return // every non-home fragment has its lease
	}
	for _, n := range pl.Nodes() {
		if n == h || f.leaseOn(vmID, n) != nil {
			continue
		}
		l := &Lease{
			ID:       f.nextLease,
			VM:       vmID,
			Node:     n,
			CPUs:     pl[n],
			MemBytes: int64(pl[n]) * f.reqs[vmID].memPerCPU(),
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

// Reclaim takes back every lease the node has granted. Under
// ReclaimConsolidate each borrower's fragment migrates to other capacity
// (deferred and retried if the fleet is full); under ReclaimEvict the
// borrowers are killed. The freed capacity then admits waiting requests.
func (f *Fleet) Reclaim(node int) {
	if node < 0 || node >= f.cfg.Nodes {
		panic(fmt.Sprintf("fleet: reclaim of node %d out of range", node))
	}
	f.log("reclaim", -1, -1, node, 0, -1)
	var work []liveMove
	for _, l := range f.activeLeasesOn(node) {
		pol := f.cfg.Reclaim
		if pol == ReclaimResize && f.bound[l.VM] != nil {
			// A live Aggregate VM cannot shrink its vCPU set in place;
			// fall back to consolidation for bound borrowers.
			pol = ReclaimConsolidate
		}
		switch pol {
		case ReclaimEvict:
			f.evictVM(l.VM)
		case ReclaimResize:
			if l.Reclaimed == 0 {
				l.Reclaimed = f.env.Now()
			}
			f.balloonLease(l)
			f.stats.Reclaims++
			f.log("reclaim-done", l.VM, node, -1, 0, l.ID)
		case ReclaimConsolidate:
			if l.Reclaimed == 0 {
				l.Reclaimed = f.env.Now()
			}
			mv, ok := f.relocate(l.VM, node)
			if !ok {
				l.State = LeaseReclaiming
				f.stats.ReclaimsDeferred++
				f.log("reclaim-defer", l.VM, -1, node, l.CPUs, l.ID)
				continue
			}
			work = append(work, mv...)
			f.stats.Reclaims++
			f.log("reclaim-done", l.VM, node, -1, 0, l.ID)
		}
	}
	f.drainQueue()
	work = append(work, f.consolidateAll()...)
	f.runLive(work)
	f.verify()
}

// retryReclaims re-attempts every lease stuck in LeaseReclaiming, in
// grant order. Each relocation may release leases and grant new ones, so
// the stuck set is taken first and each lease re-checked when its turn
// comes: one released meanwhile is skipped, and a new grant is active,
// never stuck.
func (f *Fleet) retryReclaims() []liveMove {
	var stuck []*Lease
	for _, l := range f.live {
		if l.State == LeaseReclaiming {
			stuck = append(stuck, l)
		}
	}
	var work []liveMove
	for _, l := range stuck {
		if l.State != LeaseReclaiming {
			continue
		}
		mv, ok := f.relocate(l.VM, l.Node)
		if !ok {
			continue
		}
		work = append(work, mv...)
		f.stats.Reclaims++
		f.log("reclaim-done", l.VM, l.Node, -1, 0, l.ID)
	}
	return work
}

// relocate moves a VM's whole fragment off the src node: first into the
// VM's existing slices, then onto any other capacity (which may grant new
// leases). All-or-nothing; reports whether it happened.
func (f *Fleet) relocate(vmID, src int) ([]liveMove, bool) {
	pl := f.placements[vmID]
	if pl == nil || pl[src] == 0 {
		return nil, true // fragment already gone
	}
	k := pl[src]
	eff := f.effective(f.reqs[vmID].memPerCPU())
	eff[src] = 0
	target, ok := f.placeFragment(eff, pl, src, k)
	if !ok {
		return nil, false
	}
	var work []liveMove
	for _, dst := range target.Nodes() {
		if !f.moveAccounting(vmID, src, dst, target[dst]) {
			panic(fmt.Sprintf("fleet: planned relocation of VM %d from node %d went stale", vmID, src))
		}
		work = append(work, liveMove{vmID, src, dst, target[dst]})
	}
	f.syncLeases(vmID)
	if len(f.placements[vmID]) == 1 {
		f.stats.Handbacks++
		f.log("handback", vmID, -1, f.placements[vmID].Nodes()[0], 0, -1)
	}
	return work, true
}

// placeFragment gang-places k vCPUs given an effective-capacity vector,
// preferring the VM's existing slice nodes (consolidation) before
// spilling onto new lenders. With a topology oracle, the spill anchors on
// the VM's surviving slices so new borrow sets cluster around the gang
// instead of scattering across the spine.
func (f *Fleet) placeFragment(eff []int, pl sched.Placement, src, k int) (sched.Placement, bool) {
	own := make([]int, len(eff))
	var near []int
	for _, n := range pl.Nodes() {
		if n != src {
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
// the whole request once its lent capacity returned, reclaim it (per
// policy) and place the request there. All-or-nothing — if the borrowers
// cannot all be relocated, nothing moves and the request keeps waiting.
func (f *Fleet) reclaimFor(r Request) bool {
	mpc := r.memPerCPU()
	for n := 0; n < f.cfg.Nodes; n++ {
		if f.down[n] {
			continue
		}
		lentC, lentM := f.lentOn(n)
		if lentC == 0 ||
			f.freeCPU[n]+lentC < r.VCPUs ||
			f.freeMem[n]+lentM < int64(r.VCPUs)*mpc {
			continue
		}
		if f.cfg.Reclaim == ReclaimEvict {
			f.log("reclaim", r.ID, -1, n, r.VCPUs, -1)
			for _, l := range f.activeLeasesOn(n) {
				f.evictVM(l.VM)
			}
			if f.freeCPU[n] < r.VCPUs || f.freeMem[n] < int64(r.VCPUs)*mpc {
				continue // eviction freed less than the lease books said
			}
			f.commit(r, sched.Placement{n: r.VCPUs}, "admit")
			return true
		}
		if f.cfg.Reclaim == ReclaimResize {
			if f.anyBound(n) {
				continue // bound borrowers cannot be resized in place
			}
			f.log("reclaim", r.ID, -1, n, r.VCPUs, -1)
			for _, l := range f.activeLeasesOn(n) {
				f.balloonLease(l)
				f.stats.Reclaims++
				f.log("reclaim-done", l.VM, n, -1, 0, l.ID)
			}
			if f.freeCPU[n] < r.VCPUs || f.freeMem[n] < int64(r.VCPUs)*mpc {
				continue // ballooning freed less than the lease books said
			}
			f.commit(r, sched.Placement{n: r.VCPUs}, "admit")
			return true
		}
		work, ok := f.relocateAllFrom(n)
		if !ok {
			continue
		}
		f.log("reclaim", r.ID, -1, n, r.VCPUs, -1)
		for _, l := range work.done {
			f.stats.Reclaims++
			f.log("reclaim-done", l.VM, n, -1, 0, l.ID)
		}
		f.commit(r, sched.Placement{n: r.VCPUs}, "admit")
		f.runLive(work.moves)
		return true
	}
	return false
}

// anyBound reports whether any borrower on the node is bound to a live
// Aggregate VM.
func (f *Fleet) anyBound(node int) bool {
	for _, l := range f.activeLeasesOn(node) {
		if f.bound[l.VM] != nil {
			return true
		}
	}
	return false
}

// relocationPlan is the committed result of vacating one lender node.
type relocationPlan struct {
	moves []liveMove
	done  []*Lease
}

// relocateAllFrom vacates every lease on a lender node atomically: the
// full set of relocations is planned against scratch books first, and
// only a complete plan is committed.
func (f *Fleet) relocateAllFrom(node int) (relocationPlan, bool) {
	scratchCPU := append([]int(nil), f.freeCPU...)
	scratchMem := append([]int64(nil), f.freeMem...)
	leases := f.activeLeasesOn(node)
	type planned struct {
		l      *Lease
		target sched.Placement
	}
	var plans []planned
	for _, l := range leases {
		pl := f.placements[l.VM]
		k := pl[node]
		mpc := f.reqs[l.VM].memPerCPU()
		eff := make([]int, f.cfg.Nodes)
		for i := range eff {
			if !f.down[i] && i != node {
				eff[i] = f.effCap(scratchCPU[i], scratchMem[i], mpc)
			}
		}
		target, ok := f.placeFragment(eff, pl, node, k)
		if !ok {
			return relocationPlan{}, false
		}
		for _, dst := range target.Nodes() {
			scratchCPU[dst] -= target[dst]
			scratchMem[dst] -= int64(target[dst]) * mpc
		}
		plans = append(plans, planned{l, target})
	}
	var out relocationPlan
	for _, p := range plans {
		for _, dst := range p.target.Nodes() {
			if !f.moveAccounting(p.l.VM, node, dst, p.target[dst]) {
				panic(fmt.Sprintf("fleet: atomic relocation plan for node %d went stale", node))
			}
			out.moves = append(out.moves, liveMove{p.l.VM, node, dst, p.target[dst]})
		}
		f.syncLeases(p.l.VM)
		if len(f.placements[p.l.VM]) == 1 {
			f.stats.Handbacks++
			f.log("handback", p.l.VM, -1, f.placements[p.l.VM].Nodes()[0], 0, -1)
		}
		out.done = append(out.done, p.l)
	}
	return out, true
}

// evictVM kills a borrower: the baseline behavior the paper argues
// against. Its resources return to the lenders; it is not re-queued.
func (f *Fleet) evictVM(vmID int) {
	if _, ok := f.placements[vmID]; !ok {
		return
	}
	if f.bound[vmID] != nil {
		panic(fmt.Sprintf("fleet: refusing to evict VM %d bound to a live Aggregate VM", vmID))
	}
	f.release(vmID)
	f.stats.Evictions++
	f.log("evict", vmID, -1, -1, 0, -1)
}
