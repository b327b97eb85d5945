// Dynamic resize: the ReclaimResize policy's mechanics. Instead of
// migrating (consolidate) or killing (evict) a borrower when its lender
// reclaims, the fleet balloons the borrower down — the leased fragment
// is surrendered on the spot, the VM keeps running on its remaining
// fragments at proportionally reduced speed, and the balloon deflates
// back into free capacity as it appears. This is the paper's "reduce"
// baseline: it never evicts and never waits for relocation room, but
// every reclaimed vCPU-second is paid for in VM slowdown, which the
// three-way policy tables expose.
package fleet

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// residentCPU returns a VM's currently placed vCPUs.
func (f *Fleet) residentCPU(vmID int) int64 {
	var resident int64
	for _, c := range f.placements[vmID] {
		resident += int64(c)
	}
	return resident
}

// accrueWork brings a VM's progress accounting up to now: a VM with r of
// p provisioned vCPUs resident completes elapsed x r work units over an
// interval in which its size did not change. Callers must accrue BEFORE
// any resident-size change, so each interval is charged at the rate that
// actually held during it. Integer arithmetic throughout — two runs with
// the same seed accrue bit-identically.
func (f *Fleet) accrueWork(vmID int) {
	last, ok := f.lastAccrue[vmID]
	if !ok {
		return
	}
	now := f.env.Now()
	if now == last {
		return
	}
	f.lastAccrue[vmID] = now
	elapsed := int64(now - last)
	prov := int64(f.reqs[vmID].VCPUs)
	res := prov - f.ballooned.Ballooned(vmID)
	if res < prov {
		f.stats.BalloonedTime += sim.Time(elapsed * (prov - res))
	}
	if _, timed := f.workNeeded[vmID]; timed {
		f.workDone[vmID] += elapsed * res
	}
}

// rearmDeparture re-schedules a timed VM's finish from the exact work it
// still owes at its current resident size: delay = ceil(remaining /
// resident). At full size this reduces to the original Duration timer.
// Work must already be accrued to now.
func (f *Fleet) rearmDeparture(vmID int) {
	need, ok := f.workNeeded[vmID]
	if !ok {
		return
	}
	rem := need - f.workDone[vmID]
	if rem < 0 {
		rem = 0
	}
	res := f.residentCPU(vmID)
	if res <= 0 {
		panic(fmt.Sprintf("fleet: VM %d resized to zero resident vCPUs", vmID))
	}
	delay := sim.Time((rem + res - 1) / res)
	if tm := f.timers[vmID]; tm != nil {
		tm.Cancel()
	}
	f.endAt[vmID] = f.env.Now() + delay
	id := vmID
	f.timers[vmID] = f.env.After(delay, func() { f.depart(id) })
}

// balloonLease resolves a reclaim by inflating the borrower's balloon:
// the whole leased fragment returns to the lender immediately and the
// VM shrinks. Never defers and never fails — that immediacy is the
// policy's selling point; the slowdown is its price.
func (f *Fleet) balloonLease(l *Lease) {
	vmID, node := l.VM, l.Node
	pl := f.placements[vmID]
	k := pl[node]
	if k == 0 {
		return
	}
	f.accrueWork(vmID)
	mpc := f.reqs[vmID].memPerCPU()
	if !f.down[node] {
		f.freeCPU[node] += k
		f.freeMem[node] += int64(k) * mpc
	}
	delete(pl, node)
	f.ballooned.Inflate(vmID, int64(k))
	f.stats.Inflations++
	f.stats.InflatedVCPUs += k
	f.log("inflate", vmID, node, -1, k, l.ID)
	f.syncLeases(vmID) // releases the now-fragmentless lease
	f.rearmDeparture(vmID)
}

// deflateAll re-inflates resized VMs: every ballooned vCPU the current
// effective capacity can hold is re-granted, preferring the VM's own
// slices before new lenders (new fragments get leases as usual). Runs
// from maintain and the rebalance tick — never from Reclaim itself, so
// reclaimed capacity is not handed straight back to the VM it was just
// taken from.
func (f *Fleet) deflateAll() {
	if f.cfg.Reclaim != ReclaimResize {
		return
	}
	var ids []int
	for id := range f.placements {
		if f.ballooned.Ballooned(id) > 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		f.deflateVM(id)
	}
}

// deflateVM returns as much of one VM's balloon as fits anywhere,
// all-or-nothing per attempt: try the full balloon first, then the
// largest placeable remainder. Partial deflation is normal — the rest
// stays ballooned until more capacity frees up.
func (f *Fleet) deflateVM(vmID int) {
	b := f.ballooned.Ballooned(vmID)
	mpc := f.reqs[vmID].memPerCPU()
	eff := f.effective(mpc)
	var room int64
	for _, e := range eff {
		room += int64(e)
	}
	k := b
	if room < k {
		k = room
	}
	pl := f.placements[vmID]
	for ; k > 0; k-- {
		target, ok := f.placeFragment(eff, pl, -1, int(k))
		if !ok {
			continue
		}
		f.accrueWork(vmID)
		for _, dst := range target.Nodes() {
			c := target[dst]
			if f.down[dst] || f.freeCPU[dst] < c || f.freeMem[dst] < int64(c)*mpc {
				panic(fmt.Sprintf("fleet: deflation placement of VM %d went stale", vmID))
			}
			f.freeCPU[dst] -= c
			f.freeMem[dst] -= int64(c) * mpc
			pl[dst] += c
		}
		f.ballooned.Deflate(vmID, k)
		f.stats.Deflations++
		f.stats.DeflatedVCPUs += int(k)
		f.log("deflate", vmID, -1, -1, int(k), -1)
		f.syncLeases(vmID)
		f.rearmDeparture(vmID)
		return
	}
}
