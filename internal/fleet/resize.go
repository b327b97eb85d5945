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

	"repro/internal/sim"
)

// residentCPU returns a VM's currently placed vCPUs.
func (rec *vmRec) residentCPU() int64 {
	var resident int64
	for _, fr := range rec.pl {
		resident += int64(fr.CPUs)
	}
	return resident
}

// accrueWork brings a VM's progress accounting up to now: a VM with r of
// p provisioned vCPUs resident completes elapsed x r work units over an
// interval in which its size did not change. Callers must accrue BEFORE
// any resident-size change, so each interval is charged at the rate that
// actually held during it. Integer arithmetic throughout — two runs with
// the same seed accrue bit-identically.
func (f *Fleet) accrueWork(rec *vmRec) {
	now := f.env.Now()
	if now == rec.lastAccrue {
		return
	}
	elapsed := int64(now - rec.lastAccrue)
	rec.lastAccrue = now
	if rec.ballooned > 0 {
		f.stats.BalloonedTime += sim.Time(elapsed * rec.ballooned)
	}
	if rec.req.Duration > 0 {
		rec.workDone += elapsed * (int64(rec.req.VCPUs) - rec.ballooned)
	}
}

// rearmDeparture re-schedules a timed VM's finish from the exact work it
// still owes at its current resident size: delay = ceil(remaining /
// resident). At full size this reduces to the original Duration timer.
// Work must already be accrued to now.
func (f *Fleet) rearmDeparture(rec *vmRec) {
	if rec.req.Duration <= 0 {
		return
	}
	rem := max(rec.workNeeded-rec.workDone, 0)
	res := rec.residentCPU()
	if res <= 0 {
		panic(fmt.Sprintf("fleet: VM %d resized to zero resident vCPUs", rec.req.ID))
	}
	delay := sim.Time((rem + res - 1) / res)
	rec.timer.Cancel()
	rec.endAt = f.env.Now() + delay
	id := rec.req.ID
	rec.timer = f.env.After(delay, func() { f.depart(id) })
}

// balloonLease resolves a reclaim by inflating the borrower's balloon:
// the whole leased fragment returns to the lender immediately and the
// VM shrinks. Never defers and never fails — that immediacy is the
// policy's selling point; the slowdown is its price.
func (f *Fleet) balloonLease(l *Lease) {
	rec, node := f.vm(l.VM), l.Node
	k := rec.pl.CPUs(node)
	if k == 0 {
		return
	}
	f.accrueWork(rec)
	f.vacate(rec, node, k)
	rec.pl.Add(node, -k)
	rec.inflate(int64(k))
	f.stats.Inflations++
	f.stats.InflatedVCPUs += k
	f.log("inflate", l.VM, node, -1, k, l.ID)
	f.syncLeases(rec) // releases the now-fragmentless lease
	f.rearmDeparture(rec)
}

// inflate pins k of the VM's vCPUs into its balloon. The balloon can
// never hold more than the VM was provisioned.
func (rec *vmRec) inflate(k int64) {
	if k < 0 || rec.ballooned+k > int64(rec.req.VCPUs) {
		panic(fmt.Sprintf("fleet: inflating VM %d by %d exceeds provisioned %d (ballooned %d)",
			rec.req.ID, k, rec.req.VCPUs, rec.ballooned))
	}
	rec.ballooned += k
}

// deflate returns k vCPUs from the VM's balloon. Deflating more than is
// pinned panics.
func (rec *vmRec) deflate(k int64) {
	if k < 0 || k > rec.ballooned {
		panic(fmt.Sprintf("fleet: deflating VM %d by %d exceeds ballooned %d", rec.req.ID, k, rec.ballooned))
	}
	rec.ballooned -= k
}

// deflateAll re-inflates resized VMs: every ballooned vCPU the current
// effective capacity can hold is re-granted, preferring the VM's own
// slices before new lenders (new fragments get leases as usual). Runs
// from maintain and the rebalance tick — never from Reclaim itself, so
// reclaimed capacity is not handed straight back to the VM it was just
// taken from. VMs are visited in ID order; deflating one admits and
// releases no VM and touches no other VM's balloon.
func (f *Fleet) deflateAll() {
	if f.cfg.Reclaim != ReclaimResize {
		return
	}
	for _, rec := range f.vms {
		if rec.ballooned > 0 {
			f.deflateVM(rec)
		}
	}
}

// deflateVM returns as much of one VM's balloon as fits anywhere,
// all-or-nothing per attempt: try the full balloon first, then the
// largest placeable remainder. Partial deflation is normal — the rest
// stays ballooned until more capacity frees up.
func (f *Fleet) deflateVM(rec *vmRec) {
	eff := f.effective(rec.req.memPerCPU())
	var room int64
	for _, e := range eff {
		room += int64(e)
	}
	for k := min(rec.ballooned, room); k > 0; k-- {
		target, ok := f.placeFragment(eff, rec, -1, int(k))
		if !ok {
			continue
		}
		f.accrueWork(rec)
		for _, fr := range target {
			f.occupy(rec, fr.Node, fr.CPUs)
			rec.pl.Add(fr.Node, fr.CPUs)
		}
		rec.deflate(k)
		f.stats.Deflations++
		f.stats.DeflatedVCPUs += int(k)
		f.log("deflate", rec.req.ID, -1, -1, int(k), -1)
		f.syncLeases(rec)
		f.rearmDeparture(rec)
		return
	}
}
