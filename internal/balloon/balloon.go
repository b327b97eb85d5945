// Package balloon models memory ballooning and dynamic resize — the
// "reduce" arm of the paper's reduce/evict/borrow trichotomy.
//
// Ballooning is the canonical mechanism for reclaiming memory from a
// running VM without migrating or killing it: a driver inside the guest
// pins free pages and hands them back to the host (inflation), and
// returns them when the host frees capacity up (deflation). The package
// has two parts:
//
//   - Estimator: a peak/decay EWMA working-set estimator fed by the
//     guest allocator's telemetry stream.
//   - Driver: the per-VM balloon device. Inflation and deflation are
//     guest-visible operations against internal/guest's node heaps,
//     charged the same zone-lock + page-table-update costs an
//     allocation pays; a VM ballooned below its working set pays a
//     simulated reclaim/swap stall on every further allocation, so
//     "reduce" has a measurable slowdown instead of being free.
//
// The reduce experiment drives a Driver against a live FragVisor guest;
// internal/fleet's ReclaimPolicy ReclaimResize keeps its own per-VM
// balloon books in vCPU quanta.
package balloon

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/sim"
	"repro/internal/trace"
)

// What ballooning charges the guest. Batches are sized like a
// virtio-balloon pfn array (256 entries); the reclaim stall approximates
// a compressed-swap (zswap-like) round trip rather than a disk fault.
const (
	// batchPages is how many pages one balloon PTE-update batch covers.
	// Each batch pays the guest's zone-lock + page-table-update path
	// (guest.Kernel.BalloonWork) plus perBatchCPU of driver work.
	batchPages = 256
	// perBatchCPU is the balloon driver's own CPU per batch: walking
	// the free lists, building the pfn array for the host.
	perBatchCPU = 2 * sim.Microsecond
	// reclaimPerPage is the simulated reclaim/swap stall charged per
	// newly allocated page while the VM is ballooned below its working
	// set — the guest has to evict something it still needs.
	reclaimPerPage = 8 * sim.Microsecond
	// ewmaAlpha is the working-set estimator's decay factor.
	ewmaAlpha = 0.2
)

// Stats counts the driver's activity.
type Stats struct {
	Inflations    int64    // Inflate calls that pinned at least one page
	Deflations    int64    // Deflate calls that returned at least one page
	InflatedPages int64    // total pages pinned
	DeflatedPages int64    // total pages returned
	Stalls        int64    // allocations that hit the reclaim path
	StallTime     sim.Time // total simulated reclaim/swap stall
}

// Driver is one VM's balloon device: the host's handle for resizing the
// guest. It registers itself as the guest allocator's MemObserver, so it
// sees every anonymous allocation and unmap — that stream feeds the
// working-set estimator and, when the VM is ballooned below the working
// set, charges the degradation stall to the allocating process.
type Driver struct {
	k   *guest.Kernel
	est *Estimator
	tr  *trace.Tracer

	allocated int64 // mirror of the guest's allocated-page total
	stats     Stats
}

// NewDriver attaches a balloon device to k and installs its telemetry
// hook. The driver traces inflate/deflate instants under CatBalloon when
// env is traced.
func NewDriver(env *sim.Env, k *guest.Kernel) *Driver {
	d := &Driver{
		k:   k,
		est: NewEstimator(ewmaAlpha),
		tr:  trace.FromEnv(env),
	}
	k.SetMemObserver(d)
	return d
}

// Inflate pins up to pages free pages of node's arena for the host and
// returns how many were actually taken (the guest never surrenders
// allocated pages). The pinning process p pays one zone-lock +
// page-table-update batch per batchPages pinned.
func (d *Driver) Inflate(p *sim.Proc, node, vcpu int, pages int64) int64 {
	took := d.k.BalloonReserve(node, pages)
	if took == 0 {
		return 0
	}
	d.stats.Inflations++
	d.stats.InflatedPages += took
	d.chargeBatches(p, node, vcpu, took, "inflate")
	return took
}

// Deflate returns pages pinned pages of node's arena to the guest.
// Like inflation, each batch pays the full mapping-change path.
func (d *Driver) Deflate(p *sim.Proc, node, vcpu int, pages int64) {
	if pages == 0 {
		return
	}
	d.k.BalloonReturn(node, pages)
	d.stats.Deflations++
	d.stats.DeflatedPages += pages
	d.chargeBatches(p, node, vcpu, pages, "deflate")
}

func (d *Driver) chargeBatches(p *sim.Proc, node, vcpu int, pages int64, kind string) {
	batches := (pages + batchPages - 1) / batchPages
	for i := int64(0); i < batches; i++ {
		d.k.BalloonWork(p, node, vcpu)
		p.Sleep(perBatchCPU)
	}
	d.tr.Instant(p.Span(), trace.CatBalloon, node, d.tr.Key("balloon", kind))
}

// AllocPages is the guest allocator's telemetry hook (guest.MemObserver).
// Every successful allocation updates the working-set estimate; if the
// VM is currently resized below that estimate, the allocation stalls on
// simulated reclaim/swap work — the measurable cost of "reduce".
func (d *Driver) AllocPages(p *sim.Proc, node int, pages int64) {
	d.allocated += pages
	d.est.Observe(d.allocated)
	if d.ResidentPages() < d.est.Pages() {
		stall := sim.Time(pages) * reclaimPerPage
		d.stats.Stalls++
		d.stats.StallTime += stall
		d.tr.Instant(p.Span(), trace.CatBalloon, node, d.tr.Key("balloon", "stall"))
		p.Sleep(stall)
	}
}

// ReclaimPages is the deflate-on-oom path (guest.BalloonBacker): when an
// allocation finds no free pages, the kernel asks the balloon to give
// some back before declaring OOM. The driver deflates just enough pinned
// pages — preferring the requesting node, spilling to other arenas — and
// returns the reclaim/swap stall the kernel owes the allocating process
// for every page surrendered: the guest is evicting memory it still
// wants. No sleeping happens here — the kernel charges the stall only
// after re-carving, so the surrendered pages cannot be stolen by a
// concurrent vCPU in between.
func (d *Driver) ReclaimPages(p *sim.Proc, node int, pages int64) (sim.Time, bool) {
	need := pages
	var stall sim.Time
	take := min64(need, d.k.BalloonedOn(node))
	if take > 0 {
		stall += d.reclaimFrom(p, node, take)
		need -= take
	}
	// Spill: the carve retry can fall through to other arenas, so
	// deflating elsewhere still rescues the allocation.
	for _, n := range d.k.BalloonedNodes() {
		if need <= 0 {
			break
		}
		if n == node {
			continue
		}
		if t := min64(need, d.k.BalloonedOn(n)); t > 0 {
			stall += d.reclaimFrom(p, n, t)
			need -= t
		}
	}
	return stall, need < pages // retry if anything was surrendered
}

func (d *Driver) reclaimFrom(p *sim.Proc, node int, pages int64) sim.Time {
	d.k.BalloonReturn(node, pages)
	d.stats.Deflations++
	d.stats.DeflatedPages += pages
	stall := sim.Time(pages) * reclaimPerPage
	d.stats.Stalls++
	d.stats.StallTime += stall
	d.tr.Instant(p.Span(), trace.CatBalloon, node, d.tr.Key("balloon", "reclaim"))
	return stall
}

// FreePages is the unmap half of the telemetry hook.
func (d *Driver) FreePages(p *sim.Proc, node int, pages int64) {
	d.allocated -= pages
	if d.allocated < 0 {
		panic(fmt.Sprintf("balloon: allocator telemetry went negative (%d)", d.allocated))
	}
	d.est.Observe(d.allocated)
}

// WorkingSetPages returns the estimator's current working-set estimate.
func (d *Driver) WorkingSetPages() int64 { return d.est.Pages() }

// ResidentPages returns the pages the guest actually has at its
// disposal: live allocations plus carvable free space. Pages the bump
// allocator has burned through and freed are lost to fragmentation
// (guest.Free does not recycle), so they count toward neither side.
func (d *Driver) ResidentPages() int64 {
	free := d.k.CapacityPages() - d.k.AllocatedPages() - d.k.BalloonedPages()
	return d.allocated + free
}

// Degraded reports whether the VM is resized below its working set.
func (d *Driver) Degraded() bool { return d.ResidentPages() < d.est.Pages() }

// Stats returns a copy of the driver's counters.
func (d *Driver) Stats() Stats { return d.stats }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
