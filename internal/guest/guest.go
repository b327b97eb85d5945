// Package guest models the guest operating system running inside an
// Aggregate VM — the parts of it that matter for distributed execution.
//
// The paper ships two guest kernels: a vanilla Linux and an optimized build
// whose patches (a) separate uncorrelated kernel data structures that
// shared pages (false sharing) and (b) exploit the NUMA topology FragVisor
// exposes, so allocations land on the local slice. This package models the
// guest kernel as the set of hot kernel pages SMP code paths touch, plus a
// memory allocator and in-guest sockets:
//
//   - Per-CPU scheduler/task pages: one page per vCPU when optimized; two
//     vCPUs share a page in the vanilla layout (false sharing).
//   - A global allocator-lock page every memory allocation serializes on.
//   - Page-table pages (mem.KindContext) eligible for contextual DSM.
//   - Socket buffer pages carrying in-guest byte streams (e.g. the
//     NGINX-to-PHP local socket in a LEMP stack).
//
// All accesses go through the VM's DSM, so kernel-induced sharing costs
// emerge exactly where the paper observed them: allocation phases of IS/FT,
// cross-vCPU socket traffic, TLB shootdowns.
package guest

import (
	"fmt"
	"sort"

	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Config selects the guest kernel build and its distribution awareness.
type Config struct {
	// Optimized applies the paper's guest patches: uncorrelated kernel
	// structures padded onto separate pages.
	Optimized bool
	// NUMAAware makes the allocator honor the NUMA topology exposed by
	// the hypervisor, so anonymous memory is node-local from first touch.
	NUMAAware bool
}

// OptimizedConfig is the guest build FragVisor ships.
func OptimizedConfig() Config { return Config{Optimized: true, NUMAAware: true} }

// VanillaConfig is an unmodified guest kernel.
func VanillaConfig() Config { return Config{} }

// The guest-kernel CPU costs that are independent of the DSM.
const (
	// syscallCPU is the fixed syscall entry/exit + work.
	syscallCPU = 500 * sim.Nanosecond
	// allocBatchPages is how many pages the allocator hands out per
	// acquisition of its shared lock: per-CPU pageset batching rather
	// than the worst-case per-page path.
	allocBatchPages = 4
)

// Notifier delivers cross-vCPU wakeups (scheduler IPIs). The hypervisor
// provides one that turns remote wakeups into fabric messages.
type Notifier interface {
	// Wakeup notifies the vCPU from the caller's node and invokes
	// deliver when the IPI lands there — immediately for same-node
	// wakeups, after a fabric message for cross-node ones. The caller
	// is blocked only for its local send cost.
	Wakeup(p *sim.Proc, fromNode, toVCPU int, deliver func())
	// NodeOf reports the node currently hosting a vCPU.
	NodeOf(vcpu int) int
}

// Kernel is the guest OS instance of one VM.
type Kernel struct {
	cfg    Config
	env    *sim.Env
	dsm    *dsm.DSM
	layout *mem.Layout
	notif  Notifier

	percpu    []mem.PageID // per-vCPU hot kernel page (shared in vanilla layout)
	allocLock mem.PageID   // allocator serialization page
	allocMu   *sim.Mutex   // the zone lock itself: mutual exclusion
	slabMu    *sim.Mutex   // small-object (slab/malloc-arena) lock
	pgTables  mem.Region   // page-table pages (contextual)
	pgd       mem.PageID   // shared top-level mm state touched by every
	// mapping change (the TLB-shootdown path contextual DSM piggybacks)
	heap          mem.Region // anonymous memory pool
	heapNext      int64      // bump pointer, in pages
	heapBallooned int64      // balloon-pinned pages of the unified heap
	perNode       map[int]*nodeHeap

	obs MemObserver // allocator telemetry sink (nil = none)

	sockets int // socket name counter
}

// MemObserver receives the guest allocator's telemetry stream: one call
// per successful anonymous allocation or unmap, on the allocating process.
// The balloon driver's working-set estimator and degradation model hang
// off this hook; an observer may charge extra simulated time to p (e.g.
// reclaim/swap stalls when the guest is ballooned below its working set).
type MemObserver interface {
	AllocPages(p *sim.Proc, node int, pages int64)
	FreePages(p *sim.Proc, node int, pages int64)
}

// BalloonBacker is an optional MemObserver extension: when an allocation
// finds no free pages, the kernel gives the balloon driver one chance to
// reclaim before declaring OOM (virtio-balloon's deflate-on-oom path).
// The driver deflates enough pinned pages to satisfy the request and
// returns the simulated reclaim/swap stall plus whether the allocator
// should retry. The driver must NOT sleep: the kernel charges the stall
// after re-carving, so a concurrent vCPU cannot steal the surrendered
// pages between deflate and retry.
type BalloonBacker interface {
	ReclaimPages(p *sim.Proc, node int, pages int64) (sim.Time, bool)
}

// SetMemObserver installs the allocator telemetry sink (nil disables).
func (k *Kernel) SetMemObserver(o MemObserver) { k.obs = o }

// nodeHeap is a per-node allocation arena used when NUMA aware.
// ballooned pages are pinned by the host's balloon driver and cannot be
// carved until returned.
type nodeHeap struct {
	region    mem.Region
	next      int64
	ballooned int64
}

// free reports the arena's carvable pages: capacity minus both the bump
// pointer and the balloon's pin.
func (h *nodeHeap) free() int64 { return h.region.Pages - h.next - h.ballooned }

// New builds the guest kernel for a VM with the given vCPU count and
// memory size. The heap size bounds total allocatable anonymous memory.
func New(env *sim.Env, d *dsm.DSM, layout *mem.Layout, notif Notifier, nVCPU int, heapBytes int64, cfg Config) *Kernel {
	if nVCPU <= 0 {
		panic("guest: need at least one vCPU")
	}
	k := &Kernel{
		cfg:     cfg,
		env:     env,
		dsm:     d,
		layout:  layout,
		notif:   notif,
		perNode: make(map[int]*nodeHeap),
	}
	// Kernel page layout: the optimized guest pads each vCPU's hot
	// structures to a dedicated page; vanilla packs two vCPUs per page
	// (the false sharing the paper's patch removes).
	var kpages mem.Region
	if cfg.Optimized {
		kpages = layout.Alloc("kernel.percpu", int64(nVCPU), mem.KindKernel)
		for i := 0; i < nVCPU; i++ {
			k.percpu = append(k.percpu, kpages.Page(int64(i)))
		}
	} else {
		n := int64((nVCPU + 1) / 2)
		kpages = layout.Alloc("kernel.percpu", n, mem.KindKernel)
		for i := 0; i < nVCPU; i++ {
			k.percpu = append(k.percpu, kpages.Page(int64(i/2)))
		}
	}
	lockRegion := layout.Alloc("kernel.alloclock", 1, mem.KindKernel)
	k.allocLock = lockRegion.Page(0)
	k.allocMu = env.NewMutex()
	k.slabMu = env.NewMutex()
	k.pgTables = layout.Alloc("kernel.pgtables", int64(nVCPU)+1, mem.KindContext)
	k.pgd = k.pgTables.Page(int64(nVCPU))
	d.MarkContextual(k.pgTables)

	nodes := d.Nodes()
	if cfg.NUMAAware && len(nodes) > 1 {
		// The hypervisor exposes one NUMA zone per slice; the allocator
		// carves a per-node arena and the DSM pre-delegates it.
		per := heapBytes / int64(len(nodes)) / mem.PageSize
		if per < 1 {
			per = 1
		}
		for _, n := range nodes {
			r := layout.Alloc(fmt.Sprintf("heap.node%d", n), per, mem.KindHeap)
			d.DelegateRange(n, r.Start, r.Pages)
			k.perNode[n] = &nodeHeap{region: r}
		}
	} else {
		k.heap = layout.AllocBytes("heap", heapBytes, mem.KindHeap)
	}
	return k
}

// Layout returns the guest physical layout.
func (k *Kernel) Layout() *mem.Layout { return k.layout }

// Tick models a scheduler tick / fast kernel entry on a vCPU: a write to
// that vCPU's hot kernel page. In the vanilla layout, ticks of paired
// vCPUs on different nodes ping-pong their shared page.
func (k *Kernel) Tick(p *sim.Proc, node, vcpu int) {
	p.Sleep(syscallCPU)
	k.dsm.Touch(p, node, k.percpu[vcpu], true)
}

// PageTableUpdate models an mmap/TLB-shootdown path: a write to the
// vCPU's page-table page plus the shared top-level mm state every mapping
// change touches in an SMP guest. With contextual DSM both piggyback on
// the shootdown IPI that is sent anyway; without it, the shared page runs
// the full invalidation protocol and ping-pongs between slices.
func (k *Kernel) PageTableUpdate(p *sim.Proc, node, vcpu int) {
	k.dsm.Touch(p, node, k.pgTables.Page(int64(vcpu)), true)
	k.dsm.Touch(p, node, k.pgd, true)
}

// OutOfMemoryError is returned by Alloc when no arena — local or
// spill — can satisfy an allocation. It is the guest-visible face of
// genuine memory exhaustion, as opposed to the panics Alloc keeps for
// caller bugs (non-positive sizes, unknown nodes).
type OutOfMemoryError struct {
	Node  int   // allocating node
	Pages int64 // pages requested
	Free  int64 // pages left in the best arena (or the heap)
}

func (e *OutOfMemoryError) Error() string {
	return fmt.Sprintf("guest: out of memory: node %d requested %d pages, largest arena has %d free",
		e.Node, e.Pages, e.Free)
}

// Alloc models an anonymous memory allocation (mmap + first touch) of the
// given size by a vCPU, returning the region. The allocator serializes on
// a shared kernel page per 4 MiB chunk — the kernel-structure contention
// the paper blames for IS/FT's sub-linear scaling — and then first-touches
// the data pages. Exhausting every arena returns *OutOfMemoryError.
func (k *Kernel) Alloc(p *sim.Proc, node, vcpu int, bytes int64) (mem.Region, error) {
	if bytes <= 0 {
		panic("guest: allocation size must be positive")
	}
	pages := (bytes + mem.PageSize - 1) / mem.PageSize
	for c := int64(0); c < pages; c += allocBatchPages {
		// The zone lock is a real lock: acquiring it from another node
		// both waits out the current holder and transfers the lock's
		// page — the serialization the paper blames for IS/FT (§7.2).
		k.allocMu.Lock(p)
		k.dsm.Touch(p, node, k.allocLock, true)
		p.Sleep(syscallCPU)
		k.PageTableUpdate(p, node, vcpu)
		k.allocMu.Unlock()
	}
	// First touch: local minor faults when the range is pre-delegated to
	// this node (NUMA-aware guest) or origin-local; remote claims
	// otherwise. The DSM extent table prices each case.
	r, err := k.carve(node, pages)
	if err != nil {
		// Deflate-on-oom: before declaring OOM, let a balloon driver
		// reclaim pinned pages (paying its simulated reclaim cost) and
		// retry the carve once.
		if bb, ok := k.obs.(BalloonBacker); ok {
			if stall, retry := bb.ReclaimPages(p, node, pages); retry {
				r, err = k.carve(node, pages)
				p.Sleep(stall)
			}
		}
		if err != nil {
			return mem.Region{}, err
		}
	}
	k.dsm.TouchRange(p, node, r.Start, r.Pages, true)
	if k.obs != nil {
		k.obs.AllocPages(p, node, r.Pages)
	}
	return r, nil
}

// carve takes pages from the appropriate arena. When the local NUMA arena
// is exhausted, the allocator spills into another slice's arena —
// including memory-only slices, which is how an Aggregate VM borrows RAM
// from nodes that contribute no vCPUs. Spilled memory pays remote
// first-touch costs through the DSM.
func (k *Kernel) carve(node int, pages int64) (mem.Region, error) {
	if k.cfg.NUMAAware && len(k.perNode) > 0 {
		h, ok := k.perNode[node]
		if !ok {
			panic(fmt.Sprintf("guest: no NUMA arena for node %d", node))
		}
		if pages > h.free() {
			h = k.spillArena(pages)
			if h == nil {
				free := int64(0)
				for _, o := range k.perNode {
					if f := o.free(); f > free {
						free = f
					}
				}
				return mem.Region{}, &OutOfMemoryError{Node: node, Pages: pages, Free: free}
			}
		}
		r := mem.Region{Name: "anon", Start: h.region.Start + mem.PageID(h.next), Pages: pages, Kind: mem.KindHeap}
		h.next += pages
		return r, nil
	}
	if k.heapNext+pages > k.heap.Pages-k.heapBallooned {
		return mem.Region{}, &OutOfMemoryError{Node: node, Pages: pages, Free: k.heap.Pages - k.heapNext - k.heapBallooned}
	}
	r := mem.Region{Name: "anon", Start: k.heap.Start + mem.PageID(k.heapNext), Pages: pages, Kind: mem.KindHeap}
	k.heapNext += pages
	return r, nil
}

// AllocFast models a small-object allocation (slab/kmalloc, or a
// user-space malloc hitting its arena): the optimized guest serves it from
// a per-CPU cache (its own hot page — a local hit once owned), while the
// vanilla guest serializes on the shared allocator page, which ping-pongs
// between slices under concurrent allocation-heavy workloads such as PHP
// string manipulation.
func (k *Kernel) AllocFast(p *sim.Proc, node, vcpu int) {
	p.Sleep(syscallCPU)
	if k.cfg.Optimized {
		k.dsm.Touch(p, node, k.percpu[vcpu], true)
		return
	}
	k.slabMu.Lock(p)
	k.dsm.Touch(p, node, k.allocLock, true)
	k.slabMu.Unlock()
}

// spillArena returns the arena with the most free pages that still fits
// the request, preferring higher node ids deterministically on ties
// (memory-only slices are appended last, so they absorb spill first when
// equally empty).
func (k *Kernel) spillArena(pages int64) *nodeHeap {
	var best *nodeHeap
	bestFree := int64(-1)
	bestNode := -1
	for n, h := range k.perNode {
		free := h.free()
		if free < pages {
			continue
		}
		if free > bestFree || (free == bestFree && n > bestNode) {
			best, bestFree, bestNode = h, free, n
		}
	}
	return best
}

// Free returns a region to the allocator. The bump allocator does not
// recycle; Free models only the kernel-page traffic of unmapping.
func (k *Kernel) Free(p *sim.Proc, node, vcpu int, r mem.Region) {
	k.allocMu.Lock(p)
	k.dsm.Touch(p, node, k.allocLock, true)
	p.Sleep(syscallCPU)
	k.PageTableUpdate(p, node, vcpu)
	k.allocMu.Unlock()
	if k.obs != nil {
		k.obs.FreePages(p, node, r.Pages)
	}
}

// arenaFor returns the balloon-visible arena of a node: the node's NUMA
// arena when the guest is NUMA aware, the unified heap otherwise (any
// node id addresses it).
func (k *Kernel) arenaFor(node int) *nodeHeap {
	if k.cfg.NUMAAware && len(k.perNode) > 0 {
		h, ok := k.perNode[node]
		if !ok {
			panic(fmt.Sprintf("guest: no NUMA arena for node %d", node))
		}
		return h
	}
	return nil
}

// BalloonReserve pins up to pages currently-free pages of node's arena
// for the host (balloon inflation) and returns how many it took. Pinned
// pages cannot be carved by the allocator until BalloonReturn hands them
// back; the balloon never steals allocated pages, so inflation is capped
// by the arena's free space.
func (k *Kernel) BalloonReserve(node int, pages int64) int64 {
	if pages < 0 {
		panic("guest: balloon reservation must be non-negative")
	}
	if h := k.arenaFor(node); h != nil {
		take := min64(pages, h.free())
		h.ballooned += take
		return take
	}
	take := min64(pages, k.heap.Pages-k.heapNext-k.heapBallooned)
	k.heapBallooned += take
	return take
}

// BalloonReturn releases balloon-pinned pages of node's arena back to the
// allocator (balloon deflation). Returning more than is pinned panics.
func (k *Kernel) BalloonReturn(node int, pages int64) {
	if pages < 0 {
		panic("guest: balloon return must be non-negative")
	}
	if h := k.arenaFor(node); h != nil {
		if pages > h.ballooned {
			panic(fmt.Sprintf("guest: balloon return of %d pages exceeds %d pinned on node %d", pages, h.ballooned, node))
		}
		h.ballooned -= pages
		return
	}
	if pages > k.heapBallooned {
		panic(fmt.Sprintf("guest: balloon return of %d pages exceeds %d pinned", pages, k.heapBallooned))
	}
	k.heapBallooned -= pages
}

// BalloonWork charges one balloon PTE-update batch to p: the allocator
// lock, its shared kernel page, and a page-table update — exactly the
// hooks an allocation pays, because inflating or deflating the balloon
// walks the same zone-lock + mapping-change path.
func (k *Kernel) BalloonWork(p *sim.Proc, node, vcpu int) {
	k.allocMu.Lock(p)
	k.dsm.Touch(p, node, k.allocLock, true)
	p.Sleep(syscallCPU)
	k.PageTableUpdate(p, node, vcpu)
	k.allocMu.Unlock()
}

// CapacityPages returns the guest heap's total capacity in pages.
func (k *Kernel) CapacityPages() int64 {
	if len(k.perNode) > 0 {
		var total int64
		for _, h := range k.perNode {
			total += h.region.Pages
		}
		return total
	}
	return k.heap.Pages
}

// AllocatedPages returns the pages the bump allocator has handed out.
func (k *Kernel) AllocatedPages() int64 {
	if len(k.perNode) > 0 {
		var total int64
		for _, h := range k.perNode {
			total += h.next
		}
		return total
	}
	return k.heapNext
}

// BalloonedOn returns the pages currently pinned by the balloon on one
// node's arena (the whole unified heap when the guest is not NUMA aware).
func (k *Kernel) BalloonedOn(node int) int64 {
	if h := k.arenaFor(node); h != nil {
		return h.ballooned
	}
	return k.heapBallooned
}

// BalloonedNodes returns, in ascending order, the node ids whose arenas
// currently hold balloon-pinned pages (node 0 stands for the whole heap
// when the guest is not NUMA aware).
func (k *Kernel) BalloonedNodes() []int {
	if len(k.perNode) == 0 {
		if k.heapBallooned > 0 {
			return []int{0}
		}
		return nil
	}
	var ids []int
	for n, h := range k.perNode {
		if h.ballooned > 0 {
			ids = append(ids, n)
		}
	}
	sort.Ints(ids)
	return ids
}

// BalloonedPages returns the pages currently pinned by the balloon.
func (k *Kernel) BalloonedPages() int64 {
	if len(k.perNode) > 0 {
		var total int64
		for _, h := range k.perNode {
			total += h.ballooned
		}
		return total
	}
	return k.heapBallooned
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
