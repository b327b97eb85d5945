// Package checkpoint implements FragVisor's distributed VM
// checkpoint/restart (§6.4): the fault-tolerance mechanism that pauses an
// Aggregate VM, collects every slice's share of the guest state onto one
// node, and streams it to that node's disk.
//
// A checkpoint proceeds in three overlapped stages:
//
//  1. Stop-the-world: every vCPU is paused and its register state dumped
//     (the same 38 us dump that starts a migration).
//  2. Collection: each remote slice streams the guest pages it owns over
//     the fabric to the checkpointing node, in parallel per slice.
//  3. Persistence: the checkpointing node streams metadata plus memory to
//     its local disk.
//
// Collection and persistence are pipelined chunk by chunk, so total time
// is governed by the slower of the two — on the paper's testbed the
// 500 MB/s SATA SSD, which is why the paper finds FragVisor checkpoints
// within 10% of a single-node VM's (§7.1): remote memory arrives over a
// 56 Gbps fabric far faster than the disk can absorb it.
package checkpoint

import (
	"fmt"
	"sort"

	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vcpu"
)

// chunkBytes is the collection/persistence pipeline granularity.
const chunkBytes = 16 << 20

// segmentBytes bounds one transport send within a chunk (see sendChunk).
const segmentBytes = 1 << 20

// Image is a taken checkpoint: enough to restart the VM's memory image.
type Image struct {
	Node     int   // node whose disk holds the image
	Bytes    int64 // total guest state persisted
	Duration sim.Time
	pages    map[mem.PageID][]byte // explicit page contents
	extents  map[int]int64         // bulk bytes per owner at checkpoint time
}

// Take checkpoints the VM onto the disk of the given node, blocking the
// calling process for the full duration, and returns the image.
func Take(p *sim.Proc, vm *hypervisor.VM, node int) *Image {
	env := vm.Env
	start := p.Now()
	tr := trace.FromEnv(env)
	sp := tr.Begin(p.Span(), trace.CatCheckpoint, node, "checkpoint")
	if tr != nil {
		prev := p.Span()
		p.SetSpan(sp)
		defer func() {
			tr.End(sp)
			p.SetSpan(prev)
		}()
	}

	// Stage 1: pause every vCPU and dump its state. Dumps of co-located
	// vCPUs serialize on their node's management thread; different
	// slices dump in parallel. Remote dumps are forwarded as messages.
	perNode := map[int]int{}
	for i := 0; i < vm.NVCPU(); i++ {
		perNode[vm.VCPUs.NodeOf(i)]++
	}
	maxDump := sim.Time(0)
	for n, count := range perNode {
		d := sim.Time(count) * vcpu.RegDump
		if n != node {
			d += 2 * vm.Config().Cluster.Fabric.Latency()
		}
		if d > maxDump {
			maxDump = d
		}
	}
	p.Sleep(maxDump)

	img := &Image{
		Node:    node,
		pages:   make(map[mem.PageID][]byte),
		extents: make(map[int]int64),
	}

	// Stage 2+3: per-slice collection pipelined into the disk writer.
	disk := vm.Config().Cluster.Node(node).SSD
	writeQ := sim.NewQueue[int64](env)
	sources := 0
	for _, n := range vm.DSM.Nodes() {
		n := n
		if !vm.Alive(n) {
			// A dead slice cannot stream its pages; whatever it owned was
			// re-homed by MarkDead and is collected from the new owners.
			continue
		}
		owned := vm.DSM.OwnedBytes(n)
		img.extents[n] = owned
		img.Bytes += owned
		for pg, data := range vm.DSM.SnapshotOwned(n) {
			img.pages[pg] = data
		}
		if owned == 0 {
			continue
		}
		sources++
		env.Spawn(fmt.Sprintf("ckpt-collect-%d", n), func(cp *sim.Proc) {
			if tr != nil {
				csp := tr.Begin(sp, trace.CatCheckpoint, n, "ckpt.collect")
				cp.SetSpan(csp)
				defer tr.End(csp)
			}
			for off := int64(0); off < owned; off += chunkBytes {
				chunk := owned - off
				if chunk > chunkBytes {
					chunk = chunkBytes
				}
				sendChunk(cp, vm, n, node, int(chunk))
				writeQ.Put(chunk)
			}
		})
	}

	// Disk writer: metadata first, then memory chunks as they arrive.
	writerDone := new(sim.Event)
	env.Spawn("ckpt-writer", func(wp *sim.Proc) {
		if tr != nil {
			wsp := tr.Begin(sp, trace.CatCheckpoint, node, "ckpt.persist")
			wp.SetSpan(wsp)
			defer tr.End(wsp)
		}
		disk.Transfer(wp, int64(vm.NVCPU()*vcpu.StateBytes))
		written := int64(0)
		for written < img.Bytes {
			chunk := writeQ.Get(wp)
			disk.Transfer(wp, chunk)
			written += chunk
		}
		writerDone.Fire()
	})
	p.Wait(writerDone)
	img.Duration = p.Now() - start
	return img
}

// Restore reloads the image from disk and redistributes guest state to the
// current owners' slices, returning the restore duration. Page contents
// captured in the image are reinstalled verbatim.
func Restore(p *sim.Proc, vm *hypervisor.VM, img *Image) sim.Time {
	start := p.Now()
	disk := vm.Config().Cluster.Node(img.Node).SSD
	env := vm.Env
	tr := trace.FromEnv(env)
	if tr != nil {
		sp := tr.Begin(p.Span(), trace.CatCheckpoint, img.Node, "restore")
		prev := p.Span()
		p.SetSpan(sp)
		defer func() {
			tr.End(sp)
			p.SetSpan(prev)
		}()
	}

	disk.Transfer(p, int64(vm.NVCPU()*vcpu.StateBytes))
	owners := make([]int, 0, len(img.extents))
	for n := range img.extents {
		owners = append(owners, n)
	}
	sort.Ints(owners) // deterministic spawn order
	var waits []*sim.Event
	for _, n := range owners {
		owned := img.extents[n]
		if owned == 0 {
			continue
		}
		// State owned by a slice that died since the checkpoint was taken
		// is always restored to the origin, not to the successor MarkDead
		// chose for each page: restart resumes with the origin owning what
		// it reinstalls.
		dest := n
		if !vm.Alive(n) {
			dest = vm.DSM.Origin()
		}
		ev := new(sim.Event)
		waits = append(waits, ev)
		parent := p.Span()
		env.Spawn(fmt.Sprintf("ckpt-restore-%d", dest), func(rp *sim.Proc) {
			if tr != nil {
				rsp := tr.Begin(parent, trace.CatCheckpoint, dest, "ckpt.restore")
				rp.SetSpan(rsp)
				defer tr.End(rsp)
			}
			defer ev.Fire()
			for off := int64(0); off < owned; off += chunkBytes {
				chunk := owned - off
				if chunk > chunkBytes {
					chunk = chunkBytes
				}
				disk.Transfer(rp, chunk)
				dest = sendChunk(rp, vm, img.Node, dest, int(chunk))
			}
		})
	}
	p.WaitAll(waits...)

	// Reinstall explicit page contents at the bootstrap slice (restart
	// resumes with the origin owning restored pages, as after boot), in
	// deterministic page order.
	restorePages := make([]mem.PageID, 0, len(img.pages))
	for pg := range img.pages {
		restorePages = append(restorePages, pg)
	}
	sort.Slice(restorePages, func(i, j int) bool { return restorePages[i] < restorePages[j] })
	for _, pg := range restorePages {
		vm.DSM.RestorePage(p, vm.DSM.Origin(), pg, img.pages[pg])
	}
	return p.Now() - start
}

// sendChunk moves one collection/restore chunk over the VM's reliable
// transport (RDMA RC / TCP) as segments of at most segmentBytes: frames
// lost to drop rules or transient partitions are retransmitted by the
// transport's ack/timeout/backoff state machine. A segment is done when
// its bytes arrive, whatever becomes of its ack. Liveness is the VM's
// declared view (vm.Alive), the only one a real host has, and a segment
// fails only when MarkDead fences an end: a chunk bound for a slice
// declared dead is re-sent whole to the origin slice (always the origin,
// whichever survivor MarkDead made owner), while a dead source simply
// stops transmitting, since the bytes it would have carried are already
// lost. Returns the destination the chunk actually went to, so callers
// stick to the re-homed peer.
//
// Segments keep a bulk transfer from holding a link for milliseconds at a
// time: a heartbeat probe queued behind a whole 16 MiB chunk would come
// back later than its 1 ms bound, and a busy restore would get a live
// slice declared dead.
func sendChunk(p *sim.Proc, vm *hypervisor.VM, from, to int, size int) int {
	rel := vm.Layer.Transport()
	tr := trace.FromEnv(vm.Env)
	csp := tr.Begin(p.Span(), trace.CatCheckpoint, from, "ckpt.chunk")
	defer tr.End(csp)
	for sent := 0; sent < size; {
		if !vm.Alive(to) {
			// Whatever reached the dead slice is lost with it.
			to, sent = vm.DSM.Origin(), 0
		}
		if !vm.Alive(from) || from == to {
			return to
		}
		seg := min(size-sent, segmentBytes)
		ev := new(sim.Event)
		rel.Post(csp, from, to, seg, 0, fire, ev)
		if vm.Layer.Await(p, ev, from, to) {
			sent += seg
		}
	}
	return to
}

// fire marks a segment arrived.
func fire(ev any) { ev.(*sim.Event).Fire() }
