package virtio

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// blkChunkBytes is the request size virtio-blk splits large transfers
// into: 128 KiB, the typical maximum block-layer request.
const blkChunkBytes = 128 << 10

// BlkDev is a delegated virtio-blk (vhost-blk) device backed by the SSD of
// the owner node. Guest I/O on other slices is delegated: the ring and
// payload travel through the DSM, or over the fabric under DSM-bypass.
type BlkDev struct {
	device
	disk *cluster.Disk
	done map[uint64]*sim.Event
	next uint64
}

// blkReq is one chunk request sent to the owner.
type blkReq struct {
	id    uint64
	bytes int
	write bool
	pages []mem.PageID // guest payload pages (nil under bypass)
	node  int          // requesting slice, for bypass data return
}

// NewBlk creates a virtio-blk device driven by the owner node's disk.
func NewBlk(env *sim.Env, d *dsm.DSM, layer *msg.Layer, vm *vcpu.Manager, layout *mem.Layout, disk *cluster.Disk, cfg Config) *BlkDev {
	bd := &BlkDev{
		device: *newDevice("vblk", env, d, layer, vm, layout, cfg),
		disk:   disk,
		done:   make(map[uint64]*sim.Event),
	}
	for _, n := range d.Nodes() {
		bd.svc.Handle(n, bd.handle)
	}
	return bd
}

// Read reads n bytes sequentially from the device into guest memory,
// blocking until completion.
func (bd *BlkDev) Read(c *vcpu.Ctx, n int64) { bd.transfer(c, n, false) }

// Write writes n bytes sequentially from guest memory to the device,
// blocking until completion.
func (bd *BlkDev) Write(c *vcpu.Ctx, n int64) { bd.transfer(c, n, true) }

func (bd *BlkDev) transfer(c *vcpu.Ctx, n int64, write bool) {
	if n <= 0 {
		panic("virtio: blk transfer of non-positive size")
	}
	q := bd.queueFor(c.ID())
	for off := int64(0); off < n; off += blkChunkBytes {
		chunk := n - off
		if chunk > blkChunkBytes {
			chunk = blkChunkBytes
		}
		bd.chunk(c, q, int(chunk), write)
	}
}

// chunk issues one request and waits for its completion interrupt.
func (bd *BlkDev) chunk(c *vcpu.Ctx, q *queue, n int, write bool) {
	c.P.Sleep(guestPacketCPU)
	var pages []mem.PageID
	if !bd.cfg.Bypass {
		pages = q.payloadPages(n)
		if write {
			// Guest fills the buffer before the device reads it.
			for _, pg := range pages {
				bd.d.Touch(c.P, c.Node(), pg, true)
			}
		}
	}
	bd.d.Touch(c.P, c.Node(), q.availPage(), true)
	bd.next++
	id := bd.next
	ev := new(sim.Event)
	bd.done[id] = ev
	size := bd.kickSize(0)
	if write && bd.cfg.Bypass {
		size = bd.kickSize(n) // payload rides the kick
	}
	// Descriptor on the ring, doorbell over the fabric: the owner drains
	// the ring FIFO, so duplicated or delayed kicks are harmless.
	q.pending = append(q.pending, blkReq{id: id, bytes: n, write: write, pages: pages, node: c.Node()})
	bd.layer.Send(0, c.Node(), bd.cfg.Owner, bd.svc, "req", size, q.id)
	c.P.Wait(ev)
	delete(bd.done, id)
	if !write {
		if bd.cfg.Bypass {
			// Payload arrived with the completion; install cost only.
			c.P.Sleep(guestPacketCPU)
		} else {
			for _, pg := range pages {
				bd.d.Touch(c.P, c.Node(), pg, false)
			}
		}
	}
	if write {
		bd.stats.TxBytes += int64(n)
		bd.stats.TxPackets++
	} else {
		bd.stats.RxBytes += int64(n)
		bd.stats.RxPackets++
	}
}

// handle runs the owner-side request path and the requester-side
// completion path.
func (bd *BlkDev) handle(m *msg.Message) {
	switch m.Kind {
	case "req":
		qid := m.Payload.(int)
		bd.env.Spawn(bd.svc.Name()+".vhost", func(p *sim.Proc) {
			q := bd.queues[qid]
			q.lock.Lock(p)
			defer q.lock.Unlock()
			// FIFO drain; duplicated or delayed doorbells find an empty
			// ring and idle.
			for len(q.pending) > 0 {
				req := q.pending[0].(blkReq)
				q.pending = q.pending[1:]
				bd.d.Touch(p, bd.cfg.Owner, q.availPage(), false)
				p.Sleep(hostPacketCPU)
				if req.write && !bd.cfg.Bypass {
					// Device DMA reads the guest buffer through the DSM.
					for _, pg := range req.pages {
						bd.d.Touch(p, bd.cfg.Owner, pg, false)
					}
				}
				bd.disk.Transfer(p, int64(req.bytes))
				if !req.write && !bd.cfg.Bypass {
					// Device DMA fills the guest buffer at the owner; the
					// requester faults the pages over afterwards.
					for _, pg := range req.pages {
						bd.d.Touch(p, bd.cfg.Owner, pg, true)
					}
				}
				bd.d.Touch(p, bd.cfg.Owner, q.usedPage(), true)
				size := irqBytes
				if !req.write && bd.cfg.Bypass {
					size += req.bytes // read payload rides the completion
				}
				bd.layer.Send(0, bd.cfg.Owner, req.node, bd.svc, "done", size, req.id)
			}
		})
	case "done":
		id := m.Payload.(uint64)
		ev, ok := bd.done[id]
		if !ok {
			panic(fmt.Sprintf("virtio: completion for unknown blk request %d", id))
		}
		ev.Fire()
	default:
		panic(fmt.Sprintf("virtio: unknown blk message %q", m.Kind))
	}
}
