// Package virtio models the paravirtualized devices of an Aggregate VM and
// the paper's three I/O distribution mechanisms (§5.3, §6.3):
//
//   - Delegation: guest software on any slice can use a device, but the
//     physical hardware is driven only by the hypervisor instance on the
//     device-owner node. Guest-side accesses on other slices turn into
//     ring-buffer writes plus a kick message to the owner.
//   - Multiqueue: one TX/RX queue pair per vCPU, with each pair's ring
//     pages touched only by its vCPU and the owner — removing cross-vCPU
//     ring sharing. Without multiqueue (GiantVM), all vCPUs share queue 0
//     and its ring pages ping-pong through the DSM.
//   - DSM-bypass: packet payloads piggyback on the kick/IRQ messages over
//     the fabric instead of moving through DSM pages, taking the
//     coherence protocol off the data path entirely.
//
// Rings and payload buffers are real guest-physical pages (mem.KindDevice)
// accessed through the VM's DSM, so the cost difference between the
// configurations emerges from the same page-fault mechanics as everything
// else, not from hand-tuned constants.
package virtio

import (
	"fmt"

	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vcpu"
)

// Params is the virtio cost model.
type Params struct {
	// KickBytes is the ioeventfd-turned-message size.
	KickBytes int
	// IRQBytes is the interrupt (irqfd) message size.
	IRQBytes int
	// HostPacketCPU is vhost's per-packet processing time at the owner.
	HostPacketCPU sim.Time
	// GuestPacketCPU is the guest driver's per-packet processing time.
	GuestPacketCPU sim.Time
	// BufPages is the payload buffer ring size per queue, in pages.
	BufPages int64
}

// DefaultParams returns the vhost-based cost model.
func DefaultParams() Params {
	return Params{
		KickBytes:      32,
		IRQBytes:       32,
		HostPacketCPU:  2 * sim.Microsecond,
		GuestPacketCPU: 1 * sim.Microsecond,
		BufPages:       64,
	}
}

// Config selects the distribution mechanisms for one device.
type Config struct {
	// Owner is the node driving the physical device.
	Owner int
	// Multiqueue gives each vCPU its own TX/RX pair (FragVisor);
	// otherwise all vCPUs share queue 0 (GiantVM).
	Multiqueue bool
	// Bypass moves payloads on the fabric instead of through DSM pages.
	Bypass bool
}

// Stats counts device activity.
type Stats struct {
	TxPackets int64
	RxPackets int64
	TxBytes   int64
	RxBytes   int64
	Kicks     int64
	IRQs      int64
}

// queue is one TX/RX pair: two ring pages plus a payload buffer ring.
//
// pending is the descriptor ring's content: guest-side enqueues append
// descriptors here (paying the avail-ring DSM traffic), and the owner's
// doorbell handler drains them in FIFO order under the queue lock. Kicks
// are therefore pure doorbells — a duplicated or delayed kick finds the
// work already drained and is a no-op, which is the idempotence the real
// virtqueue protocol gets from its ring indices.
type queue struct {
	id      int
	vcpu    int // vCPU served by this queue (multiqueue)
	ring    mem.Region
	buf     mem.Region
	bufNext int64
	lock    *sim.Mutex // vhost worker serialization per queue
	pending []any      // enqueued descriptors awaiting the owner's drain
}

// avail and used ring pages.
func (q *queue) availPage() mem.PageID { return q.ring.Page(0) }
func (q *queue) usedPage() mem.PageID  { return q.ring.Page(1) }

// payloadPages returns (advancing the cursor) the buffer pages backing a
// packet of n bytes.
func (q *queue) payloadPages(n int) []mem.PageID {
	pages := int64((n + mem.PageSize - 1) / mem.PageSize)
	out := make([]mem.PageID, 0, pages)
	for i := int64(0); i < pages; i++ {
		out = append(out, q.buf.Page(q.bufNext%q.buf.Pages))
		q.bufNext++
	}
	return out
}

// rxPacket is a received packet queued for the guest.
type rxPacket struct {
	from  int // external source address
	bytes int
	pages []mem.PageID // nil when the payload bypassed the DSM
}

// txWire is a packet queued for an external receiver.
type txWire struct {
	fromVCPU int // sending vCPU inside the VM
	bytes    int
}

// device is state shared by the net and blk flavors.
type device struct {
	env    *sim.Env
	d      *dsm.DSM
	layer  *msg.Layer
	vcpus  *vcpu.Manager
	params Params
	cfg    Config
	svc    string
	queues []*queue
	stats  Stats
}

func newDevice(kind string, env *sim.Env, d *dsm.DSM, layer *msg.Layer, vm *vcpu.Manager, layout *mem.Layout, params Params, cfg Config) *device {
	dev := &device{
		env:    env,
		d:      d,
		layer:  layer,
		vcpus:  vm,
		params: params,
		cfg:    cfg,
		svc:    fmt.Sprintf("%s%d", kind, layer.Instance(kind)),
	}
	nq := 1
	if cfg.Multiqueue {
		nq = vm.N()
	}
	for i := 0; i < nq; i++ {
		q := &queue{
			id:   i,
			vcpu: i,
			ring: layout.Alloc(fmt.Sprintf("%s.q%d.ring", dev.svc, i), 2, mem.KindDevice),
			buf:  layout.Alloc(fmt.Sprintf("%s.q%d.buf", dev.svc, i), params.BufPages, mem.KindDevice),
			lock: env.NewMutex(),
		}
		dev.queues = append(dev.queues, q)
	}
	return dev
}

// queueFor returns the queue serving a vCPU: its own pair under
// multiqueue, the shared queue 0 otherwise.
func (dev *device) queueFor(vcpuID int) *queue {
	if dev.cfg.Multiqueue {
		return dev.queues[vcpuID]
	}
	return dev.queues[0]
}

// Stats returns the device counters.
func (dev *device) Stats() Stats { return dev.stats }

// guestEnqueue performs the guest-side half of a transmit: payload pages
// and avail-ring through the DSM (skipped under bypass), then the kick.
// It returns the DSM pages carrying the payload, nil under bypass.
func (dev *device) guestEnqueue(c *vcpu.Ctx, q *queue, n int) []mem.PageID {
	c.P.Sleep(dev.params.GuestPacketCPU)
	var pages []mem.PageID
	if !dev.cfg.Bypass {
		pages = q.payloadPages(n)
		for _, pg := range pages {
			dev.d.Touch(c.P, c.Node(), pg, true)
		}
	}
	dev.d.Touch(c.P, c.Node(), q.availPage(), true)
	dev.stats.Kicks++
	return pages
}

// hostComplete performs the owner-side half of a transmit: fetch the ring
// and payload through the DSM (skipped under bypass), charge vhost CPU.
// The caller (a doorbell drain) holds the queue lock.
func (dev *device) hostComplete(p *sim.Proc, q *queue, pages []mem.PageID) {
	dev.d.Touch(p, dev.cfg.Owner, q.availPage(), false)
	for _, pg := range pages {
		dev.d.Touch(p, dev.cfg.Owner, pg, false)
	}
	p.Sleep(dev.params.HostPacketCPU)
	dev.d.Touch(p, dev.cfg.Owner, q.usedPage(), true)
}

// kickSize returns the kick message size: under bypass it carries the
// payload itself.
func (dev *device) kickSize(n int) int {
	if dev.cfg.Bypass {
		return dev.params.KickBytes + n
	}
	return dev.params.KickBytes
}

// NetDev is a delegated virtio-net device bridged to an external network.
type NetDev struct {
	device
	ext     *topo.Fabric
	extAddr int // the owner host's address on the external network
	rx      []*sim.Queue[rxPacket]
	clients map[int]*sim.Queue[txWire]
}

// NewNet creates a virtio-net device whose physical NIC (on the owner
// node) connects to the external network ext at address extAddr.
func NewNet(env *sim.Env, d *dsm.DSM, layer *msg.Layer, vm *vcpu.Manager, layout *mem.Layout, ext *topo.Fabric, extAddr int, params Params, cfg Config) *NetDev {
	nd := &NetDev{
		device:  *newDevice("vnet", env, d, layer, vm, layout, params, cfg),
		ext:     ext,
		extAddr: extAddr,
		clients: make(map[int]*sim.Queue[txWire]),
	}
	for i := 0; i < vm.N(); i++ {
		nd.rx = append(nd.rx, sim.NewQueue[rxPacket](env))
	}
	for _, n := range d.Nodes() {
		n := n
		layer.Handle(n, nd.svc, nd.handle)
	}
	return nd
}

// netTx describes a transmit kick.
type netTx struct {
	queue int
	src   int // sending vCPU
	dst   int // external destination address
	bytes int
	pages []mem.PageID
}

// netRxBypass carries a received payload from the owner to the vCPU's
// slice over the fabric.
type netRxBypass struct {
	vcpu int
	pkt  rxPacket
}

// Send transmits n bytes from the context's vCPU to an external address.
// It returns once the packet is handed to the device (asynchronous wire
// delivery), like a non-blocking sendmsg on a socket with buffer space.
// The descriptor goes on the queue's ring; the kick message is a doorbell.
func (nd *NetDev) Send(c *vcpu.Ctx, dst, n int) {
	if n <= 0 {
		panic("virtio: send of non-positive size")
	}
	q := nd.queueFor(c.ID())
	pages := nd.guestEnqueue(c, q, n)
	nd.stats.TxPackets++
	nd.stats.TxBytes += int64(n)
	q.pending = append(q.pending, netTx{queue: q.id, src: c.ID(), dst: dst, bytes: n, pages: pages})
	nd.layer.Send(c.Node(), nd.cfg.Owner, nd.svc, "tx", nd.kickSize(n), q.id)
}

// Recv blocks the context's vCPU until a packet arrives for it, reads the
// payload, and returns the source address and size.
func (nd *NetDev) Recv(c *vcpu.Ctx) (from, n int) {
	pkt := nd.rx[c.ID()].Get(c.P)
	c.P.Sleep(nd.params.GuestPacketCPU)
	for _, pg := range pkt.pages {
		nd.d.Touch(c.P, c.Node(), pg, false)
	}
	return pkt.from, pkt.bytes
}

// handle runs at the owner node (tx, rx) and at slices (rxbypass).
func (nd *NetDev) handle(m *msg.Message) {
	switch m.Kind {
	case "tx":
		qid := m.Payload.(int)
		nd.env.Spawn(nd.svc+".vhost-tx", func(p *sim.Proc) {
			q := nd.queues[qid]
			q.lock.Lock(p)
			defer q.lock.Unlock()
			// Drain the ring FIFO. A duplicated or delayed doorbell finds
			// an empty ring (an earlier drain took its work) and idles.
			for len(q.pending) > 0 {
				tx := q.pending[0].(netTx)
				q.pending = q.pending[1:]
				nd.hostComplete(p, q, tx.pages)
				nd.ext.Send(nd.extAddr, tx.dst, tx.bytes, func() {
					if inbox, ok := nd.clients[tx.dst]; ok {
						inbox.Put(txWire{fromVCPU: tx.src, bytes: tx.bytes})
					}
				})
				// TX-completion interrupt back to the queue's vCPU.
				nd.stats.IRQs++
				nd.vcpus.IPI(p, nd.cfg.Owner, q.vcpu, nil)
			}
		})
	case "rxbypass":
		if m.Duplicate() {
			return // the first copy already queued the packet
		}
		rb := m.Payload.(netRxBypass)
		nd.rx[rb.vcpu].Put(rb.pkt)
	default:
		panic(fmt.Sprintf("virtio: unknown net message %q", m.Kind))
	}
}

// deliverToGuest runs the owner-side RX path for a packet addressed to a
// vCPU: vhost copies the payload into guest memory (or forwards it over
// the fabric under bypass) and injects the queue's interrupt.
func (nd *NetDev) deliverToGuest(from, toVCPU, n int) {
	nd.env.Spawn(nd.svc+".vhost-rx", func(p *sim.Proc) {
		q := nd.queueFor(toVCPU)
		q.lock.Lock(p)
		p.Sleep(nd.params.HostPacketCPU)
		nd.stats.RxPackets++
		nd.stats.RxBytes += int64(n)
		pkt := rxPacket{from: from, bytes: n}
		if nd.cfg.Bypass {
			q.lock.Unlock()
			dest := nd.vcpus.NodeOf(toVCPU)
			if dest == nd.cfg.Owner {
				nd.stats.IRQs++
				nd.vcpus.IPI(p, nd.cfg.Owner, toVCPU, func() { nd.rx[toVCPU].Put(pkt) })
				return
			}
			nd.layer.Send(nd.cfg.Owner, dest, nd.svc, "rxbypass",
				nd.params.IRQBytes+n, netRxBypass{vcpu: toVCPU, pkt: pkt})
			return
		}
		pkt.pages = q.payloadPages(n)
		for _, pg := range pkt.pages {
			nd.d.Touch(p, nd.cfg.Owner, pg, true)
		}
		nd.d.Touch(p, nd.cfg.Owner, q.usedPage(), true)
		q.lock.Unlock()
		nd.stats.IRQs++
		nd.vcpus.IPI(p, nd.cfg.Owner, toVCPU, func() { nd.rx[toVCPU].Put(pkt) })
	})
}

// Client is an external host (load generator, database) talking to the VM
// over the external network.
type Client struct {
	nd   *NetDev
	addr int
}

// NewClient registers an external host at the given address.
func (nd *NetDev) NewClient(addr int) *Client {
	if _, dup := nd.clients[addr]; dup {
		panic(fmt.Sprintf("virtio: duplicate client address %d", addr))
	}
	nd.clients[addr] = sim.NewQueue[txWire](nd.env)
	return &Client{nd: nd, addr: addr}
}

// Send transmits n bytes from the client to a vCPU of the VM, blocking for
// the wire time.
func (cl *Client) Send(p *sim.Proc, toVCPU, n int) {
	ev := cl.nd.env.NewEvent()
	cl.nd.ext.Send(cl.addr, cl.nd.extAddr, n, func() {
		cl.nd.deliverToGuest(cl.addr, toVCPU, n)
		ev.Fire()
	})
	p.Wait(ev)
}

// Recv blocks until the VM sends the client a packet, returning the
// sending vCPU and the size.
func (cl *Client) Recv(p *sim.Proc) (fromVCPU, n int) {
	w := cl.nd.clients[cl.addr].Get(p)
	return w.fromVCPU, w.bytes
}
