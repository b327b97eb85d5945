package guest

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// sockBufPages is the socket buffer size in pages (64 KiB), matching the
// default bounded sk_buff budget of a local socket. The bound is what
// couples the two endpoints: a sender that outruns the receiver fills the
// buffer and must block until the receiver drains it, paying a wakeup
// each time. On an Aggregate VM with the endpoints on different slices,
// those wakeups are cross-node — the "expensive communication between
// NGINX and PHP workers" of §7.2.
const sockBufPages = 16

// packet is one in-flight chunk on a socket.
type packet struct {
	bytes   int
	from    int // sender vCPU
	last    bool
	pages   []mem.PageID // buffer pages carrying the data
	message int          // message sequence, for framing checks
}

// blockedSender is a sender waiting for buffer credits.
type blockedSender struct {
	need int
	vcpu int
	ev   *sim.Event
}

// Socket is an in-guest local (AF_UNIX/loopback) byte stream — the
// NGINX-to-PHP-FPM channel of a LEMP stack. Data moves through a bounded
// ring of buffer pages in guest memory: the sender writes them, the
// receiver reads them, so with endpoints on different slices every buffer
// page round-trips through the DSM and every stall costs a cross-node
// wakeup. Multiple senders and receivers are allowed; messages never
// interleave (senders serialize per message, like a datagram socket).
type Socket struct {
	k        *Kernel
	bufs     mem.Region
	cursor   int64 // rotating page cursor
	credits  int   // free buffer pages
	queue    *sim.Queue[packet]
	sendLock *sim.Mutex
	waiting  []blockedSender
	messages int
}

// NewSocket creates an in-guest socket with a 64 KiB buffer.
func (k *Kernel) NewSocket() *Socket {
	k.sockets++
	bufs := k.layout.Alloc(fmt.Sprintf("sockbuf%d", k.sockets), sockBufPages, mem.KindKernel)
	return &Socket{
		k:        k,
		bufs:     bufs,
		credits:  sockBufPages,
		queue:    sim.NewQueue[packet](k.env),
		sendLock: k.env.NewMutex(),
	}
}

// Send writes an n-byte message from the sending vCPU. Messages larger
// than the socket buffer are streamed in buffer-sized chunks; whenever the
// buffer is full the sender blocks until the receiver drains it and wakes
// the sender back up (cross-node when the endpoints sit on different
// slices).
func (s *Socket) Send(p *sim.Proc, node, fromVCPU, toVCPU, n int) {
	if n <= 0 {
		panic("guest: socket send of non-positive size")
	}
	s.sendLock.Lock(p)
	defer s.sendLock.Unlock()
	s.messages++
	msgID := s.messages
	remaining := n
	for remaining > 0 {
		chunk := remaining
		if max := sockBufPages * mem.PageSize; chunk > max {
			chunk = max
		}
		pages := (chunk + mem.PageSize - 1) / mem.PageSize
		for s.credits < pages {
			ev := new(sim.Event)
			s.waiting = append(s.waiting, blockedSender{need: pages, vcpu: fromVCPU, ev: ev})
			p.Wait(ev)
		}
		s.credits -= pages
		p.Sleep(syscallCPU)
		pkt := packet{bytes: chunk, from: fromVCPU, last: chunk == remaining, message: msgID}
		for i := 0; i < pages; i++ {
			pg := s.bufs.Page(s.cursor % s.bufs.Pages)
			s.cursor++
			s.k.dsm.Touch(p, node, pg, true)
			pkt.pages = append(pkt.pages, pg)
		}
		remaining -= chunk
		// The receiver learns of the chunk when the wakeup IPI lands.
		s.k.notif.Wakeup(p, node, toVCPU, func() { s.queue.Put(pkt) })
	}
}

// Recv blocks the receiving vCPU until a whole message has been consumed,
// reading each chunk's buffer pages and releasing their credits (waking
// blocked senders). It returns the message size and the sending vCPU.
func (s *Socket) Recv(p *sim.Proc, node int) (n, fromVCPU int) {
	for {
		pkt := s.queue.Get(p)
		p.Sleep(syscallCPU)
		for _, pg := range pkt.pages {
			s.k.dsm.Touch(p, node, pg, false)
		}
		n += pkt.bytes
		fromVCPU = pkt.from
		s.release(p, node, len(pkt.pages))
		if pkt.last {
			return n, fromVCPU
		}
	}
}

// release returns buffer credits and wakes the first blocked sender that
// now fits, paying the (possibly cross-node) wakeup.
func (s *Socket) release(p *sim.Proc, node, pages int) {
	s.credits += pages
	if s.credits > sockBufPages {
		panic("guest: socket credit overflow")
	}
	for len(s.waiting) > 0 && s.credits >= s.waiting[0].need {
		w := s.waiting[0]
		s.waiting = s.waiting[1:]
		s.k.notif.Wakeup(p, node, w.vcpu, w.ev.Fire)
	}
}

// Pending returns the number of queued, unreceived chunks.
func (s *Socket) Pending() int { return s.queue.Len() }
