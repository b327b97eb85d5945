// Package msg implements the inter-hypervisor communication layer of the
// resource-borrowing hypervisor.
//
// FragVisor places its messaging layer in the host kernel (inherited from
// Popcorn Linux) so that hypervisor services — DSM, vCPU migration, IPI
// forwarding, I/O delegation — exchange typed messages without user/kernel
// transitions. This package models that layer: a named service is
// registered once per layer, which yields its *Service handle, and takes
// a handler per node; messages are addressed to the handle and traverse
// the cluster fabric with a small fixed in-kernel processing cost at the
// receiver. Same-node messages skip the fabric entirely.
//
// Three delivery styles are offered: fire-and-forget Send; Call, which
// blocks the calling process until the remote handler replies — the shape
// of every request/response protocol built on top (page fetches, interrupt
// acknowledgements, migration handshakes); and CallThen, the same exchange
// for callers that are not processes, which runs a static continuation on
// the reply instead of blocking. Handlers themselves run as event
// callbacks, as a kernel message handler does, so a protocol that must
// wait for a reply while serving a request (the DSM directory) chains
// CallThen continuations rather than spawning a process.
//
// Every message rides the layer's reliable transport
// (reliable.Transport.Post), the one path for the VM's bytes. Over a
// faulted fabric (one with a fault filter installed) it retransmits each
// cross-node message until the frame is acknowledged or MarkDead fences
// an endpoint, and delivers each exactly once, as the RDMA reliable
// connections under the paper's message layer do. The fence is the
// layer's one record of declared deaths: over a faulted fabric MarkDead
// fails every Call that waits on a fenced node with ErrFenced, and no
// message to or from one is handled. A process that waits on an exchange
// of its own (a DSM fault, a checkpoint segment) uses the fence in two
// halves: Watch arms it for the exchange's event, from an event callback
// if need be, and Wait parks until the event fires and reports whether a
// fence fired it. Await is the two in a row. Splitting them lets a DSM
// fault send its request from a timer, the fault handler's CPU time
// later, while its process parks once, in Wait, for the whole fault.
//
// A message schedules itself, one event per delivery: the transport puts
// the *Message on a pooled sim.Env timer that fires the handler latency
// after its arrival and runs handle, a static function of the message,
// which finds the handler by indexing its service's per-node table. A
// Call's reply event is embedded in its request, and Reply turns the
// request itself into the reply, which fires that event at delivery
// instead of running a callback; a CallThen's continuation runs in that
// same delivery event.
//
// The layer recycles the Messages of Send and CallThen on a free list, so
// in steady state a one-way delivery and a CallThen round trip allocate
// nothing. A one-way message goes back on the list once its handler
// returns, and a CallThen's once its continuation has run with the
// reply. So a handler must not keep a one-way *Message after it returns,
// and a continuation must not keep its reply; either may keep the
// Payload. A Call's request, which turns into the reply its caller gets,
// is never recycled (a Call round trip allocates that one Message), nor
// is a message whose exchange a fence failed, since it may still be in
// flight. Over a faulted fabric a recycled message can still be the
// argument of a frame the transport retransmits, but the transport hands
// a frame's argument on only at its one delivering arrival, which has
// happened by the time the message is recycled.
package msg

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The kernel-space messaging costs used by FragVisor.
const (
	// HandlerLat is the fixed in-kernel processing time charged at the
	// receiver before a handler runs (interrupt + demultiplexing).
	HandlerLat = 500 * sim.Nanosecond
	// HeaderBytes is added to every message's wire size.
	HeaderBytes = 64
)

// ErrFenced is returned by Call when MarkDead fences either end before
// the reply arrives.
var ErrFenced = errors.New("msg: endpoint fenced")

// Handler consumes a delivered message. Handlers run as event callbacks
// and must not block: a handler that waits on a reply before it can
// answer chains CallThen continuations, and one that needs a process
// (a sleep, a lock held across calls) spawns it. A one-way message is
// recycled once its handler returns, so the handler must not keep m
// (its Payload it may keep); a request it answers later is never
// recycled before the reply is handled.
type Handler func(m *Message)

// Service is a named service registered on a layer: its handler on each
// node. Construct with Layer.Register; messages are addressed to it.
type Service struct {
	name    string
	h       []Handler   // by node id; nil where none is registered
	replies [][2]string // {kind, kind + ".reply"}, interned
}

// Name returns the service's name.
func (s *Service) Name() string { return s.name }

// Handle registers the service's handler on a node, replacing any
// previous one.
func (s *Service) Handle(node int, h Handler) {
	for len(s.h) <= node {
		s.h = append(s.h, nil)
	}
	s.h[node] = h
}

// handler returns the service's handler on a node, or nil.
func (s *Service) handler(node int) Handler {
	if node < 0 || node >= len(s.h) {
		return nil
	}
	return s.h[node]
}

// Message is a typed message between hypervisor instances.
type Message struct {
	From    int      // sender node (or cluster.ClientID)
	To      int      // receiver node
	Service *Service // destination service
	Kind    string   // message type within the service
	Size    int      // payload size in bytes (wire size adds the header)
	Payload any

	layer   *Layer
	ev      sim.Event // a Call's reply event, fired when the reply arrives
	call    bool      // the sender waits on ev for a reply
	replied bool      // Reply turned this request round: delivery fires ev
	span    int64     // tracing span covering this message's delivery

	then func(arg any, reply *Message, ok bool) // a CallThen's continuation
	arg  any                                    // then's argument
}

// SpanID returns the tracing span covering this message's delivery (0 when
// the layer is untraced). Handlers use it as the causal parent for work the
// message triggers.
func (m *Message) SpanID() int64 { return m.span }

// Reply sends a response of the given size back to the caller of Call.
// The request itself becomes the reply: From and To swap, Kind gains
// ".reply", and Size and Payload are replaced, so a handler reads what it
// needs from m before replying. Replying to a one-way message, or twice,
// panics.
func (m *Message) Reply(size int, payload any) {
	if !m.call {
		panic(fmt.Sprintf("msg: Reply to one-way %s/%s", m.Service.name, m.Kind))
	}
	if m.replied {
		panic(fmt.Sprintf("msg: duplicate Reply to %s/%s", m.Service.name, m.Kind))
	}
	l := m.layer
	m.From, m.To = m.To, m.From
	m.Kind, m.Size, m.Payload = m.Service.replyKind(m.Kind), size, payload
	m.replied = true
	l.deliver(m)
}

// Layer is the messaging layer over a fabric. Construct with NewLayer.
type Layer struct {
	env      *sim.Env
	net      *topo.Fabric
	tr       *trace.Tracer
	services map[string]int
	rel      *reliable.Transport
	waits    []wait     // exchanges in flight that MarkDead must fail
	free     []*Message // recycled Send and CallThen messages, reused LIFO
}

// wait is one exchange in flight until ev fires, unless node a or b is
// fenced first: a proc blocked on ev, or a CallThen request m whose
// continuation the fence must run.
type wait struct {
	ev     *sim.Event
	a, b   int
	fenced bool
	m      *Message // a CallThen's request; nil for a proc
}

// NewLayer returns a messaging layer over the given fabric, flat or
// tree, with the reliable transport its messages ride when the fabric is
// faulted.
func NewLayer(env *sim.Env, net *topo.Fabric) *Layer {
	return &Layer{
		env: env,
		net: net,
		tr:  trace.FromEnv(env),
		rel: reliable.New(env, net),
	}
}

// Transport returns the layer's reliable transport, which bulk senders
// (checkpoint segments) share with the layer's own messages.
func (l *Layer) Transport() *reliable.Transport { return l.rel }

// Fenced reports whether MarkDead has fenced the node out.
func (l *Layer) Fenced(node int) bool { return l.rel.Fenced(node) }

// MarkDead fences a node out for good, as the failure detector declares
// it dead: the transport stops retransmitting to and from it and discards
// its frames and, over a faulted fabric, no message to or from it is
// handled any more and every Call, CallThen or watched exchange that
// waits on it fails. Waiters wake, and continuations run, in the order
// they began to wait. A continuation is deferred one event rather than
// run in place: resume removes its wait from the waits this loop walks,
// and the continuation may start exchanges that add more.
func (l *Layer) MarkDead(node int) {
	l.rel.MarkDead(node)
	for i := range l.waits {
		w := &l.waits[i]
		if (w.a == node || w.b == node) && !w.ev.Fired() {
			w.fenced = true
			w.ev.Fire()
			if w.m != nil {
				l.env.DeferArg(0, resume, w.m)
			}
		}
	}
}

// Watch arms the fence for an exchange that completes when ev fires:
// from now on, MarkDead of node a or b fails it, firing ev and recording
// the exchange as fenced for Wait to report. An endpoint already fenced
// fails it at once, the same way. It does not block, so an event callback
// may call it: a proc can park in Wait first and have the exchange
// started, and watched, on its behalf. Over a fault-free fabric, where
// nothing is lost, and for an event that has fired, it does nothing.
func (l *Layer) Watch(ev *sim.Event, a, b int) {
	if l.net.Filter() == nil || ev.Fired() {
		return
	}
	fenced := l.Fenced(a) || l.Fenced(b)
	l.waits = append(l.waits, wait{ev: ev, a: a, b: b, fenced: fenced})
	if fenced {
		ev.Fire()
	}
}

// Wait blocks p until ev fires and reports whether it fired on its own,
// not because a fence failed the exchange Watch armed. An exchange that
// was never watched cannot be fenced.
func (l *Layer) Wait(p *sim.Proc, ev *sim.Event) bool {
	p.Wait(ev)
	if len(l.waits) == 0 {
		return true
	}
	return !l.unwait(ev)
}

// Await is Watch then Wait: it blocks p until ev fires, or until MarkDead
// fences node a or b, and reports whether ev fired first. An endpoint
// already fenced fails it without blocking.
func (l *Layer) Await(p *sim.Proc, ev *sim.Event, a, b int) bool {
	l.Watch(ev, a, b)
	return l.Wait(p, ev)
}

// unwait removes ev's entry from the waits and reports whether MarkDead
// fenced it. An exchange that never registered reports false.
func (l *Layer) unwait(ev *sim.Event) (fenced bool) {
	i := slices.IndexFunc(l.waits, func(w wait) bool { return w.ev == ev })
	if i < 0 {
		return false
	}
	fenced = l.waits[i].fenced
	l.waits = slices.Delete(l.waits, i, i+1)
	return fenced
}

// replyKind returns kind + ".reply", built once per kind of the service
// so replies do not concatenate a string each. A service answers a
// handful of kinds, so a scan of them is cheaper than hashing the kind.
func (s *Service) replyKind(kind string) string {
	for _, r := range s.replies {
		if r[0] == kind {
			return r[1]
		}
	}
	r := kind + ".reply"
	s.replies = append(s.replies, [2]string{kind, r})
	return r
}

// Instance returns a fresh 1-based sequence number for the named service
// family on this layer, e.g. Instance("dsm") → 1, 2, ... Components use it
// to mint unique service names ("dsm1", "dsm2") that are deterministic per
// simulation rather than per process, which keeps span and stats names
// byte-identical across same-seed runs in the same binary.
func (l *Layer) Instance(family string) int {
	if l.services == nil {
		l.services = make(map[string]int)
	}
	l.services[family]++
	return l.services[family]
}

// Register returns a new service of the given name on this layer, with
// no handler on any node yet. Names label spans and panics; a message is
// routed by its *Service, never by name.
func (l *Layer) Register(name string) *Service { return &Service{name: name} }

// Send delivers a one-way message; its delivery span is created as a
// child of the given causal tracing parent (0 for none). The destination
// service must be registered by delivery time; unrouteable messages
// panic. A cross-node message is lost only to a crash: over a faulted
// fabric the reliable transport retransmits it, and only a fenced
// endpoint ends its retransmission.
func (l *Layer) Send(span int64, from, to int, service *Service, kind string, size int, payload any) {
	l.deliver(l.alloc(span, from, to, service, kind, size, payload))
}

// alloc returns a message from the free list, or a new one, addressed as
// given. It sets the fields one by one on the zeroed message: assigning a
// whole Message literal through the pointer would build it aside and
// copy all of it.
func (l *Layer) alloc(span int64, from, to int, service *Service, kind string, size int, payload any) *Message {
	var m *Message
	if n := len(l.free) - 1; n < 0 {
		m = new(Message)
	} else {
		m = l.free[n]
		l.free[n] = nil
		l.free = l.free[:n]
	}
	m.From, m.To, m.Service, m.Kind, m.Size, m.Payload = from, to, service, kind, size, payload
	m.layer, m.span = l, span
	return m
}

// release puts a dead message on the free list, zeroed so that it pins no
// payload or continuation argument and alloc can fill it in place.
func (l *Layer) release(m *Message) {
	*m = Message{}
	l.free = append(l.free, m)
}

// Call delivers a request and blocks the process until the handler replies.
// It returns the reply, which is the request message turned round by
// Reply, or an error matching ErrFenced when MarkDead fences
// either end first.
func (l *Layer) Call(p *sim.Proc, from, to int, service *Service, kind string, size int, payload any) (*Message, error) {
	m := &Message{From: from, To: to, Service: service, Kind: kind, Size: size, Payload: payload, layer: l, call: true, span: p.Span()}
	l.deliver(m)
	if !l.Await(p, &m.ev, from, to) {
		return nil, fmt.Errorf("msg: %s/%s from node %d to %d: %w", service.name, kind, from, to, ErrFenced)
	}
	return m, nil
}

// CallThen is Call for a caller that is not a process: it delivers the
// request and returns at once, and then(arg, reply, true) runs once the
// handler's reply arrives, or then(arg, nil, false) once MarkDead fences
// either end first. span is the causal tracing parent, which Call takes
// from its process. A reply runs then inside its own delivery event, at
// the instant a Call's caller would wake, one event before that caller
// runs; a fence resumes CallThens and Calls in the order they began to
// wait, each one event after the fence, and a fence already in place
// runs then before CallThen returns, as Call fails at once. then should
// be a top-level function and arg a pointer, so the exchange allocates
// nothing once the layer's free list is warm. The reply is recycled once then returns: then must not keep
// it, only its Payload.
func (l *Layer) CallThen(span int64, from, to int, service *Service, kind string, size int, payload any, then func(arg any, reply *Message, ok bool), arg any) {
	m := l.alloc(span, from, to, service, kind, size, payload)
	m.call, m.then, m.arg = true, then, arg
	l.deliver(m)
	if l.net.Filter() == nil {
		return
	}
	if l.Fenced(from) || l.Fenced(to) {
		then(arg, nil, false)
		return
	}
	l.waits = append(l.waits, wait{ev: &m.ev, a: from, b: to, m: m})
}

// resume runs a CallThen's continuation, in its reply's delivery event or
// one event after MarkDead fenced it, and then recycles a replied
// message. A fenced one is left to the collector: its frames may still be
// in flight.
func resume(a any) {
	m := a.(*Message)
	l := m.layer
	if l.unwait(&m.ev) {
		m.then(m.arg, nil, false)
		return
	}
	m.then(m.arg, m, true)
	l.release(m)
}

// deliver hands a message to the layer's reliable transport, which
// short-circuits a same-node one (a crashed node delivers nothing, not
// even to itself) and runs handle HandlerLat after it arrives, in one
// event. The frame is posted with its endpoints, so over a faulted
// fabric the transport dedups a retransmitted request on its own flow
// even after Reply has turned m round. The message is its own timer
// argument, so delivery allocates nothing.
func (l *Layer) deliver(m *Message) {
	if l.tr != nil {
		// The delivery span covers serialization, flight, and handling;
		// it stays open forever if the message is never delivered —
		// visibly, in the exported trace.
		m.span = l.tr.Begin(m.span, trace.CatNet, m.To, l.tr.Key(m.Service.name, m.Kind))
	}
	l.rel.Post(m.span, m.From, m.To, m.Size+HeaderBytes, HandlerLat, handle, m)
}

// handle completes a delivery, HandlerLat after the message reached its
// destination node: a reply fires its caller's reply event, or runs a
// CallThen's continuation, and anything else runs the destination
// service's handler, after which a one-way message is recycled. Over a faulted fabric a message to or from a node fenced
// while it was in flight is not handled: MarkDead has failed its caller
// already. The span is read before the handler runs, since a Reply
// inside it turns m into the reply, with a delivery span of its own.
func handle(a any) {
	m := a.(*Message)
	l := m.layer
	if l.net.Filter() != nil && (l.Fenced(m.From) || l.Fenced(m.To)) {
		return
	}
	span := m.span
	if m.replied {
		m.ev.Fire()
		if m.then != nil {
			resume(m)
		}
	} else {
		h := m.Service.handler(m.To)
		if h == nil {
			panic(fmt.Sprintf("msg: no handler for %s on node %d (kind %s)", m.Service.name, m.To, m.Kind))
		}
		h(m)
		if !m.call {
			l.release(m)
		}
	}
	l.tr.End(span)
}

// Net returns the underlying fabric.
func (l *Layer) Net() *topo.Fabric { return l.net }
