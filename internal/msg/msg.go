// Package msg implements the inter-hypervisor communication layer of the
// resource-borrowing hypervisor.
//
// FragVisor places its messaging layer in the host kernel (inherited from
// Popcorn Linux) so that hypervisor services — DSM, vCPU migration, IPI
// forwarding, I/O delegation — exchange typed messages without user/kernel
// transitions. This package models that layer: named services register
// handlers per node, and messages traverse the cluster fabric with a small
// fixed in-kernel processing cost at the receiver. Same-node messages skip
// the fabric entirely.
//
// Two delivery styles are offered: fire-and-forget Send, and Call, which
// blocks the calling process until the remote handler replies — the shape
// of every request/response protocol built on top (page fetches, interrupt
// acknowledgements, migration handshakes).
//
// A message schedules itself: the fabric only charges the path
// (topo.Fabric.Transmit), and the layer puts the *Message on a pooled
// sim.Env.DeferArgAt timer at the arrival time, then on a DeferArg timer
// for the handler latency, each running a static function of the message.
// A reply carries its caller's reply event instead of a callback. So a
// delivery allocates only its Message, and a Call round trip only the
// request, the reply and the reply event.
package msg

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Params tunes the messaging layer cost model.
type Params struct {
	// HandlerLat is the fixed in-kernel processing time charged at the
	// receiver before a handler runs (interrupt + demultiplexing).
	HandlerLat sim.Time
	// HeaderBytes is added to every message's wire size.
	HeaderBytes int
}

// DefaultParams returns the kernel-space messaging costs used by FragVisor.
func DefaultParams() Params {
	return Params{HandlerLat: 500 * sim.Nanosecond, HeaderBytes: 64}
}

// Handler consumes a delivered message. Handlers run as event callbacks;
// a handler that needs to block must spawn a process.
type Handler func(m *Message)

// Message is a typed message between hypervisor instances.
type Message struct {
	From    int    // sender node (or cluster.ClientID)
	To      int    // receiver node
	Service string // destination service name
	Kind    string // message type within the service
	Size    int    // payload size in bytes (wire size adds the header)
	Payload any

	layer   *Layer
	replyEv *sim.Event // on a request: fired when its reply arrives
	reply   *Message
	done    *sim.Event // on a reply: the request's replyEv, fired at delivery
	dup     bool       // fault-injected duplicate delivery of an earlier message
	span    int64      // tracing span covering this message's delivery
}

// SpanID returns the tracing span covering this message's delivery (0 when
// the layer is untraced). Handlers use it as the causal parent for work the
// message triggers.
func (m *Message) SpanID() int64 { return m.span }

// Duplicate reports whether this delivery is a fault-injected duplicate of
// an earlier message. Handlers that are not naturally idempotent may use
// it to skip side effects.
func (m *Message) Duplicate() bool { return m.dup }

// Reply sends a response of the given size back to the caller of Call.
// Replying to a one-way message, or twice, panics. Replies to duplicate
// deliveries are silently discarded: the requester's call already
// completed against the original, so the wire would carry an answer
// nobody is waiting for.
func (m *Message) Reply(size int, payload any) {
	if m.dup {
		m.layer.faults.DupRepliesDropped++
		return
	}
	if m.replyEv == nil {
		panic(fmt.Sprintf("msg: Reply to one-way %s/%s", m.Service, m.Kind))
	}
	if m.replyEv.Fired() || m.reply != nil {
		panic(fmt.Sprintf("msg: duplicate Reply to %s/%s", m.Service, m.Kind))
	}
	l := m.layer
	resp := &Message{
		From: m.To, To: m.From,
		Service: m.Service, Kind: l.replyKind(m.Kind),
		Size: size, Payload: payload, layer: l,
		done: m.replyEv, span: m.span,
	}
	m.reply = resp
	l.deliver(resp)
}

// ServiceStats counts traffic for one service.
type ServiceStats struct {
	Messages int64
	Bytes    int64
}

// Layer is the messaging layer over a fabric. Construct with NewLayer.
type Layer struct {
	env      *sim.Env
	net      *topo.Fabric
	params   Params
	handlers map[serviceKey]Handler
	stats    map[string]*ServiceStats
	filter   Filter
	faults   FaultStats
	tr       *trace.Tracer
	services map[string]int
	replies  map[string]string // kind -> kind + ".reply", interned
}

type serviceKey struct {
	node    int
	service string
}

// NewLayer returns a messaging layer over the given fabric, flat or
// tree.
func NewLayer(env *sim.Env, net *topo.Fabric, p Params) *Layer {
	return &Layer{
		env:      env,
		net:      net,
		params:   p,
		handlers: make(map[serviceKey]Handler),
		stats:    make(map[string]*ServiceStats),
		tr:       trace.FromEnv(env),
		replies:  make(map[string]string),
	}
}

// replyKind returns kind + ".reply", built once per kind so replies do
// not concatenate a string each.
func (l *Layer) replyKind(kind string) string {
	r, ok := l.replies[kind]
	if !ok {
		r = kind + ".reply"
		l.replies[kind] = r
	}
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

// Handle registers the handler for a service on a node, replacing any
// previous registration.
func (l *Layer) Handle(node int, service string, h Handler) {
	l.handlers[serviceKey{node, service}] = h
}

// Send delivers a one-way message. The destination service must be
// registered by delivery time; unrouteable messages panic, since a lost
// hypervisor message is a protocol bug, not a recoverable condition.
func (l *Layer) Send(from, to int, service, kind string, size int, payload any) {
	l.SendCtx(0, from, to, service, kind, size, payload)
}

// SendCtx is Send with a causal tracing parent: the message's delivery
// span is created as a child of the given span. Send uses parent 0.
func (l *Layer) SendCtx(span int64, from, to int, service, kind string, size int, payload any) {
	m := &Message{From: from, To: to, Service: service, Kind: kind, Size: size, Payload: payload, layer: l, span: span}
	l.deliver(m)
}

// Call delivers a request and blocks the process until the handler replies.
// It returns the reply message.
func (l *Layer) Call(p *sim.Proc, from, to int, service, kind string, size int, payload any) *Message {
	m := &Message{From: from, To: to, Service: service, Kind: kind, Size: size, Payload: payload, layer: l, span: p.Span()}
	m.replyEv = l.env.NewEvent()
	l.deliver(m)
	p.Wait(m.replyEv)
	return m.reply
}

// deliver routes a message through the fabric (or locally) and, after
// the receive-side processing cost, hands it to handle. The message is
// its own timer argument, so the two hops allocate nothing.
func (l *Layer) deliver(m *Message) {
	st, ok := l.stats[m.Service]
	if !ok {
		st = &ServiceStats{}
		l.stats[m.Service] = st
	}
	st.Messages++
	st.Bytes += int64(m.Size)
	if l.tr != nil {
		// The delivery span covers serialization, flight, and handling;
		// it stays open forever if fault injection eats the message —
		// visibly, in the exported trace.
		m.span = l.tr.Begin(m.span, trace.CatNet, m.To, l.tr.Key(m.Service, m.Kind))
	}

	var verdict MsgOutcome
	if l.filter != nil {
		verdict = l.filter.MsgOutcome(m.From, m.To, m.Service, m.Kind)
	}
	if m.From == m.To {
		// Same-node messages short-circuit the fabric but still pay the
		// handler demultiplexing cost. A crashed node delivers nothing,
		// not even to itself.
		if verdict.Drop {
			l.faults.Dropped++
			return
		}
		l.env.DeferArg(0, receive, m)
		return
	}
	// Cross-node drop/delay faults are ruled on by the fabric's own
	// filter inside Transmit; the messaging layer adds duplication, which
	// must be applied here so the duplicate can be delivered as a marked
	// Message whose Reply is discarded. The arrival timer is scheduled
	// straight after the path is charged, as the fabric's own Send does.
	if at, ok := l.net.Transmit(m.span, m.From, m.To, m.Size+l.params.HeaderBytes); ok {
		l.env.DeferArgAt(at, receive, m)
	}
	if verdict.Duplicate {
		l.faults.Duplicated++
		clone := *m
		clone.dup = true
		l.net.Send(m.From, m.To, m.Size+l.params.HeaderBytes, func() {
			l.env.Defer(l.params.HandlerLat, func() {
				if clone.done != nil {
					// Duplicate replies are dropped at the requester:
					// the original already completed the call.
					l.faults.DupRepliesDropped++
					return
				}
				if h, ok := l.handlers[serviceKey{clone.To, clone.Service}]; ok {
					h(&clone)
				}
			})
		})
	}
}

// receive runs when a message reaches its destination node: it charges
// the receive-side processing cost before handle.
func receive(a any) {
	m := a.(*Message)
	m.layer.env.DeferArg(m.layer.params.HandlerLat, handle, m)
}

// handle completes a delivery: a reply fires its caller's reply event,
// anything else runs the destination service's handler.
func handle(a any) {
	m := a.(*Message)
	l := m.layer
	if m.done != nil {
		m.done.Fire()
	} else {
		h, ok := l.handlers[serviceKey{m.To, m.Service}]
		if !ok {
			panic(fmt.Sprintf("msg: no handler for %s on node %d (kind %s)", m.Service, m.To, m.Kind))
		}
		h(m)
	}
	l.tr.End(m.span)
}

// Stats returns the traffic counters for a service (zeroes if unused).
func (l *Layer) Stats(service string) ServiceStats {
	if st, ok := l.stats[service]; ok {
		return *st
	}
	return ServiceStats{}
}

// Net returns the underlying fabric.
func (l *Layer) Net() *topo.Fabric { return l.net }

// Env returns the simulation environment.
func (l *Layer) Env() *sim.Env { return l.env }

// Params returns the layer's cost parameters.
func (l *Layer) Params() Params { return l.params }
