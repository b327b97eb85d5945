// Package netsim is the message-fabric contract: the Fabric interface
// every layer above the interconnect programs against, the fault
// Filter and its Outcome verdicts, the fabric-wide Stats, and the
// bug-reintroduction TestHooks.
//
// A fabric connects integer-addressed endpoints (cluster nodes, plus
// external hosts such as load generators). Sending a message occupies
// the links on its path for size/bandwidth seconds each, FIFO, then the
// message propagates and is delivered via a callback at the receiver.
// The one implementation is internal/topo.Fabric; a cluster builds two
// flat instances of it by default to model the paper's testbed, a
// 56 Gbps InfiniBand fabric between hypervisor instances and a 1 Gbps
// Ethernet network toward clients and load generators.
package netsim

import "repro/internal/sim"

// Outcome is a fault filter's verdict on one message: deliver normally,
// drop it, or deliver it late.
type Outcome struct {
	Drop  bool
	Delay sim.Time // extra propagation delay on top of the fabric latency
}

// Filter inspects every message offered to the fabric. Implemented by the
// fault injector (package fault) to model node crashes, link partitions,
// and lossy or slow links. A nil-filter fabric delivers everything.
type Filter interface {
	Outcome(from, to, size int) Outcome
}

// Fabric is the message-fabric interface: everything the messaging
// layer, the DSM cost model, checkpointing, fault injection, and the
// per-node traffic reports need from an interconnect.
type Fabric interface {
	// Name returns the fabric's diagnostic name.
	Name() string
	// Latency returns the fabric's minimum one-way propagation latency
	// (the full path latency of the closest endpoint pair) — the value
	// protocol cost models (DSM RTT estimates, checkpoint RTOs) build on.
	Latency() sim.Time
	// TxTime returns the serialization time for size bytes at an edge
	// (host) link.
	TxTime(size int) sim.Time
	// PathTime returns the uncontended one-way delivery time for size
	// bytes from one endpoint to another: every link on the route charged
	// at its own bandwidth plus its propagation latency, store-and-forward.
	// Protocol timeout models (the reliable transport's RTO) build on it;
	// actual deliveries can only be later, by queueing.
	PathTime(from, to int, size int) sim.Time
	// SetFilter installs (or, with nil, removes) the fault filter.
	SetFilter(f Filter)
	// Filter returns the installed fault filter (nil when none). The
	// reliable transport keys its zero-fault fast path on this: no filter
	// means nothing can be lost, so no acks need to be charged.
	Filter() Filter
	// Transmit charges the path for size bytes under a causal tracing
	// parent span and returns the arrival time and whether the fault
	// filter let the message through. It schedules nothing: a caller
	// that schedules its own delivery (the messaging layer does, without
	// a closure) does so at the returned time.
	Transmit(span int64, from, to int, size int) (arrive sim.Time, delivered bool)
	// Send transmits size bytes and invokes deliver at arrival time;
	// deliver may be nil for fire-and-forget accounting. Returns the
	// delivery time. It is Transmit plus the scheduling of deliver.
	Send(from, to int, size int, deliver func()) sim.Time
	// SendCtx is Send with a causal tracing parent span.
	SendCtx(span int64, from, to int, size int, deliver func()) sim.Time
	// SendAndWait transmits like Send but blocks the calling process
	// until the message resolves. It reports whether the message was
	// delivered: a fault-filter drop resolves the wait at the would-be
	// arrival time and returns false instead of blocking forever.
	SendAndWait(p *sim.Proc, from, to int, size int) bool
	// Stats returns a copy of the fabric-wide traffic counters.
	Stats() Stats
	// Endpoints returns the ids of every endpoint that has sent, ascending.
	Endpoints() []int
	// EndpointSent returns the messages and bytes sent by an endpoint.
	EndpointSent(id int) (msgs, bytes int64)
}

// Stats aggregates fabric-wide traffic counters.
type Stats struct {
	Messages int64
	Bytes    int64
	Dropped  int64 // messages discarded by the fault filter
	Delayed  int64 // messages delivered late by the fault filter
}
