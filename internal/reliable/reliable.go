// Package reliable is the one delivery path of a VM's bytes over a
// topo.Fabric — every message of its messaging layer and every checkpoint
// segment — and the repository's one retransmission mechanism: over a
// faulted fabric each cross-node message takes its ack/timeout/retransmit
// path.
//
// The raw fabrics deliberately model a network that loses frames
// silently — a fault-filter drop charges the sender's path and then
// discards the message, exactly like a lost packet. This package supplies
// the standard protocol answer, as the RDMA reliable connections under
// the paper's kernel message layer do:
//
//   - every data frame is sequence-numbered per (from, to) flow and
//     acknowledged by a small ack frame on the reverse path;
//   - the sender retransmits on ack timeout, with a per-message RTO
//     derived from the fabric's latency and serialization times,
//     exponential backoff, and a deterministic seeded jitter;
//   - retransmission ends only when the frame is acknowledged or MarkDead
//     fences either endpoint: a crashed peer looks like a slow one until
//     the failure detector declares it;
//   - the receiver dedups by sequence number, so retransmit-induced
//     duplicates — and duplicates injected by the fault injector's
//     DupMessages rules — deliver exactly once.
//
// A healthy frame arms no timer. The fabric rules on a frame when it is
// transmitted, so the transport knows at once whether the data frame, and
// at its arrival whether the ack, is lost or late; only then does it set
// the retransmit timer, at the instant a per-message timer would fire.
//
// Post is the one way a VM moves bytes between, or within, its slices.
// It takes the receiver's processing latency, so a delivered message is
// one event, at arrival plus that latency, wherever it goes. A same-node
// message never touches the fabric: it arrives at once, unless the fault
// filter rules its node crashed. With no fault filter installed nothing
// can be lost, so a message is exactly one fabric transmission — no acks
// are charged and no sequence state affects timing — and fault-free runs
// stay byte-identical to the raw fabric.
package reliable

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// The RTO starts at ~2 uncontended RTTs plus a 5 ms queueing pad. The pad
// is sized for bulk traffic — several nodes pipelining multi-megabyte
// checkpoint chunks queue each other by whole serialization times, and a
// timeout that undercuts the queue retransmits frames that were never
// lost, feeding the very congestion it is misreading as loss.
const (
	// ackBytes is the size charged for each ack frame on the reverse
	// path (only when a fault filter is installed).
	ackBytes = 64
	// rtoSlack pads the computed per-message RTO against queueing.
	rtoSlack = 5 * sim.Millisecond
	// maxRTO caps the exponential RTO growth. The cap never drops below
	// four initial RTOs, so bulk frames whose honest round trip already
	// exceeds maxRTO keep a workable timeout.
	maxRTO = 10 * sim.Millisecond
	// jitterFrac adds up to this fraction of the current RTO as a
	// deterministic seeded jitter, desynchronizing retry storms.
	jitterFrac = 0.25
	// jitterSeed initializes the jitter PRNG; same seed ⇒ same jitter
	// stream.
	jitterSeed = 1
)

// rngState returns the jitter PRNG state for a seed.
func rngState(seed int64) uint64 {
	return uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
}

// Stats counts transport activity on the acknowledged path, which a
// message takes only over a faulted fabric, plus same-node drops.
type Stats struct {
	Sent           int64 // cross-node messages posted over a faulted fabric
	Delivered      int64 // messages handed to the receiver (exactly once each)
	Frames         int64 // data frames put on the fabric (retransmits and injected dups included)
	Retransmits    int64 // timeout-triggered re-sends
	DupFrames      int64 // extra frames injected by DupMessages rules
	DupsSuppressed int64 // arriving frames discarded by receive-side dedup
	Acks           int64 // ack frames sent
	Abandoned      int64 // messages given up unacknowledged because an endpoint is fenced
	LocalDropped   int64 // same-node messages dropped because the filter ruled the node crashed
}

type flowKey struct{ from, to int }

// flow is one (from, to) direction: the sender's next sequence number and
// the receiver's dedup window.
type flow struct {
	next uint64
	recv Window
}

// frame is one message in flight over a faulted fabric, from its post
// until it is acknowledged or abandoned.
type frame struct {
	t        *Transport
	from, to int
	seq      uint64
	span     int64
	size     int
	lat      sim.Time  // receiver processing time before deliver
	deliver  func(any) // run at the receiver, exactly once
	arg      any
	rto      sim.Time // current attempt's timeout, before jitter
	capRTO   sim.Time
	deadline sim.Time // when the current attempt times out
	armed    bool     // a retransmit timer is set for the current attempt
	done     bool     // acknowledged or abandoned
	live     int      // index in Transport.live while unresolved
}

// Transport is a reliable layer over one fabric. Construct with New; not
// safe for use from multiple Envs.
type Transport struct {
	env    *sim.Env
	fab    *topo.Fabric
	rng    uint64
	flows  map[flowKey]*flow
	live   []*frame // unresolved frames, which MarkDead walks
	fenced []bool   // by node id
	stats  Stats
}

// New returns a transport over the fabric.
func New(env *sim.Env, fab *topo.Fabric) *Transport {
	return &Transport{env: env, fab: fab, rng: rngState(jitterSeed), flows: make(map[flowKey]*flow)}
}

// Stats returns a copy of the transport counters.
func (t *Transport) Stats() Stats { return t.stats }

// Flows returns how many (from, to) flows hold state, and how many
// admitted sequence numbers their receive windows park ahead of a gap.
func (t *Transport) Flows() (flows, parked int) {
	for _, fl := range t.flows {
		parked += fl.recv.Parked()
	}
	return len(t.flows), parked
}

// Fenced reports whether MarkDead has fenced the node out.
func (t *Transport) Fenced(node int) bool {
	return node >= 0 && node < len(t.fenced) && t.fenced[node]
}

// MarkDead fences a node out for good: retransmission to and from it
// stops, frames to or from it are discarded on arrival, and its flows are
// freed.
func (t *Transport) MarkDead(node int) {
	for len(t.fenced) <= node {
		t.fenced = append(t.fenced, false)
	}
	t.fenced[node] = true
	for i := len(t.live) - 1; i >= 0; i-- {
		if f := t.live[i]; f.from == node || f.to == node {
			t.abandon(f)
		}
	}
	for k := range t.flows {
		if k.from == node || k.to == node {
			delete(t.flows, k)
		}
	}
}

// splitmix64 step; deterministic per-transport jitter stream.
func (t *Transport) rand() uint64 {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (t *Transport) jitter(rto sim.Time) sim.Time {
	frac := float64(t.rand()>>11) / float64(1<<53)
	return sim.Time(float64(rto) * jitterFrac * frac)
}

// rto returns the initial retransmission timeout for a data frame of the
// given size: twice the uncontended round trip (data out over the real
// multi-hop path, ack back) plus slack. The doubling is headroom for
// FIFO queueing behind concurrent senders — a timeout below the honest
// path time would retransmit frames that were never lost, and the extra
// load those retransmits add can livelock a bulk transfer.
func (t *Transport) rto(from, to, size int) sim.Time {
	rtt := t.fab.PathTime(from, to, size) + t.fab.PathTime(to, from, ackBytes)
	return 2*rtt + rtoSlack
}

// Post offers size bytes from one node to another and returns at once;
// deliver(arg) runs at the receiver lat after the first copy arrives,
// exactly once, unless a fence abandons the message first. lat is the
// receiver's processing time before the payload is handed over (the
// message layer's handler latency; 0 for a bare segment), folded into
// the delivery event so a healthy message costs one event. A same-node
// message arrives at once, and is dropped only when the fault filter
// rules its node crashed; with no fault filter installed a cross-node
// message is one fabric transmission; otherwise it takes the
// acknowledged path.
func (t *Transport) Post(span int64, from, to, size int, lat sim.Time, deliver func(any), arg any) {
	flt := t.fab.Filter()
	switch {
	case from == to:
		if mf, ok := flt.(topo.MsgFilter); ok && mf.MsgOutcome(from, to).Drop {
			t.stats.LocalDropped++
			return
		}
		t.env.DeferArg(lat, deliver, arg)
	case flt == nil:
		if at, ok := t.fab.Transmit(span, from, to, size); ok {
			t.env.DeferArgAt(at+lat, deliver, arg)
		}
	default:
		t.post(span, from, to, size, lat, deliver, arg)
	}
}

// post starts a message on its flow and transmits its first frame. A
// message with a fenced endpoint is abandoned without touching the
// fabric.
func (t *Transport) post(span int64, from, to, size int, lat sim.Time, deliver func(any), arg any) {
	t.stats.Sent++
	if t.Fenced(from) || t.Fenced(to) {
		t.stats.Abandoned++
		return
	}
	key := flowKey{from, to}
	fl := t.flows[key]
	if fl == nil {
		fl = &flow{}
		t.flows[key] = fl
	}
	rto := t.rto(from, to, size)
	f := &frame{t: t, from: from, to: to, seq: fl.next, span: span, size: size, lat: lat, deliver: deliver,
		arg: arg, rto: rto, capRTO: max(maxRTO, 4*rto), live: len(t.live)}
	fl.next++
	t.live = append(t.live, f)
	t.transmit(f)
}

// transmit puts one attempt of a data frame on the fabric (two copies,
// when the fabric's filter also implements topo.MsgFilter and duplicates
// the frame, as the injector's DupMessages rules do) and sets the
// attempt's deadline. When no copy can arrive by the deadline the
// retransmit timer is armed now; otherwise onData decides at arrival.
func (t *Transport) transmit(f *frame) {
	f.deadline = t.env.Now() + f.rto + t.jitter(f.rto)
	f.armed = false
	copies := 1
	if mf, ok := t.fab.Filter().(topo.MsgFilter); ok && mf.MsgOutcome(f.from, f.to).Duplicate {
		copies = 2
		t.stats.DupFrames++
	}
	inTime := false
	for i := 0; i < copies; i++ {
		t.stats.Frames++
		if at, ok := t.fab.Transmit(f.span, f.from, f.to, f.size); ok {
			inTime = inTime || at <= f.deadline
			t.env.DeferArgAt(at, onData, f)
		}
	}
	if !inTime {
		t.arm(f)
	}
}

// arm sets the current attempt's retransmit timer.
func (t *Transport) arm(f *frame) {
	f.armed = true
	t.env.DeferArgAt(f.deadline, onTimeout, f)
}

// onData runs at the receiver when a data frame copy arrives: dedup,
// deliver a fresh payload (lat later, when the frame has a receiver
// latency), and always ack — an ack can be lost too, and
// the retransmitted frame it covered must re-ack or the sender would
// retry into a window that discards it. A frame to or from a fenced node
// is discarded unacknowledged.
func onData(a any) {
	f := a.(*frame)
	t := f.t
	if t.Fenced(f.from) || t.Fenced(f.to) {
		return
	}
	fl := t.flows[flowKey{f.from, f.to}]
	if fl.recv.Admit(f.seq) {
		t.stats.Delivered++
		if f.lat > 0 {
			t.env.DeferArg(f.lat, f.deliver, f.arg)
		} else {
			f.deliver(f.arg)
		}
	} else {
		t.stats.DupsSuppressed++
		if t.fab.TestHooks().NoDedup {
			t.stats.Delivered++
		}
	}
	t.stats.Acks++
	at, ok := t.fab.Transmit(f.span, f.to, f.from, ackBytes)
	switch {
	case f.done:
	case ok && at <= f.deadline:
		t.unlink(f)
	case !f.armed:
		t.arm(f)
	}
}

// onTimeout retransmits a frame whose attempt went unacknowledged, with
// the RTO doubled up to its cap.
func onTimeout(a any) {
	f := a.(*frame)
	if f.done {
		return
	}
	t := f.t
	t.stats.Retransmits++
	f.rto = min(2*f.rto, f.capRTO)
	t.transmit(f)
}

// abandon retires a frame unacknowledged.
func (t *Transport) abandon(f *frame) {
	t.unlink(f)
	t.stats.Abandoned++
}

// unlink marks a frame done and removes it from the unresolved set.
func (t *Transport) unlink(f *frame) {
	f.done = true
	last := t.live[len(t.live)-1]
	t.live[f.live], last.live = last, f.live
	t.live = t.live[:len(t.live)-1]
}
