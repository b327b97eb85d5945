// Package reliable is an ack/timeout/retransmit layer over a
// topo.Fabric: blocking sends that survive a lossy fabric instead of
// wedging the sending proc forever.
//
// The raw fabrics deliberately model a network that loses frames
// silently — a fault-filter drop charges the sender's path and then
// discards the message, exactly like a lost packet. Anything that blocks
// on such a send needs a protocol answer to loss. This package supplies
// the standard one:
//
//   - every data frame is sequence-numbered per (from, to) flow and
//     acknowledged by a small ack frame on the reverse path;
//   - the sender retransmits on ack timeout, with a per-message RTO
//     derived from the fabric's latency and serialization times,
//     exponential backoff, and a deterministic seeded jitter;
//   - retries are bounded: a message that exhausts maxAttempts surfaces a
//     typed *UnreachableError (matching ErrUnreachable) instead of an
//     infinite hang;
//   - the receiver dedups by sequence number, so retransmit-induced
//     duplicates — and duplicates injected by the fault injector's
//     DupMessages rules — deliver exactly once, in per-sender order.
//
// Zero-fault runs pay nothing: when the fabric has no fault filter
// installed, Send degenerates to exactly one fabric send plus a wait —
// no acks are charged, no sequence state affects timing — so fabrics
// without an injector stay byte-identical to the pre-reliable code.
package reliable

import (
	"errors"
	"fmt"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ErrUnreachable is the sentinel for a send that exhausted its retries
// without an acknowledgement. Errors returned by Send wrap it; match
// with errors.Is.
var ErrUnreachable = errors.New("reliable: peer unreachable")

// UnreachableError reports a message that was transmitted maxAttempts
// times without ever being acknowledged.
type UnreachableError struct {
	From, To int
	Attempts int
	Elapsed  sim.Time
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("reliable: node %d unreachable from %d after %d attempt(s) over %v",
		e.To, e.From, e.Attempts, e.Elapsed)
}

// Unwrap lets errors.Is(err, ErrUnreachable) match.
func (e *UnreachableError) Unwrap() error { return ErrUnreachable }

// The retry state machine suits the intra-cluster fabrics: six attempts
// with the RTO starting at ~2 uncontended RTTs plus a 5 ms queueing pad.
// The pad is sized for bulk traffic — several nodes pipelining
// multi-megabyte checkpoint chunks queue each other by whole
// serialization times, and a timeout that undercuts the queue
// retransmits frames that were never lost, feeding the very congestion
// it is misreading as loss.
const (
	// ackBytes is the size charged for each ack frame on the reverse
	// path (only when a fault filter is installed).
	ackBytes = 64
	// maxAttempts bounds transmissions per message (first send included).
	maxAttempts = 6
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

// retryPolicy is the part of the retry state machine in-package tests
// tighten; New sets it from the constants above.
type retryPolicy struct {
	slack, maxRTO sim.Time
	attempts      int
}

// rngState returns the jitter PRNG state for a seed.
func rngState(seed int64) uint64 {
	return uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
}

// Handler consumes messages delivered to a node, exactly once per sent
// payload and in per-sender order.
type Handler func(from int, payload any)

// Stats counts transport activity. Zero-fault fast-path sends count only
// Sent/Delivered.
type Stats struct {
	Sent           int64 // messages offered to Send
	Delivered      int64 // messages handed to the receiver (exactly once each)
	Frames         int64 // data frames put on the fabric (retransmits and injected dups included)
	Retransmits    int64 // timeout-triggered re-sends
	DupFrames      int64 // extra frames injected by DupMessages rules
	DupsSuppressed int64 // arriving frames discarded by receive-side dedup
	Acks           int64 // ack frames sent
	Unreachable    int64 // sends that exhausted maxAttempts
}

type flowKey struct{ from, to int }

type pendKey struct {
	from, to int
	seq      uint64
}

// Transport is a reliable blocking-send layer over one fabric.
// Construct with New; not safe for use from multiple Envs.
type Transport struct {
	env     *sim.Env
	fab     *topo.Fabric
	retry   retryPolicy
	rng     uint64
	nextSeq map[flowKey]uint64
	pend    map[pendKey]*sim.Event
	recvd   map[flowKey]*Window
	handler map[int]Handler
	stats   Stats
	hooks   TestHooks
}

// TestHooks re-enable fixed historical bugs behind an explicit opt-in,
// for the chaos engine's self-validation. The zero value is the fixed
// behavior; production code never sets hooks.
type TestHooks struct {
	// NoDedup disables receive-side duplicate suppression: every frame
	// of a duplicated or retransmitted message delivers its payload
	// again, breaking the exactly-once contract (Delivered can exceed
	// Sent as soon as any DupMessages rule or retransmission fires).
	NoDedup bool
}

// SetTestHooks installs (or, with the zero value, clears) the
// transport's bug-reintroduction hooks.
func (t *Transport) SetTestHooks(h TestHooks) { t.hooks = h }

// New returns a transport over the fabric. Handlers are registered per
// receiving node with Handle; nodes without one still ack (the common
// case for pure bulk transfers like checkpoint chunks).
func New(env *sim.Env, fab *topo.Fabric) *Transport {
	return &Transport{
		env:     env,
		fab:     fab,
		retry:   retryPolicy{slack: rtoSlack, maxRTO: maxRTO, attempts: maxAttempts},
		rng:     rngState(jitterSeed),
		nextSeq: make(map[flowKey]uint64),
		pend:    make(map[pendKey]*sim.Event),
		recvd:   make(map[flowKey]*Window),
		handler: make(map[int]Handler),
	}
}

// Handle registers the delivery callback for a node.
func (t *Transport) Handle(node int, h Handler) { t.handler[node] = h }

// Stats returns a copy of the transport counters.
func (t *Transport) Stats() Stats { return t.stats }

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
	return 2*rtt + t.retry.slack
}

// Send transmits size bytes from one node to another and blocks until
// the message is acknowledged (or, with no fault filter installed,
// delivered). It returns nil on delivery and a *UnreachableError
// (matching ErrUnreachable) when maxAttempts transmissions go
// unacknowledged.
func (t *Transport) Send(p *sim.Proc, from, to, size int) error {
	return t.SendCtx(p, 0, from, to, size, nil)
}

// SendCtx is Send with a causal tracing parent span and an optional
// payload handed to the receiving node's Handler.
func (t *Transport) SendCtx(p *sim.Proc, span int64, from, to, size int, payload any) error {
	t.stats.Sent++
	if from == to {
		// Same-node messages never touch the fabric (mirroring msg's
		// local short-circuit): deliver immediately.
		t.stats.Delivered++
		if h := t.handler[to]; h != nil {
			h(from, payload)
		}
		return nil
	}
	if t.fab.Filter() == nil {
		// Zero-fault fast path: nothing can be lost, so the ack round
		// and sequence machinery would only charge phantom bytes. One
		// fabric send, one wait — byte-identical to the raw fabric.
		ev := new(sim.Event)
		t.stats.Frames++
		t.fab.SendCtx(span, from, to, size, func() {
			t.stats.Delivered++
			if h := t.handler[to]; h != nil {
				h(from, payload)
			}
			ev.Fire()
		})
		p.Wait(ev)
		return nil
	}

	flow := flowKey{from, to}
	seq := t.nextSeq[flow]
	t.nextSeq[flow] = seq + 1
	key := pendKey{from, to, seq}
	rto := t.rto(from, to, size)
	// The backoff cap never falls below four initial RTOs: maxRTO is
	// sized for small control messages, and a multi-megabyte frame on a
	// slow path needs its timeout to keep pace with its own size.
	capRTO := t.retry.maxRTO
	if m := 4 * rto; m > capRTO {
		capRTO = m
	}
	start := t.env.Now()
	for attempt := 1; ; attempt++ {
		acked := new(sim.Event)
		t.pend[key] = acked
		t.transmit(span, from, to, size, seq, payload)
		ok := p.WaitTimeout(acked, rto+t.jitter(rto))
		delete(t.pend, key)
		if ok {
			return nil
		}
		if attempt >= t.retry.attempts {
			t.stats.Unreachable++
			return &UnreachableError{From: from, To: to, Attempts: attempt, Elapsed: t.env.Now() - start}
		}
		t.stats.Retransmits++
		if rto *= 2; rto > capRTO {
			rto = capRTO
		}
	}
}

// transmit puts one data frame on the fabric (two, when the fabric's
// filter also implements msg.Filter and duplicates the frame, as the
// injector's DupMessages rules do). The fabric's filter rules on each
// frame too — drops and delays land here like on any other traffic.
func (t *Transport) transmit(span int64, from, to, size int, seq uint64, payload any) {
	copies := 1
	if f, ok := t.fab.Filter().(msg.Filter); ok {
		if o := f.MsgOutcome(from, to, "reliable", "data"); o.Duplicate {
			copies = 2
			t.stats.DupFrames++
		}
	}
	for i := 0; i < copies; i++ {
		t.stats.Frames++
		t.fab.SendCtx(span, from, to, size, func() {
			t.onData(span, from, to, seq, payload)
		})
	}
}

// onData runs at the receiver: dedup, deliver fresh payloads, and always
// ack — an ack can be lost too, and the retransmitted frame it covered
// must re-ack or the sender would retry into a window that discards it.
func (t *Transport) onData(span int64, from, to int, seq uint64, payload any) {
	if t.recvd[flowKey{from, to}] == nil {
		t.recvd[flowKey{from, to}] = &Window{}
	}
	if t.recvd[flowKey{from, to}].Admit(seq) || t.hooks.NoDedup {
		t.stats.Delivered++
		if h := t.handler[to]; h != nil {
			h(from, payload)
		}
	} else {
		t.stats.DupsSuppressed++
	}
	t.stats.Acks++
	t.fab.SendCtx(span, to, from, ackBytes, func() {
		t.onAck(from, to, seq)
	})
}

// onAck resolves the sender's pending wait. Late acks — for an attempt
// the sender already gave up on, or a second ack racing the first before
// the sender proc resumes — are ignored.
func (t *Transport) onAck(from, to int, seq uint64) {
	if ev, ok := t.pend[pendKey{from, to, seq}]; ok && !ev.Fired() {
		ev.Fire()
	}
}
