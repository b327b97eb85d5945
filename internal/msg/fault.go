// Fault-path delivery: typed errors and RPC timeouts. The happy-path API
// (Send/Call) treats the fabric as reliable — a lost hypervisor message
// is a protocol bug. Under fault injection that assumption is withdrawn:
// messages can be dropped, delayed, or duplicated, and protocols that
// want to survive use CallTimeout, retry, and handle the typed errors.
package msg

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrTimeout is the sentinel for an RPC that received no reply in time.
// Errors returned by CallTimeout wrap it; match with errors.Is.
var ErrTimeout = errors.New("rpc timeout")

// TimeoutError reports an RPC that exhausted its time (and, for a
// retrying caller, its attempts) without a reply.
type TimeoutError struct {
	To       int
	Service  string
	Kind     string
	Attempts int
	Elapsed  sim.Time
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("msg: %s/%s to node %d timed out after %d attempt(s) over %v",
		e.Service, e.Kind, e.To, e.Attempts, e.Elapsed)
}

// Unwrap lets errors.Is(err, ErrTimeout) match.
func (e *TimeoutError) Unwrap() error { return ErrTimeout }

// MsgOutcome is a fault filter's verdict on one message at the messaging
// layer. Drop applies only to same-node messages (cross-node drops and
// delays are ruled on by the fabric filter); Duplicate delivers the
// message twice, the second copy marked so its Reply is discarded.
type MsgOutcome struct {
	Drop      bool
	Duplicate bool
}

// Filter is an optional method set of a fabric's fault filter
// (topo.Filter): when the filter installed on a layer's fabric also
// implements it, the layer asks it about every message offered, and the
// reliable transport about every data frame. The fault injector
// implements both, so installing it on the fabric is the only fault
// switch a layer needs.
type Filter interface {
	MsgOutcome(from, to int, service, kind string) MsgOutcome
}

// FaultStats counts fault-path events at the messaging layer.
type FaultStats struct {
	Dropped           int64 // same-node messages dropped (crashed node)
	Duplicated        int64 // messages delivered twice
	DupRepliesDropped int64 // replies to duplicates discarded
	Timeouts          int64 // CallTimeout expiries
}

// FaultStats returns a copy of the layer's fault-path counters.
func (l *Layer) FaultStats() FaultStats { return l.faults }

// CallTimeout delivers a request like Call but gives up after the timeout,
// returning a *TimeoutError (matching ErrTimeout). A late reply to a
// timed-out call fires into the void; the caller must treat the request as
// possibly-executed, which is why handlers on retried services are
// idempotent.
func (l *Layer) CallTimeout(p *sim.Proc, from, to int, service, kind string, size int, payload any, timeout sim.Time) (*Message, error) {
	if timeout <= 0 {
		panic("msg: CallTimeout needs a positive timeout")
	}
	m := &Message{From: from, To: to, Service: service, Kind: kind, Size: size, Payload: payload, layer: l, call: true, span: p.Span()}
	l.deliver(m)
	if !p.WaitTimeout(&m.ev, timeout) {
		l.faults.Timeouts++
		return nil, &TimeoutError{To: to, Service: service, Kind: kind, Attempts: 1, Elapsed: timeout}
	}
	return m, nil
}
