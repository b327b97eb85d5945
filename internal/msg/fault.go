// Fault-path delivery: RPC timeouts and fault counters. Send and Call
// never lose a message — over a faulted fabric the layer's reliable
// transport retransmits until the frame is acknowledged or MarkDead
// fences an endpoint, and Call reports a fenced peer as an error. The one
// deliberately unreliable exchange is CallTimeout, the failure detector's
// probe: it gives up on its message when the deadline passes, so a lost
// ping is a missed ping rather than a late one.
package msg

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrTimeout is the sentinel for an RPC that received no reply in time.
// Errors returned by CallTimeout wrap it; match with errors.Is.
var ErrTimeout = errors.New("rpc timeout")

// FaultStats counts fault-path events at the messaging layer.
type FaultStats struct {
	Dropped  int64 // same-node messages dropped (crashed node)
	Timeouts int64 // CallTimeout expiries
}

// FaultStats returns a copy of the layer's fault-path counters.
func (l *Layer) FaultStats() FaultStats { return l.faults }

// CallTimeout delivers a request like Call but gives up after the timeout,
// returning an error matching ErrTimeout. Giving up abandons the
// message in the transport: neither the request nor its reply is
// retransmitted afterwards, so a request whose first frame was lost is
// never delivered, and a reply that still arrives fires into the void.
func (l *Layer) CallTimeout(p *sim.Proc, from, to int, service, kind string, size int, payload any, timeout sim.Time) (*Message, error) {
	if timeout <= 0 {
		panic("msg: CallTimeout needs a positive timeout")
	}
	m := &Message{From: from, To: to, Service: service, Kind: kind, Size: size, Payload: payload, layer: l, call: true, span: p.Span()}
	l.deliver(m)
	if !p.WaitTimeout(&m.ev, timeout) {
		l.faults.Timeouts++
		l.rel.Abandon(m)
		return nil, fmt.Errorf("msg: %s/%s to node %d after %v: %w", service, kind, to, timeout, ErrTimeout)
	}
	return m, nil
}
