// Fault tolerance for the DSM protocol: ownership re-routing away from
// declared-dead nodes, and a coherence checker for tests.
//
// The protocol in dsm.go needs no retries of its own. Over a faulted
// fabric the messaging layer carries every request, grant and reply over
// its reliable transport, exactly once, retransmitting until the frame is
// acknowledged or MarkDead fences an endpoint. What is left here is the
// fence:
//
//   - A call to a replica holder (fetch/invalidate) or a grant to a
//     requester fails once MarkDead fences the peer, and a requester
//     fenced mid-fault gives up its wait. One rule re-homes a fenced
//     owner's pages and extents: the first surviving holder in node
//     order takes over, else the origin, whose replica then stands in for
//     the lost one. MarkDead applies it, and a grant whose owner is fenced
//     mid-call asks the successor MarkDead chose instead of deciding
//     again. Only a dead exclusive owner's sole copies are lost; they stay
//     stale until checkpoint restore reinstalls them — exactly the window
//     the paper's checkpoint/restart mechanism (§6.4) exists to close.
//   - A grant never names a fenced node in the directory: a read grant
//     leaves a requester fenced mid-grant out of the copyset, and a write
//     grant applies the re-homing rule to it, keeping the bytes it
//     collected.
//
// The protocol sees only what a real host could: a node is live until the
// failure detector declares it dead. A crashed node that is not yet
// declared looks like a slow one, and calls toward it wait for the
// declaration.
package dsm

import (
	"bytes"
	"fmt"
	"math/bits"
	"sort"
)

// alive reports whether a node participates in the protocol: the
// messaging layer has not fenced it out. The fence is final even when
// failure detection misfires (e.g. a long partition): the declared-dead
// node may still be running, but it must not receive grants or mutate
// survivor state.
func (d *DSM) alive(node int) bool { return !d.layer.Fenced(node) }

// Fenced reports whether MarkDead has fenced the node out. The layer's
// fence is the record of which slices are declared dead; a node outside
// the DSM is never reported fenced.
func (d *DSM) Fenced(node int) bool {
	return node >= 0 && node < len(d.idx) && d.idx[node] >= 0 && !d.alive(node)
}

// reconcileOrigin re-settles the origin's replica record after a grant's
// blocking steps. MarkDead cannot take page locks (it may run from a
// timer callback), so when it re-homes a sole-owner page to the origin it
// forces the origin's replica Exclusive under a lock someone else may
// hold. The lock-holding grant that resumes afterwards supersedes that
// fallback: once it has settled ownership, the origin's replica must
// match the directory — invalid when the origin is outside the copyset,
// at most Shared when it shares the page.
func (d *DSM) reconcileOrigin(r *pageRec) {
	if r.held&1 == 0 {
		return
	}
	lp := &r.local[0]
	if r.copyset&1 == 0 {
		lp.state = Invalid
		return
	}
	if lp.state == Exclusive && (r.copyset != 1 || r.owner != d.origin) {
		lp.state = Shared
	}
}

// successor picks who takes over from a fenced owner, given the surviving
// holders by dense index: the first in node order, else the origin.
func (d *DSM) successor(holders uint32) int {
	if holders == 0 {
		return d.origin
	}
	return d.nodes[bits.TrailingZeros32(holders)]
}

// rehome hands a page whose owner was fenced out, its copyset already
// cleared of fenced nodes, to the successor. With no holder left the
// origin's replica becomes the only copy.
func (d *DSM) rehome(r *pageRec) {
	r.owner = d.successor(r.copyset)
	if r.copyset == 0 {
		r.copyset = 1
		d.replica(r, 0).state = Exclusive
	}
}

// MarkDead removes a crashed node from the protocol: it fences the node
// out of the messaging layer, which fails every call and fault waiting
// on it, then drops its replicas from every copyset, re-homes the pages
// and extents it owned to their successors, and invalidates its local
// replicas. Call it once failure detection (the hypervisor heartbeat)
// declares the node dead, before survivors resume.
func (d *DSM) MarkDead(node int) {
	if node == d.origin {
		panic("dsm: cannot mark the origin dead (the directory dies with it)")
	}
	deadBit := d.bit(node)
	ni := d.index(node)
	d.layer.MarkDead(node)
	for _, r := range d.pages {
		if r.held&deadBit != 0 {
			r.local[ni].state = Invalid
		}
		if !r.inDir {
			continue
		}
		r.copyset &^= deadBit
		if r.owner == node {
			d.rehome(r)
		}
	}
	// Bulk extents follow the same rule: surviving replicas keep the data,
	// and a sole-owner extent's contents wait for checkpoint restart.
	for i := range d.extents.exts {
		x := &d.extents.exts[i]
		if x.owner == unclaimed {
			continue
		}
		x.copies &^= deadBit
		if x.owner == node {
			x.owner = d.successor(x.copies)
			x.copies |= d.bit(x.owner)
		}
	}
}

// Validate checks the coherence invariants over every explicitly-managed
// page, considering only nodes MarkDead has not fenced out:
//
//   - the directory owner is alive and holds a valid replica;
//   - an Exclusive replica is the only valid replica;
//   - every copyset member holds a valid replica, every non-member holds
//     none, and all valid replicas carry identical bytes (a zero page,
//     whose buffer is nil, equals a buffer of zeros).
//
// It returns nil when coherent, or an error naming the first violation.
// Validate sees only the declared view, so run MarkDead for every crashed
// node first: an undeclared crashed node counts as live, and its replicas
// are checked like any survivor's.
func (d *DSM) Validate() error {
	recs := make([]*pageRec, 0, len(d.pages))
	for _, r := range d.pages {
		if r.inDir {
			recs = append(recs, r)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].page < recs[j].page })
	for _, r := range recs {
		pg := r.page
		if !d.alive(r.owner) {
			return fmt.Errorf("dsm: page %#x owned by dead node %d", uint64(pg), r.owner)
		}
		oi := d.index(r.owner)
		if r.copyset&(1<<oi) == 0 {
			return fmt.Errorf("dsm: page %#x owner %d not in copyset", uint64(pg), r.owner)
		}
		ownerLP := &r.local[oi]
		if r.held&(1<<oi) == 0 || ownerLP.state == Invalid {
			return fmt.Errorf("dsm: page %#x owner %d holds no valid replica", uint64(pg), r.owner)
		}
		for i, n := range d.nodes {
			if !d.alive(n) {
				continue
			}
			lp := &r.local[i]
			valid := r.held&(1<<i) != 0 && lp.state != Invalid
			member := r.copyset&(1<<i) != 0
			if member && !valid {
				return fmt.Errorf("dsm: page %#x copyset member %d holds no valid replica", uint64(pg), n)
			}
			if !member && valid {
				return fmt.Errorf("dsm: page %#x node %d holds a replica outside the copyset (%v)", uint64(pg), n, lp.state)
			}
			if valid && lp.state == Exclusive && n != r.owner {
				return fmt.Errorf("dsm: page %#x node %d exclusive but owner is %d", uint64(pg), n, r.owner)
			}
			if valid && !bytes.Equal(lp.contents(), ownerLP.contents()) {
				return fmt.Errorf("dsm: page %#x replica at node %d diverges from owner %d", uint64(pg), n, r.owner)
			}
		}
		if ownerLP.state == Exclusive && r.copyset != 1<<oi {
			return fmt.Errorf("dsm: page %#x exclusive at %d with %d copyset members", uint64(pg), r.owner, bits.OnesCount32(r.copyset))
		}
	}
	return nil
}
