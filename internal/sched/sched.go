// Package sched holds the paper's cluster scheduling decisions (§6.5) as
// pure functions over capacity vectors: Best-Fit-First (BFF) placement
// and FragBFF, the policy that turns placement failures into Aggregate-VM
// placements over fragmented capacity and consolidates Aggregate VMs by
// planning vCPU migrations as resources free up.
//
// FragBFF behaves as the paper describes:
//
//   - When BFF cannot fit a VM on any single node, FragPlacement searches
//     for a set of nodes whose fragments jointly satisfy the request,
//     under one of two policies: MinNodes (fewest nodes, largest fragments
//     first) or MinFrag (consume the smallest fragments first, minimizing
//     overall cluster fragmentation). If even the fragments do not
//     suffice, the caller delays the request.
//   - Whenever capacity frees up, Planner.Moves plans vCPU migrations
//     between an Aggregate VM's slices when that either empties a slice
//     (fewer nodes) or completely fills a fragment (less fragmentation).
//   - An Aggregate VM that ends up on a single node is handed back to
//     plain BFF.
//
// Nothing here holds state or time: the fleet control plane
// (internal/fleet) owns the cluster's books, the event loop, and the live
// migrations behind each decision (Fig 14 runs on it). An optional
// topology oracle (DistanceFunc, topo.go) breaks the ties the capacity
// policy leaves open.
package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Policy selects FragBFF's placement/consolidation objective.
type Policy int

const (
	// MinFrag minimizes overall cluster fragmentation: placements eat
	// the smallest usable fragments and consolidation fills fragments
	// completely.
	MinFrag Policy = iota
	// MinNodes minimizes the number of nodes each Aggregate VM spans.
	MinNodes
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case MinFrag:
		return "min-frag"
	case MinNodes:
		return "min-nodes"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Fragment is one slice of a placement: CPUs of the VM's vCPUs on Node.
type Fragment struct{ Node, CPUs int }

// Placement is where a VM's vCPUs run: its fragments in ascending node
// order, none empty. A VM spans a few nodes of many, so lookups binary
// search the fragments. Outside this package Add is the only writer,
// and it keeps both properties.
type Placement []Fragment

// find returns where node's fragment is, or would be inserted, and
// whether it is there.
func (pl Placement) find(node int) (int, bool) {
	return slices.BinarySearchFunc(pl, node, func(f Fragment, n int) int { return cmp.Compare(f.Node, n) })
}

// CPUs returns the vCPUs the placement hosts on node, 0 when none.
func (pl Placement) CPUs(node int) int {
	if i, ok := pl.find(node); ok {
		return pl[i].CPUs
	}
	return 0
}

// Add changes the vCPUs on node by delta: it inserts the node's
// fragment, adjusts it, or drops it when it reaches 0. It panics when
// the node would host fewer than 0.
func (pl *Placement) Add(node, delta int) {
	i, ok := pl.find(node)
	c := delta
	if ok {
		c += (*pl)[i].CPUs
	}
	switch {
	case c < 0:
		panic(fmt.Sprintf("sched: node %d would host %d vCPUs", node, c))
	case ok && c == 0:
		*pl = slices.Delete(*pl, i, i+1)
	case ok:
		(*pl)[i].CPUs = c
	case c > 0:
		*pl = slices.Insert(*pl, i, Fragment{node, c})
	}
}

// String renders the placement as node:count pairs in node order:
// "n0:2 n1:2".
func (pl Placement) String() string {
	var b strings.Builder
	for i, f := range pl {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "n%d:%d", f.Node, f.CPUs)
	}
	return b.String()
}

// BestFit returns the index into free whose capacity fits the request most
// tightly. Among equally tight fits it prefers the node closest (summed
// distance) to the anchor set near — typically the nodes already hosting
// the VM's other fragments — and then the lowest index. With dist == nil
// (or no anchors) only tightness and index decide.
func BestFit(free []int, need int, dist DistanceFunc, near []int) (int, bool) {
	best, bestLeft, bestDist := -1, 1<<30, 1<<30
	for n, f := range free {
		if f < need {
			continue
		}
		left, d := f-need, distTo(dist, n, near)
		if left < bestLeft || (left == bestLeft && d < bestDist) {
			best, bestLeft, bestDist = n, left, d
		}
	}
	return best, best >= 0
}

// FragPlacement gathers fragments of the free-capacity vector into an
// all-or-nothing multi-node placement under the given policy. It returns
// false (and no placement) when the fragments jointly cannot satisfy the
// request — gang semantics.
//
// Fragments are consumed greedily in policy order (MinNodes: biggest
// first; MinFrag: smallest first), but each pick after the first prefers
// the fragment closest to the set already chosen, falling back to policy
// order on ties. The anchor set near seeds the chosen set (admission
// passes nil; borrowing passes the gang's existing nodes so new fragments
// cluster around them). With dist == nil every candidate scores 0 and the
// picks follow policy order exactly.
func FragPlacement(free []int, need int, pol Policy, dist DistanceFunc, near []int) (Placement, bool) {
	type frag struct{ node, free int }
	var frags []frag
	total := 0
	for n, f := range free {
		if f > 0 {
			frags = append(frags, frag{n, f})
			total += f
		}
	}
	if total < need {
		return nil, false
	}
	switch pol {
	case MinNodes:
		sort.Slice(frags, func(i, j int) bool {
			if frags[i].free != frags[j].free {
				return frags[i].free > frags[j].free
			}
			return frags[i].node < frags[j].node
		})
	case MinFrag:
		sort.Slice(frags, func(i, j int) bool {
			if frags[i].free != frags[j].free {
				return frags[i].free < frags[j].free
			}
			return frags[i].node < frags[j].node
		})
	}
	chosen := append([]int(nil), near...)
	var pl Placement
	for need > 0 {
		// Pick the policy-earliest fragment among those closest to the
		// chosen set; the first pick with no anchors scores everything 0
		// and therefore takes the policy-first fragment.
		pick, pickDist := -1, 1<<30
		for i, f := range frags {
			if f.free == 0 {
				continue
			}
			if d := distTo(dist, f.node, chosen); d < pickDist {
				pick, pickDist = i, d
			}
		}
		if pick < 0 {
			return nil, false
		}
		f := frags[pick]
		take := f.free
		if take > need {
			take = need
		}
		pl.Add(f.node, take)
		need -= take
		chosen = append(chosen, f.node)
		frags[pick].free = 0
	}
	return pl, true
}

// Move is one planned vCPU transfer between two slices of a placement.
type Move struct {
	From, To, N int
}

// Planner plans the FragBFF consolidation pass for one multi-node
// placement: the ordered vCPU moves to issue given the cluster's
// free-capacity vector and per-node capacity, including the MinFrag
// fragmentation veto (the paper's t=222 decision).
//
// When several destinations are otherwise equally attractive, vCPUs
// migrate to the node nearest their source — migration traffic (state
// transfer, then DSM re-warming) is cheapest within the rack. The
// distance key ranks strictly after the policy's capacity keys and is
// skipped when dist == nil.
//
// A Planner keeps its fragment, free-vector and move buffers between
// calls, so once they have grown to the largest placement and cluster
// it has planned for, planning allocates nothing. The zero value is
// ready to use; a Planner is not safe for concurrent use.
type Planner struct {
	frags []Fragment
	ints  []int
	moves []Move
}

// Moves plans the consolidation pass for placement. The inputs are not
// mutated; the returned moves are valid until the next call.
func (p *Planner) Moves(free []int, cap int, placement Placement, pol Policy, dist DistanceFunc) []Move {
	// The placement's fragments, already in node order, are copied into
	// the first half of the fragment buffer; the second half holds each
	// round's source order. Within one call the node set only shrinks —
	// every destination is an existing slice and only an emptied source
	// leaves — so node order holds. The free-vector copy and the
	// destination list (indices into pl) share one buffer too.
	k := len(placement)
	p.frags = resize(p.frags, 2*k)
	pl, order := Placement(append(p.frags[:0:k], placement...)), p.frags[k:k]
	p.ints = resize(p.ints, len(free)+k)
	n := copy(p.ints, free)
	free, dsts := p.ints[:n:n], p.ints[n:n]
	moves := p.moves[:0]
	for changed := true; changed; {
		changed = false
		// Try to empty the smallest slice into peers.
		order = append(order[:0], pl...)
		slices.SortFunc(order, func(a, b Fragment) int {
			if a.CPUs != b.CPUs {
				return cmp.Compare(a.CPUs, b.CPUs)
			}
			return cmp.Compare(a.Node, b.Node)
		})
		for _, s := range order {
			if len(pl) == 1 {
				break
			}
			src := s.Node
			si, _ := pl.find(src) // present: only sources already visited leave
			// Destinations: peers with free capacity. Prefer filling
			// tighter fragments (MinFrag) or the fullest slice
			// (MinNodes), then the nearest node.
			dsts = dsts[:0]
			for i, d := range pl {
				if i != si && free[d.Node] > 0 {
					dsts = append(dsts, i)
				}
			}
			slices.SortFunc(dsts, func(i, j int) int {
				a, b := pl[i], pl[j]
				if pol == MinFrag {
					if free[a.Node] != free[b.Node] {
						return cmp.Compare(free[a.Node], free[b.Node])
					}
				} else {
					if a.CPUs != b.CPUs {
						return cmp.Compare(b.CPUs, a.CPUs)
					}
				}
				if dist != nil {
					if da, db := dist(src, a.Node), dist(src, b.Node); da != db {
						return cmp.Compare(da, db)
					}
				}
				return cmp.Compare(a.Node, b.Node)
			})
			for _, di := range dsts {
				dst := pl[di].Node
				move := min(pl[si].CPUs, free[dst])
				if move == 0 {
					continue
				}
				empties := move == pl[si].CPUs
				// Partial moves are allowed under MinFrag when they
				// fill the destination fragment completely, but only
				// from a smaller slice into an equal-or-bigger one:
				// that strictly increases the placement's sum of
				// squares, so consolidation cannot oscillate.
				fills := move == free[dst] && pl[di].CPUs >= pl[si].CPUs
				if !empties && !(pol == MinFrag && fills) {
					continue
				}
				// Under MinFrag, even a slice-emptying move is vetoed
				// when it would leave the cluster more fragmented —
				// the paper's t=222 decision: consolidating now would
				// split one usable 4-CPU fragment into two 2-CPU ones.
				if pol == MinFrag && FragCountAfter(free, cap, src, dst, move) > FragCount(free, cap) {
					continue
				}
				free[dst] -= move
				free[src] += move
				pl[si].CPUs -= move
				pl[di].CPUs += move
				moves = append(moves, Move{From: src, To: dst, N: move})
				changed = true
				if pl[si].CPUs == 0 {
					pl = slices.Delete(pl, si, si+1)
					break
				}
			}
		}
	}
	p.moves = moves
	return moves
}

// resize returns buf with length n, reallocating only when its capacity
// is short; the contents are not kept.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// FragCount returns the number of partially-free entries of the
// free-capacity vector — usable fragments that strand capacity. Pure.
func FragCount(free []int, cap int) int {
	n := 0
	for _, f := range free {
		if f > 0 && f < cap {
			n++
		}
	}
	return n
}

// FragCountAfter evaluates FragCount as if n vCPUs moved from src to dst.
func FragCountAfter(free []int, cap, src, dst, n int) int {
	count := 0
	for node, f := range free {
		switch node {
		case src:
			f += n
		case dst:
			f -= n
		}
		if f > 0 && f < cap {
			count++
		}
	}
	return count
}
