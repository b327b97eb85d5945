// Topology-aware placement: the network-distance term BestFit,
// FragPlacement and Planner.Moves consult. The term only ever breaks
// ties the capacity policy leaves open, so with a nil oracle the decisions
// are purely capacity-driven and flat-cluster decision logs (Fig 14, the
// fleet event log) stay byte-identical.

package sched

// DistanceFunc is the topology oracle placement consults: the number of
// network links between two nodes (0 same node, 2 same rack, 4 across
// the spine — topo.Spec.Distance). A nil DistanceFunc means "no
// topology": all pairs are equidistant and placement is purely
// capacity-driven.
type DistanceFunc func(a, b int) int

// distTo sums a candidate node's distance to a set of anchor nodes.
// With a nil oracle or no anchors every candidate scores 0.
func distTo(dist DistanceFunc, node int, anchors []int) int {
	if dist == nil {
		return 0
	}
	total := 0
	for _, a := range anchors {
		total += dist(node, a)
	}
	return total
}

// Span returns the maximum pairwise distance of a placement's nodes — 0
// for a single-node VM, ≤ 2 when every fragment shares a rack (or leaf
// switch), 4 when the gang straddles the spine. With dist == nil it
// returns 0: a flat cluster has no notion of a remote gang.
func (pl Placement) Span(dist DistanceFunc) int {
	if dist == nil {
		return 0
	}
	max := 0
	for i, a := range pl {
		for _, b := range pl[i+1:] {
			if d := dist(a.Node, b.Node); d > max {
				max = d
			}
		}
	}
	return max
}
