package sched

import (
	"reflect"
	"testing"
	"testing/quick"
)

// treeDist is topo.Spec{Racks: 2, NodesPerRack: 2}.Distance inlined so
// the sched tests stay free of a topo dependency: nodes {0,1} share a
// rack, {2,3} share a rack, cross-rack pairs are 4 links apart.
func treeDist(a, b int) int {
	switch {
	case a == b:
		return 0
	case a/2 == b/2:
		return 2
	default:
		return 4
	}
}

// TestTopoNilDistEquivalence is the flat-equivalence contract of the
// distance term: a constant oracle — every pair equidistant — decides
// exactly like a nil one, with or without anchors, because the distance
// term only breaks ties the capacity keys leave open.
func TestTopoNilDistEquivalence(t *testing.T) {
	uniform := func(a, b int) int { return 2 }
	prop := func(raw []uint8, need16 uint16, anchorBits uint8) bool {
		if len(raw) > 8 {
			raw = raw[:8]
		}
		free := make([]int, len(raw))
		var near []int
		for i, v := range raw {
			free[i] = int(v % 7)
			if anchorBits&(1<<i) != 0 {
				near = append(near, i)
			}
		}
		need := int(need16 % 24)

		n1, ok1 := BestFit(free, need, nil, near)
		n2, ok2 := BestFit(free, need, uniform, near)
		if n1 != n2 || ok1 != ok2 {
			return false
		}
		for _, pol := range []Policy{MinFrag, MinNodes} {
			p1, ok1 := FragPlacement(free, need, pol, nil, near)
			p2, ok2 := FragPlacement(free, need, pol, uniform, near)
			if ok1 != ok2 || !reflect.DeepEqual(p1, p2) {
				return false
			}
			if ok1 {
				var q1, q2 Planner
				m1 := q1.Moves(free, 8, p1, pol, nil)
				m2 := q2.Moves(free, 8, p2, pol, uniform)
				if !reflect.DeepEqual(m1, m2) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBestFitLocality(t *testing.T) {
	free := []int{2, 0, 2, 0}
	// Blind: tie between nodes 0 and 2 goes to the lowest index.
	if n, ok := BestFit(free, 2, treeDist, nil); !ok || n != 0 {
		t.Errorf("no anchors: picked %d (ok=%v), want 0", n, ok)
	}
	// Anchored at node 2's rack: the tie now goes to the rack-local node.
	if n, ok := BestFit(free, 2, treeDist, []int{2}); !ok || n != 2 {
		t.Errorf("anchored at 2: picked %d (ok=%v), want 2", n, ok)
	}
	// Capacity still dominates distance: only node 0 fits 2 vCPUs.
	if n, ok := BestFit([]int{2, 1, 1, 1}, 2, treeDist, []int{3}); !ok || n != 0 {
		t.Errorf("tight fit: picked %d (ok=%v), want 0", n, ok)
	}
}

func TestFragPlacementLocality(t *testing.T) {
	// Blind MinNodes takes the two biggest fragments: {0:3, 2:2}.
	free := []int{3, 2, 3, 0}
	blind, ok := FragPlacement(free, 5, MinNodes, nil, nil)
	if !ok || !reflect.DeepEqual(blind, Placement{{0, 3}, {2, 2}}) {
		t.Fatalf("blind placement = %v (ok=%v)", blind, ok)
	}
	// Topology-aware: after the policy-first pick (node 0), node 1 at
	// distance 2 beats node 2 at distance 4 despite its smaller fragment.
	aware, ok := FragPlacement(free, 5, MinNodes, treeDist, nil)
	if !ok || !reflect.DeepEqual(aware, Placement{{0, 3}, {1, 2}}) {
		t.Fatalf("aware placement = %v (ok=%v)", aware, ok)
	}
	if blind.Span(treeDist) != 4 || aware.Span(treeDist) != 2 {
		t.Errorf("spans: blind %d aware %d, want 4 and 2",
			blind.Span(treeDist), aware.Span(treeDist))
	}
	// An anchor seeds the chosen set: borrowing for a gang living on
	// node 3 clusters the new fragment in node 3's rack.
	pl, ok := FragPlacement([]int{2, 0, 2, 0}, 2, MinNodes, treeDist, []int{3})
	if !ok || !reflect.DeepEqual(pl, Placement{{2, 2}}) {
		t.Fatalf("anchored placement = %v (ok=%v), want n2:2", pl, ok)
	}
}

func TestConsolidationMovesLocality(t *testing.T) {
	// Node 3's 1-vCPU slice can be emptied into node 1 or node 2 (equal
	// occupancy, so MinNodes leaves the choice open). Blind takes the
	// lower index; the oracle redirects the migration within the rack.
	free := []int{4, 2, 2, 3}
	placement := Placement{{1, 2}, {2, 2}, {3, 1}}
	var p Planner
	blind := p.Moves(free, 4, placement, MinNodes, nil)
	if len(blind) == 0 || blind[0] != (Move{From: 3, To: 1, N: 1}) {
		t.Fatalf("blind moves = %v, want first move 3->1", blind)
	}
	aware := p.Moves(free, 4, placement, MinNodes, treeDist)
	if len(aware) == 0 || aware[0] != (Move{From: 3, To: 2, N: 1}) {
		t.Fatalf("aware moves = %v, want first move 3->2 (rack-local)", aware)
	}
}

func TestPlacementSpan(t *testing.T) {
	if s := (Placement{{0, 2}}).Span(treeDist); s != 0 {
		t.Errorf("single-node span = %d", s)
	}
	if s := (Placement{{0, 1}, {1, 1}}).Span(treeDist); s != 2 {
		t.Errorf("rack-local span = %d", s)
	}
	if s := (Placement{{0, 1}, {1, 1}, {3, 1}}).Span(treeDist); s != 4 {
		t.Errorf("cross-spine span = %d", s)
	}
	if s := (Placement{{0, 1}, {3, 1}}).Span(nil); s != 0 {
		t.Errorf("nil-oracle span = %d, want 0", s)
	}
}
