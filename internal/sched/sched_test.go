package sched

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBFFBestFit(t *testing.T) {
	// node0 has 4 free, node1 has 6 free, node2 has 12 free: a 4-vCPU VM
	// fits node0 exactly.
	if n, ok := BestFit([]int{4, 6, 12}, 4, nil, nil); !ok || n != 0 {
		t.Fatalf("BestFit picked %d (ok=%v), want node 0", n, ok)
	}
}

func TestFragmentedPlacement(t *testing.T) {
	// 2 CPUs total remain, 1 per node: only an Aggregate VM fits.
	free := []int{1, 1}
	if n, ok := BestFit(free, 2, nil, nil); ok {
		t.Fatalf("BestFit placed on node %d despite no node fitting", n)
	}
	pl, ok := FragPlacement(free, 2, MinNodes, nil, nil)
	if !ok || !reflect.DeepEqual(pl, Placement{{0, 1}, {1, 1}}) {
		t.Fatalf("placement = %v (ok=%v), want 1+1 across nodes", pl, ok)
	}
}

func TestDelayWhenNoCapacity(t *testing.T) {
	// A full cluster, and one whose fragments sum short of the request:
	// neither BFF nor FragBFF places, so the caller must delay.
	for _, free := range [][]int{{0}, {1, 0, 0}} {
		if _, ok := BestFit(free, 2, nil, nil); ok {
			t.Fatalf("BestFit(%v, 2) placed", free)
		}
		if pl, ok := FragPlacement(free, 2, MinFrag, nil, nil); ok || pl != nil {
			t.Fatalf("FragPlacement(%v, 2) = %v (ok=%v), want refusal", free, pl, ok)
		}
	}
}

func TestMinFragFillsFragmentsPartially(t *testing.T) {
	// The paper's t=470 scenario: a 1-CPU fragment opens on node 0 of a
	// 12-CPU cluster while the Aggregate VM runs 2+2. Full consolidation
	// is impossible, but MinFrag still moves one vCPU to fill the
	// fragment completely; MinNodes only moves when a slice empties.
	free := []int{1, 0, 0, 0}
	pl := Placement{{0, 2}, {1, 2}}
	var p Planner
	if got := p.Moves(free, 12, pl, MinFrag, nil); !reflect.DeepEqual(got, []Move{{From: 1, To: 0, N: 1}}) {
		t.Fatalf("MinFrag moves = %v, want one vCPU 1->0", got)
	}
	if got := p.Moves(free, 12, pl, MinNodes, nil); len(got) != 0 {
		t.Fatalf("MinNodes moves = %v, want none", got)
	}
}

// TestSchedulerNeverOvercommits replays random consolidation plans move
// by move: no move takes more than its source slice holds or its
// destination has free, the VM keeps every vCPU, and under MinFrag no
// move increases the cluster's fragment count.
func TestSchedulerNeverOvercommits(t *testing.T) {
	const cap = 8
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pol := Policy(rng.Intn(2))
		nodes := 2 + rng.Intn(6)
		free := make([]int, nodes)
		var pl Placement
		total := 0
		for n := range free {
			free[n] = rng.Intn(cap + 1)
			if c := rng.Intn(cap - free[n] + 1); c > 0 && rng.Intn(2) == 0 {
				pl.Add(n, c)
				total += c
			}
		}
		var p Planner
		for _, m := range p.Moves(free, cap, pl, pol, nil) {
			if m.N <= 0 || pl.CPUs(m.From) < m.N || free[m.To] < m.N || pl.CPUs(m.To) == 0 {
				t.Errorf("seed %d: move %+v invalid against free %v placement %v", seed, m, free, pl)
				return false
			}
			if pol == MinFrag && FragCountAfter(free, cap, m.From, m.To, m.N) > FragCount(free, cap) {
				t.Errorf("seed %d: MinFrag move %+v fragments the cluster", seed, m)
				return false
			}
			free[m.To] -= m.N
			free[m.From] += m.N
			pl.Add(m.From, -m.N)
			pl.Add(m.To, m.N)
		}
		sum := 0
		for _, f := range pl {
			sum += f.CPUs
		}
		return sum == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPoliciesDiffer(t *testing.T) {
	// The same fragmented state: MinNodes takes the biggest fragments
	// (3 nodes), MinFrag eats the small ones first (all 4 nodes).
	free := []int{1, 1, 2, 1}
	mn, ok1 := FragPlacement(free, 4, MinNodes, nil, nil)
	mf, ok2 := FragPlacement(free, 4, MinFrag, nil, nil)
	if !ok1 || !ok2 {
		t.Fatalf("placements failed: MinNodes ok=%v MinFrag ok=%v", ok1, ok2)
	}
	if !reflect.DeepEqual(mn, Placement{{0, 1}, {1, 1}, {2, 2}}) || !reflect.DeepEqual(mf, Placement{{0, 1}, {1, 1}, {2, 1}, {3, 1}}) {
		t.Fatalf("MinNodes %v, MinFrag %v", mn, mf)
	}
	if len(mn) >= len(mf) {
		t.Fatalf("MinNodes spans %d nodes, MinFrag %d — policy inverted", len(mn), len(mf))
	}
}

// consolidationMovesRef is the map-based planner the slice planner
// replaced, kept verbatim as the equivalence oracle: it copies the
// placement into a map and re-sorts the map's nodes for every source
// slice.
func consolidationMovesRef(free []int, cap int, placement Placement, pol Policy, dist DistanceFunc) []Move {
	free = append([]int(nil), free...)
	pl := make(map[int]int, len(placement))
	for _, f := range placement {
		pl[f.Node] = f.CPUs
	}
	var moves []Move
	for changed := true; changed; {
		changed = false
		nodes := sortedNodes(pl)
		// Try to empty the smallest slice into peers.
		sort.Slice(nodes, func(i, j int) bool {
			if pl[nodes[i]] != pl[nodes[j]] {
				return pl[nodes[i]] < pl[nodes[j]]
			}
			return nodes[i] < nodes[j]
		})
		for _, src := range nodes {
			if len(pl) == 1 {
				break
			}
			// Destinations: peers with free capacity. Prefer filling
			// tighter fragments (MinFrag) or the fullest slice
			// (MinNodes), then the nearest node.
			var dsts []int
			for _, d := range sortedNodes(pl) {
				if d != src && free[d] > 0 {
					dsts = append(dsts, d)
				}
			}
			sort.Slice(dsts, func(i, j int) bool {
				if pol == MinFrag {
					if free[dsts[i]] != free[dsts[j]] {
						return free[dsts[i]] < free[dsts[j]]
					}
				} else {
					if pl[dsts[i]] != pl[dsts[j]] {
						return pl[dsts[i]] > pl[dsts[j]]
					}
				}
				if dist != nil {
					if di, dj := dist(src, dsts[i]), dist(src, dsts[j]); di != dj {
						return di < dj
					}
				}
				return dsts[i] < dsts[j]
			})
			for _, dst := range dsts {
				move := pl[src]
				if move > free[dst] {
					move = free[dst]
				}
				if move == 0 {
					continue
				}
				empties := move == pl[src]
				// Partial moves are allowed under MinFrag when they
				// fill the destination fragment completely, but only
				// from a smaller slice into an equal-or-bigger one:
				// that strictly increases the placement's sum of
				// squares, so consolidation cannot oscillate.
				fills := move == free[dst] && pl[dst] >= pl[src]
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
				pl[src] -= move
				pl[dst] += move
				if pl[src] == 0 {
					delete(pl, src)
				}
				moves = append(moves, Move{From: src, To: dst, N: move})
				changed = true
				if pl[src] == 0 {
					break
				}
			}
		}
	}
	return moves
}

// sortedNodes returns a map placement's nodes in ascending order.
func sortedNodes(pl map[int]int) []int {
	out := make([]int, 0, len(pl))
	for n := range pl {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// TestConsolidationMovesMatchesReference: the slice planner returns
// exactly the reference's moves on seeded random cases — free vectors of
// 1–9 nodes, placements of 1–6 fragments, both policies, with no
// topology and with a tree distance — both on a zero Planner and on one
// Planner reused across every case.
func TestConsolidationMovesMatchesReference(t *testing.T) {
	const cases = 12000
	rng := rand.New(rand.NewSource(21))
	var p Planner
	moved := 0
	for c := 0; c < cases; c++ {
		cap := 1 + rng.Intn(12)
		nodes := 1 + rng.Intn(9)
		frags := 1 + rng.Intn(min(nodes, 6))
		free := make([]int, nodes)
		var pl Placement
		for _, n := range rng.Perm(nodes)[:frags] {
			pl.Add(n, 1+rng.Intn(cap))
			free[n] = rng.Intn(cap - pl.CPUs(n) + 1)
		}
		for n := range free {
			if pl.CPUs(n) == 0 {
				free[n] = rng.Intn(cap + 1)
			}
		}
		pol := Policy(c % 2)
		var dist DistanceFunc
		if c%4 >= 2 {
			dist = treeDist
		}
		want := consolidationMovesRef(free, cap, pl, pol, dist)
		var fresh Planner
		got := fresh.Moves(free, cap, pl, pol, dist)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (free %v, cap %d, placement %v, %v, tree %v): moves %v, reference %v",
				c, free, cap, pl, pol, dist != nil, got, want)
		}
		if reused := p.Moves(free, cap, pl, pol, dist); !slices.Equal(reused, want) {
			t.Fatalf("case %d (free %v, cap %d, placement %v, %v, tree %v): reused planner's moves %v, reference %v",
				c, free, cap, pl, pol, dist != nil, reused, want)
		}
		if len(want) > 0 {
			moved++
		}
	}
	if moved < cases/10 {
		t.Fatalf("only %d of %d cases planned any move: the generator is too tame", moved, cases)
	}
}
