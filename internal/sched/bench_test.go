package sched

import (
	"reflect"
	"testing"
)

// budgetPlacement is the fixed consolidation case the alloc budget pins:
// a 4-fragment Aggregate VM on 8-CPU nodes. Each budget case pairs it
// with a free vector: "moves" has free capacity on the VM's own slices
// and elsewhere, "idle" has every node full, so the planner only copies
// its inputs and finds no destination — most VMs on most rebalance
// ticks look like that.
var budgetPlacement = Placement{{1, 2}, {3, 3}, {5, 1}, {7, 4}}

const budgetCap = 8

// budgetCases bound the allocations of one pair of plans (MinFrag, then
// MinNodes). On a reused Planner the pair allocates nothing. On zero
// Planners each call allocates its fragment buffer and its
// free-vector-plus-destinations buffer, and the rest, at most fresh in
// all, is the growth of the returned move list.
var budgetCases = []struct {
	name  string
	free  []int
	fresh int
}{
	{"moves", []int{0, 2, 1, 3, 0, 4, 0, 1}, 9},
	{"idle", make([]int, 8), 4},
}

// planBothPolicies plans the budget placement on p under MinFrag, then
// MinNodes: what a fleet's consolidation pass does per VM, on the
// planner it holds.
func planBothPolicies(p *Planner, free []int) {
	p.Moves(free, budgetCap, budgetPlacement, MinFrag, nil)
	p.Moves(free, budgetCap, budgetPlacement, MinNodes, nil)
}

// BenchmarkConsolidationMoves plans each budget case under both
// policies per op, on one reused Planner: the per-VM cost of every
// consolidation pass.
func BenchmarkConsolidationMoves(b *testing.B) {
	for _, c := range budgetCases {
		b.Run(c.name, func(b *testing.B) {
			var p Planner
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				planBothPolicies(&p, c.free)
			}
		})
	}
}

// TestConsolidationAllocBudget pins the planner's allocations on the
// budget cases: once a Planner's fragment, free-vector and move buffers have
// grown, a pair of plans allocates nothing, moves or no moves, and a
// pair of fresh plans stays within its budget. The "moves" case must
// really plan moves, and the same ones as the reference.
func TestConsolidationAllocBudget(t *testing.T) {
	moving := budgetCases[0].free
	for _, pol := range []Policy{MinFrag, MinNodes} {
		var p Planner
		got := p.Moves(moving, budgetCap, budgetPlacement, pol, nil)
		if want := consolidationMovesRef(moving, budgetCap, budgetPlacement, pol, nil); len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: moves %v, want the reference's %v (and at least one)", pol, got, want)
		}
	}
	for _, c := range budgetCases {
		var p Planner
		if allocs := testing.AllocsPerRun(1000, func() { planBothPolicies(&p, c.free) }); allocs != 0 {
			t.Errorf("%s: a pair of plans on a reused planner allocates %v objects, want 0", c.name, allocs)
		}
		fresh := func() {
			var mf, mn Planner
			mf.Moves(c.free, budgetCap, budgetPlacement, MinFrag, nil)
			mn.Moves(c.free, budgetCap, budgetPlacement, MinNodes, nil)
		}
		if allocs := testing.AllocsPerRun(1000, fresh); allocs > float64(c.fresh) {
			t.Errorf("%s: a pair of fresh plans allocates %v objects, budget %d", c.name, allocs, c.fresh)
		}
	}
}
