package sched

import (
	"reflect"
	"testing"
)

// budgetPlacement is the fixed consolidation case the alloc budgets pin:
// a 4-fragment Aggregate VM on 8-CPU nodes. Each budget case pairs it
// with a free vector: "moves" has free capacity on the VM's own slices
// and elsewhere, "idle" has every node full, so the planner only copies
// its inputs and finds no destination — most VMs on most rebalance
// ticks look like that.
var budgetPlacement = Placement{1: 2, 3: 3, 5: 1, 7: 4}

const budgetCap = 8

// budgetCases bound the allocations of one pair of ConsolidationMoves
// calls (MinFrag, then MinNodes). Each call allocates its slot buffer
// and its free-vector-plus-destinations buffer; the rest is the growth
// of the returned move list.
var budgetCases = []struct {
	name   string
	free   []int
	budget int
}{
	{"moves", []int{0, 2, 1, 3, 0, 4, 0, 1}, 9},
	{"idle", make([]int, 8), 4},
}

func planBothPolicies(free []int) {
	ConsolidationMoves(free, budgetCap, budgetPlacement, MinFrag, nil)
	ConsolidationMoves(free, budgetCap, budgetPlacement, MinNodes, nil)
}

// BenchmarkConsolidationMoves plans each budget case under both
// policies per op: the per-VM cost of every consolidation pass.
func BenchmarkConsolidationMoves(b *testing.B) {
	for _, c := range budgetCases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				planBothPolicies(c.free)
			}
		})
	}
}

// TestConsolidationAllocBudget pins the planner's allocations on the
// budget cases, so a regression to per-source map walks and sorts
// fails a test. The "moves" case must really plan moves, and the same
// ones as the reference.
func TestConsolidationAllocBudget(t *testing.T) {
	moving := budgetCases[0].free
	for _, pol := range []Policy{MinFrag, MinNodes} {
		got := ConsolidationMoves(moving, budgetCap, budgetPlacement, pol, nil)
		if want := consolidationMovesRef(moving, budgetCap, budgetPlacement, pol, nil); len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: moves %v, want the reference's %v (and at least one)", pol, got, want)
		}
	}
	for _, c := range budgetCases {
		if allocs := testing.AllocsPerRun(1000, func() { planBothPolicies(c.free) }); allocs > float64(c.budget) {
			t.Errorf("%s: a pair of consolidation plans allocates %v objects, budget %d", c.name, allocs, c.budget)
		}
	}
}
