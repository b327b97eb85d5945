package sched

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestPlacementMatchesMapModel applies seeded random Add sequences to a
// Placement and to a map[int]int model side by side. After every step
// the placement must be in strictly ascending node order with no empty
// fragment, and its CPUs for every node, its length and its String must
// be the model's.
func TestPlacementMatchesMapModel(t *testing.T) {
	const nodes = 12
	rng := rand.New(rand.NewSource(46))
	for seq := 0; seq < 400; seq++ {
		var pl Placement
		model := map[int]int{}
		for step := 0; step < 40; step++ {
			node := rng.Intn(nodes)
			delta := rng.Intn(4) // grow, or leave as is
			if rng.Intn(3) == 0 {
				delta = rng.Intn(5) - model[node] // any size, down to 0
			}
			pl.Add(node, delta)
			if model[node] += delta; model[node] == 0 {
				delete(model, node)
			}
			where := fmt.Sprintf("sequence %d step %d: Add(%d, %d)", seq, step, node, delta)
			for i, f := range pl {
				if f.CPUs <= 0 {
					t.Fatalf("%s: fragment %d is %+v, want no empty fragment", where, i, f)
				}
				if i > 0 && pl[i-1].Node >= f.Node {
					t.Fatalf("%s: fragments %v are not in ascending node order", where, []Fragment(pl))
				}
			}
			for n := -1; n <= nodes; n++ {
				if got := pl.CPUs(n); got != model[n] {
					t.Fatalf("%s: CPUs(%d) = %d, model %d", where, n, got, model[n])
				}
			}
			if len(pl) != len(model) {
				t.Fatalf("%s: %d fragments, model %d", where, len(pl), len(model))
			}
			var want []string
			for _, n := range sortedNodes(model) {
				want = append(want, fmt.Sprintf("n%d:%d", n, model[n]))
			}
			if got := pl.String(); got != strings.Join(want, " ") {
				t.Fatalf("%s: String() = %q, model %q", where, got, strings.Join(want, " "))
			}
		}
	}
}

// TestPlacementAddPanicsBelowZero: a node never hosts fewer than zero
// vCPUs, whether it has a fragment or not, and the refused Add leaves
// the placement as it was.
func TestPlacementAddPanicsBelowZero(t *testing.T) {
	for _, c := range []struct{ node, delta int }{{1, -3}, {2, -1}} {
		pl := Placement{{1, 2}, {3, 1}}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d, %d) on %v did not panic", c.node, c.delta, pl)
				}
			}()
			pl.Add(c.node, c.delta)
		}()
		if pl.String() != "n1:2 n3:1" {
			t.Errorf("Add(%d, %d) panicked but left %v", c.node, c.delta, pl)
		}
	}
}
