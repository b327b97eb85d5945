package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// TestPolicyComparisonCoversAllPolicies runs the default three-policy
// grid at smoke scale and asserts the comparison table carries one row
// per reclaim policy — the N-policy generalization must not silently
// drop a soak.
func TestPolicyComparisonCoversAllPolicies(t *testing.T) {
	spec := experiments.SweepSpec{
		Experiments: []string{"fleetsoak", "fleetsoak-evict", "fleetsoak-resize"},
		Scales:      []float64{0.02},
		Seeds:       sweep.Seeds(1, 2),
	}
	res, err := experiments.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	cmp := policyComparison(res)
	if cmp == nil {
		t.Fatal("no comparison table for a full three-policy grid")
	}
	want := map[string]bool{"consolidate": false, "evict": false, "resize": false}
	for _, row := range cmp.Rows {
		if _, ok := want[row[1]]; ok {
			want[row[1]] = true
		}
	}
	for pol, seen := range want {
		if !seen {
			t.Errorf("comparison table missing a %q row:\n%s", pol, cmp.String())
		}
	}
	if !strings.Contains(cmp.Headers[0], "scale") {
		t.Errorf("unexpected headers: %v", cmp.Headers)
	}
}

// TestPolicyComparisonNeedsTwoPolicies: a single-policy grid must not
// produce a comparison.
func TestPolicyComparisonNeedsTwoPolicies(t *testing.T) {
	res, err := experiments.RunSweep(experiments.SweepSpec{
		Experiments: []string{"fleetsoak"},
		Scales:      []float64{0.02},
		Seeds:       sweep.Seeds(1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp := policyComparison(res); cmp != nil {
		t.Fatalf("single-policy grid produced a comparison:\n%s", cmp.String())
	}
}

// TestCheckSeeds: a -seeds count below 1 is rejected instead of
// panicking (negative) or silently running the default seed (zero).
func TestCheckSeeds(t *testing.T) {
	for _, n := range []int{1, 8} {
		if err := checkSeeds(n); err != nil {
			t.Errorf("-seeds %d rejected: %v", n, err)
		}
	}
	for _, n := range []int{0, -2} {
		if err := checkSeeds(n); err == nil {
			t.Errorf("-seeds %d accepted", n)
		}
	}
}
