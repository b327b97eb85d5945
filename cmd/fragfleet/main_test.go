package main

import (
	"math"
	"testing"
)

// TestCheckFlags: the defaults pass, and every numeric value that used to
// panic the run (or never end it) is rejected before the fleet is built.
func TestCheckFlags(t *testing.T) {
	if err := checkFlags(40, 60, 120, 10); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	if err := checkFlags(0, 60, 120, 10); err != nil {
		t.Fatalf("-vms 0 rejected: %v", err)
	}
	for name, err := range map[string]error{
		"-vms -1":       checkFlags(-1, 60, 120, 10),
		"-window 0":     checkFlags(4, 0, 120, 10),
		"-window -5":    checkFlags(4, -5, 120, 10),
		"-until 0":      checkFlags(4, 60, 0, 10),
		"-until Inf":    checkFlags(4, 60, math.Inf(1), 10),
		"-sample 0":     checkFlags(4, 60, 120, 0),
		"-sample NaN":   checkFlags(4, 60, 120, math.NaN()),
		"-sample 1e-12": checkFlags(4, 60, 120, 1e-12),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
