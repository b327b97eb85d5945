package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
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

// TestParseAt: -reclaim-at and -crash accept a node of the cluster at a
// time >= 0 and reject everything the run cannot use — a node past the
// cluster (which used to panic or crash nothing), a negative time (which
// used to panic the scheduler), and a crash of node 0, which hosts the
// control plane.
func TestParseAt(t *testing.T) {
	if node, at, err := parseAt("reclaim-at", "", 0, 8); err != nil || node != -1 || at != 0 {
		t.Errorf("unset flag = (%d, %v, %v), want (-1, 0, nil)", node, at, err)
	}
	if node, at, err := parseAt("reclaim-at", "2@30", 0, 8); err != nil || node != 2 || at != 30*sim.Second {
		t.Errorf("2@30 = (%d, %v, %v), want (2, 30s, nil)", node, at, err)
	}
	if node, at, err := parseAt("crash", "7@0.5", 1, 8); err != nil || node != 7 || at != 500*sim.Millisecond {
		t.Errorf("crash 7@0.5 = (%d, %v, %v), want (7, 500ms, nil)", node, at, err)
	}
	for _, tc := range []struct {
		name, val string
		first     int
	}{
		{"reclaim-at", "9@30", 0},
		{"reclaim-at", "8@30", 0},
		{"reclaim-at", "-1@30", 0},
		{"reclaim-at", "2@-5", 0},
		{"reclaim-at", "2@NaN", 0},
		{"reclaim-at", "2@Inf", 0},
		{"reclaim-at", "2", 0},
		{"reclaim-at", "x@30", 0},
		{"crash", "1@-5", 1},
		{"crash", "9@25", 1},
		{"crash", "0@25", 1},
	} {
		if _, _, err := parseAt(tc.name, tc.val, tc.first, 8); err == nil {
			t.Errorf("-%s %s accepted on 8 nodes", tc.name, tc.val)
		} else if strings.Contains(err.Error(), "\n") {
			t.Errorf("-%s %s: multi-line message %q", tc.name, tc.val, err)
		}
	}
}
