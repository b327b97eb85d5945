package main

import (
	"math"
	"testing"
)

// TestCheckFlags: the defaults and every workload form pass, and every
// value that used to panic the run or print a meaningless result is
// rejected before the VM is built.
func TestCheckFlags(t *testing.T) {
	for _, wl := range []string{"EP", "IS", "lemp:250ms", "serverless"} {
		if err := checkFlags(4, 16<<30, 0.1, wl); err != nil {
			t.Errorf("-workload %s rejected: %v", wl, err)
		}
	}
	for _, tc := range []struct {
		name  string
		vcpus int
		mem   int64
		scale float64
		wl    string
	}{
		{"-vcpus 0", 0, 16 << 30, 0.1, "EP"},
		{"-mem -5", 4, -5, 0.1, "EP"},
		{"-mem 0", 4, 0, 0.1, "EP"},
		{"-scale 0", 4, 16 << 30, 0, "EP"},
		{"-scale -1", 4, 16 << 30, -1, "EP"},
		{"-scale NaN", 4, 16 << 30, math.NaN(), "EP"},
		{"-scale Inf", 4, 16 << 30, math.Inf(1), "serverless"},
		{"-workload nope", 4, 16 << 30, 0.1, "nope"},
		{"-workload lemp:soon", 4, 16 << 30, 0.1, "lemp:soon"},
		{"-workload lemp:25ms -vcpus 1", 1, 16 << 30, 0.1, "lemp:25ms"},
	} {
		if err := checkFlags(tc.vcpus, tc.mem, tc.scale, tc.wl); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
