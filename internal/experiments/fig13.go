package experiments

import (
	"repro/internal/metrics"
	"repro/internal/workload"
)

func init() { register("fig13", Fig13) }

// Fig13 reproduces the OpenLambda serverless experiment (Figure 13):
// per-phase (download / extract / detect) and total function times on
// FragVisor and GiantVM, normalized to overcommitting the same vCPU count
// on one pCPU (speedup; higher is better). Expected shape: face detection
// dominates and scales with real cores (up to ~3.3x at 4 vCPUs);
// extraction slows with vCPU count (write-exclusive invalidations on
// fresh regions); FragVisor beats GiantVM in every phase, most of all the
// download, thanks to multiqueue + DSM-bypass.
func Fig13(o Options) *metrics.Table {
	t := metrics.NewTable("Figure 13: OpenLambda phase speedups vs overcommit (1 pCPU)",
		"vcpus", "system", "download", "extract", "detect", "total")
	for _, n := range []int{2, 3, 4} {
		oc := workload.RunOpenLambda(newOvercommitVM(o, n, 1), o.Scale)
		frag := workload.RunOpenLambda(newFragVM(o, n), o.Scale)
		giant := workload.RunOpenLambda(newGiantVM(o, n), o.Scale)
		t.AddRow(n, "fragvisor",
			metrics.Ratio(oc.Download, frag.Download),
			metrics.Ratio(oc.Extract, frag.Extract),
			metrics.Ratio(oc.Detect, frag.Detect),
			metrics.Ratio(oc.Total, frag.Total))
		t.AddRow(n, "giantvm",
			metrics.Ratio(oc.Download, giant.Download),
			metrics.Ratio(oc.Extract, giant.Extract),
			metrics.Ratio(oc.Detect, giant.Detect),
			metrics.Ratio(oc.Total, giant.Total))
	}
	t.AddNote("paper: FragVisor total 1.9-3.26x vs overcommit and 2.17-2.64x vs GiantVM; download gap vs GiantVM up to 13x")
	return t
}
