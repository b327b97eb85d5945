package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/topo"
)

// SweepSpec describes a multi-run grid over the registered experiment
// runners: the cross product of experiment ids, workload scales and
// seeds, executed across Parallel workers (GOMAXPROCS when <= 0).
type SweepSpec struct {
	Experiments []string
	Scales      []float64
	Seeds       []int64
	Parallel    int
	// Topo applies a fabric topology to every grid point (nil = the
	// flat default). Specs are pure shape descriptions, safe to share
	// across the worker pool — each point compiles its own link graph.
	Topo *topo.Spec
}

// SweepResult bundles the per-run results (in grid order) with the
// per-(experiment, scale) statistics aggregated across seeds.
type SweepResult struct {
	Spec   sweep.Spec
	Runs   []sweep.Result
	Groups []*sweep.Group
}

// Tables renders one aggregated statistics table per (experiment, scale)
// group, in grid order.
func (r *SweepResult) Tables() []*metrics.Table {
	out := make([]*metrics.Table, len(r.Groups))
	for i, g := range r.Groups {
		out[i] = g.Table()
	}
	return out
}

// RunSweep fans the grid out over the sweep engine. Every grid point
// runs the experiment in a fresh sim.Env with its own Options — tracing
// and traffic accounting stay off because their sessions are shared
// mutable state (trace a single run with cmd/fragbench -trace). The
// per-run outputs and the aggregation are independent of worker count
// and completion order; the determinism-under-concurrency suite in
// internal/sweep asserts byte-identity against sequential runs.
func RunSweep(s SweepSpec) (*SweepResult, error) {
	if len(s.Experiments) == 0 {
		return nil, fmt.Errorf("experiments: sweep needs at least one experiment")
	}
	if len(s.Scales) == 0 {
		s.Scales = []float64{DefaultOptions().Scale}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{DefaultOptions().Seed}
	}
	for _, name := range s.Experiments {
		if _, ok := registry[name]; !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
		}
	}
	for _, sc := range s.Scales {
		if err := checkScale(sc); err != nil {
			return nil, err
		}
	}
	spec := sweep.Spec{Experiments: s.Experiments, Scales: s.Scales, Seeds: s.Seeds}
	runs, err := sweep.Run(spec, s.Parallel, func(p sweep.Point) (*metrics.Table, error) {
		return Run(p.Experiment, Options{Scale: p.Scale, Seed: p.Seed, Topo: s.Topo})
	})
	if err != nil {
		return nil, err
	}
	return &SweepResult{Spec: spec, Runs: runs, Groups: sweep.Aggregate(runs)}, nil
}
