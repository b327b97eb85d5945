// Command fragsweep runs a grid of experiment instances — the cross
// product of experiments × scales × seeds — across a worker pool and
// reports per-metric statistics (mean, p50, p95, min/max, 95% CI)
// aggregated over the seeds of each (experiment, scale) cell.
//
// Usage:
//
//	fragsweep                                    # three-way reclaim-policy grid, 8 seeds
//	fragsweep -experiments fleetchurn -seeds 16  # failure-path soak in distribution
//	fragsweep -experiments fig4 -scales 0.01,0.02 -seeds 4
//	fragsweep -seeds 8 -parallel 1               # sequential (byte-identical output)
//	fragsweep -json                              # machine-readable stats tables
//	fragsweep -runs                              # also print every per-run table
//
// The output is a pure function of the grid: -parallel changes wall
// time, never bytes. When the grid covers two or more reclaim-policy
// soaks — fleetsoak (consolidating reclaims), fleetsoak-evict (the
// eviction baseline), fleetsoak-resize (the ballooning "reduce"
// baseline) — a policy-comparison table is appended contrasting the
// distributions metric by metric. Run "fragsweep -list" for ids.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/topo"
)

func main() {
	exps := flag.String("experiments", "fleetsoak,fleetsoak-evict,fleetsoak-resize", "comma-separated experiment ids")
	scales := flag.String("scales", "0.05", "comma-separated workload scales")
	nSeeds := flag.Int("seeds", 8, "number of consecutive seeds")
	seedBase := flag.Int64("seed", 1, "first seed")
	seedList := flag.String("seed-list", "", "explicit comma-separated seeds (overrides -seeds/-seed)")
	parallel := flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
	topoFlag := flag.String("topo", "", "fabric topology for every grid point: flat (the default) or tree:RxN@O")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array instead of text tables")
	runsOut := flag.Bool("runs", false, "also emit every per-run table")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}

	spec := experiments.SweepSpec{
		Experiments: splitNonEmpty(*exps),
		Scales:      parseFloats(*scales),
		Parallel:    *parallel,
	}
	if ts, err := topo.ParseSpec(*topoFlag); err != nil {
		fmt.Fprintln(os.Stderr, "fragsweep:", err)
		os.Exit(2)
	} else {
		spec.Topo = ts
	}
	if *seedList != "" {
		spec.Seeds = parseInts(*seedList)
	} else if err := checkSeeds(*nSeeds); err != nil {
		fmt.Fprintln(os.Stderr, "fragsweep:", err)
		os.Exit(1)
	} else {
		spec.Seeds = sweep.Seeds(*seedBase, *nSeeds)
	}

	res, err := experiments.RunSweep(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fragsweep:", err)
		if errors.Is(err, experiments.ErrScale) {
			os.Exit(2)
		}
		os.Exit(1)
	}

	type entry struct {
		Kind       string         `json:"kind"` // run|stats|comparison
		Experiment string         `json:"experiment"`
		Scale      float64        `json:"scale"`
		Seed       *int64         `json:"seed,omitempty"`
		Table      *metrics.Table `json:"table"`
	}
	var entries []entry
	if *runsOut {
		for _, r := range res.Runs {
			seed := r.Point.Seed
			entries = append(entries, entry{"run", r.Point.Experiment, r.Point.Scale, &seed, r.Table})
		}
	}
	for i, g := range res.Groups {
		entries = append(entries, entry{"stats", g.Experiment, g.Scale, nil, res.Tables()[i]})
	}
	if cmp := policyComparison(res); cmp != nil {
		entries = append(entries, entry{"comparison", "reclaim-policies", 0, nil, cmp})
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(entries); err != nil {
			fmt.Fprintln(os.Stderr, "fragsweep:", err)
			os.Exit(1)
		}
		return
	}
	for _, e := range entries {
		e.Table.Fprint(os.Stdout)
		fmt.Println()
	}
}

// policySoaks maps fleet-soak experiment ids to reclaim-policy labels,
// in the comparison table's row order. Adding a fourth policy means one
// more entry here, not a new table shape.
var policySoaks = []struct{ experiment, policy string }{
	{"fleetsoak", "consolidate"},
	{"fleetsoak-evict", "evict"},
	{"fleetsoak-resize", "resize"},
}

// policyComparisonMetrics are the per-policy columns of the comparison.
var policyComparisonMetrics = []string{
	"evictions", "reclaims", "inflations", "deflations",
	"migrations", "handbacks", "admitted", "wait_mean_s", "slowdown_mean",
}

// policyComparison contrasts every reclaim policy the grid covers, per
// scale: the paper's reclaim-vs-evict argument — extended with the
// ballooning "reduce" baseline — in distribution instead of as a single
// anecdote. One row per (scale, policy); returns nil unless at least two
// policies share a scale.
func policyComparison(res *experiments.SweepResult) *metrics.Table {
	byScale := map[float64]map[string]*sweep.Group{}
	var scales []float64
	label := map[string]string{}
	for _, ps := range policySoaks {
		label[ps.experiment] = ps.policy
	}
	for _, g := range res.Groups {
		pol, ok := label[g.Experiment]
		if !ok {
			continue
		}
		if byScale[g.Scale] == nil {
			byScale[g.Scale] = map[string]*sweep.Group{}
			scales = append(scales, g.Scale)
		}
		byScale[g.Scale][pol] = g
	}
	headers := append([]string{"scale", "policy"}, policyComparisonMetrics...)
	t := metrics.NewTable("Reclaim policies across seeds (mean per run)", headers...)
	rows := 0
	for _, sc := range scales {
		if len(byScale[sc]) < 2 {
			continue
		}
		for _, ps := range policySoaks {
			g := byScale[sc][ps.policy]
			if g == nil {
				continue
			}
			cells := []any{sc, ps.policy}
			for _, m := range policyComparisonMetrics {
				if d := g.Dist(m); d != nil {
					cells = append(cells, d.Stats().Mean)
				} else {
					cells = append(cells, "-")
				}
			}
			t.AddRow(cells...)
			rows++
		}
	}
	if rows == 0 {
		return nil
	}
	t.AddNote("the lender gets its capacity back every way; evict kills borrowers, resize slows them")
	return t
}

// checkSeeds rejects a -seeds count below 1: a negative one cannot size
// the seed list, and an empty list would run the default seed instead.
func checkSeeds(n int) error {
	if n < 1 {
		return fmt.Errorf("-seeds %d: want a count >= 1", n)
	}
	return nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, p := range splitNonEmpty(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fragsweep: bad scale %q: %v\n", p, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseInts(s string) []int64 {
	var out []int64
	for _, p := range splitNonEmpty(s) {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fragsweep: bad seed %q: %v\n", p, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
