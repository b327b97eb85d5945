package sweep

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
)

// Group is one (experiment, scale) cell of the grid with its per-metric
// distributions across seeds.
type Group struct {
	Experiment string
	Scale      float64
	Runs       int
	Seeds      []int64
	dists      map[string]*metrics.Dist
	order      []string // metric names in first-seen (grid) order
}

// Dist returns the named metric's distribution (nil if absent).
func (g *Group) Dist(name string) *metrics.Dist { return g.dists[name] }

// add folds one run's values into the group. Iterating the value map in
// sorted-key order keeps the first-seen metric order deterministic.
func (g *Group) add(r Result) {
	g.Runs++
	g.Seeds = append(g.Seeds, r.Point.Seed)
	names := make([]string, 0, len(r.Values))
	for name := range r.Values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := g.dists[name]
		if d == nil {
			d = &metrics.Dist{}
			g.dists[name] = d
			g.order = append(g.order, name)
		}
		d.Add(r.Values[name])
	}
}

// Table renders the group's statistics: one row per metric with sample
// count, mean, p50, p95, min, max and the 95% CI half-width. Because
// every statistic is a pure function of the sample multiset, this table
// is identical no matter what order the runs completed in.
func (g *Group) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Sweep: %s scale=%g (%d runs)", g.Experiment, g.Scale, g.Runs),
		"metric", "n", "mean", "p50", "p95", "min", "max", "ci95")
	for _, name := range g.order {
		st := g.dists[name].Stats()
		t.AddRow(name, st.N, st.Mean, st.P50, st.P95, st.Min, st.Max, st.CI95)
	}
	seeds := append([]int64(nil), g.Seeds...)
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	t.AddNote("seeds %s; ci95 is the half-width of the 95%% t-interval on the mean", seedRange(seeds))
	return t
}

// Aggregate folds results into per-(experiment, scale) groups, in grid
// order. Results with errors or nil tables are skipped.
func Aggregate(results []Result) []*Group {
	var groups []*Group
	byKey := map[string]*Group{}
	for _, r := range results {
		if r.Err != nil || r.Table == nil {
			continue
		}
		key := fmt.Sprintf("%s\x00%g", r.Point.Experiment, r.Point.Scale)
		g := byKey[key]
		if g == nil {
			g = &Group{
				Experiment: r.Point.Experiment,
				Scale:      r.Point.Scale,
				dists:      map[string]*metrics.Dist{},
			}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.add(r)
	}
	return groups
}

// seedRange renders a seed list compactly ("7..14" when consecutive).
func seedRange(seeds []int64) string {
	if len(seeds) == 0 {
		return "none"
	}
	consecutive := true
	for i := 1; i < len(seeds); i++ {
		if seeds[i] != seeds[i-1]+1 {
			consecutive = false
			break
		}
	}
	if consecutive && len(seeds) > 1 {
		return fmt.Sprintf("%d..%d", seeds[0], seeds[len(seeds)-1])
	}
	s := fmt.Sprint(seeds[0])
	for _, v := range seeds[1:] {
		s += fmt.Sprintf(",%d", v)
	}
	return s
}
