package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, b := range spec.EndToEnd {
		if b.Better != "higher" && b.Better != "lower" {
			return nil, fmt.Errorf("%s: metric %s: better must be higher or lower, not %q", path, b.Name, b.Better)
		}
	}
	return spec.EndToEnd, nil
}

// readRuns returns every run record in a file: the lines that are JSON
// objects naming a workload. Summaries and other lines are skipped.
func readRuns(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var r record
		if json.Unmarshal(line, &r) != nil || r.Workload == "" {
			continue
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}

// compareFiles prints a verdict for every workload and end-to-end metric
// of the runs in bPath against those in aPath.
func compareFiles(benchPath, aPath, bPath string, w io.Writer) error {
	bounds, err := loadBounds(benchPath)
	if err != nil {
		return err
	}
	a, err := readRuns(aPath)
	if err != nil {
		return err
	}
	b, err := readRuns(bPath)
	if err != nil {
		return err
	}
	h := a[0].Host
	for _, r := range append(append([]record(nil), a...), b...) {
		if r.Host != h {
			return fmt.Errorf("host fingerprints differ (%+v vs %+v): runs from different hosts are not comparable", h, r.Host)
		}
	}
	byWorkload := func(runs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range runs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	names := map[string]bool{}
	for n := range wa {
		names[n] = true
	}
	for n := range wb {
		names[n] = true
	}
	for _, name := range sortedKeys(names) {
		ra, rb := wa[name], wb[name]
		fmt.Fprintf(w, "%s: %d runs in A, %d in B; %s\n", name, len(ra), len(rb), compareDigests(ra, rb))
		for _, bd := range bounds {
			va, vb := values(ra, bd.Name), values(rb, bd.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(w, "  %-10s %-13s A %-12.6g B %-12.6g %+7.2f%%  spread %5.2f%% / %5.2f%%  bound %g%%\n",
				verdict(va, vb, bd.Better, bd.Bound), bd.Name, ma, mb, 100*(mb-ma)/ma,
				100*relIQR(va), 100*relIQR(vb), 100*bd.Bound)
		}
	}
	return nil
}

// compareDigests reports whether runs of the same seed agree on their
// digest, and whether any run was incorrect.
func compareDigests(a, b []record) string {
	digests := map[int64]string{}
	for _, r := range a {
		digests[r.Seed] = r.Digest
	}
	shared, differ := 0, 0
	for _, r := range b {
		if d, ok := digests[r.Seed]; ok {
			shared++
			if d != r.Digest {
				differ++
			}
		}
	}
	s := fmt.Sprintf("digests differ on %d of %d shared seeds", differ, shared)
	if differ == 0 {
		s = fmt.Sprintf("digests identical on %d shared seeds", shared)
	}
	bad := 0
	for _, r := range append(append([]record(nil), a...), b...) {
		if !r.Correct {
			bad++
		}
	}
	if bad > 0 {
		s += fmt.Sprintf("; %d incorrect runs", bad)
	}
	return s
}

// values collects one metric from the untraced runs, in file order.
func values(runs []record, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// minPairs is the fewest runs per side a gain may rest on.
const minPairs = 10

// verdict judges B's runs of one metric against A's. Worse: B's median
// is worse than A's by more than the bound. Unresolved: either side's
// interquartile range is wider than the bound, unless B qualifies as
// better. Better: each side has at least minPairs runs, the medians
// differ by more than A's interquartile range, and B wins at least nine
// tenths of the index-paired runs, or every run of B beats every run of
// A when the spread is wider than the bound. A gain that misses only the
// run count is unresolved.
func verdict(a, b []float64, better string, bound float64) string {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved"
	}
	worse := (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	clear := worse < 0 && math.Abs(mb-ma) > iqr(a)
	enough := min(len(a), len(b)) >= minPairs
	switch {
	case math.Max(relIQR(a), relIQR(b)) > bound:
		if clear && enough && allBetter(a, b, better) {
			return "better"
		}
		return "unresolved"
	case worse > bound:
		return "worse"
	case clear && pairWins(a, b, better) >= 0.9:
		if !enough {
			return "unresolved"
		}
		return "better"
	}
	return "unchanged"
}

func beats(x, y float64, better string) bool {
	if better == "higher" {
		return x > y
	}
	return x < y
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range b {
		for _, y := range a {
			if !beats(x, y, better) {
				return false
			}
		}
	}
	return true
}

// pairWins is the share of index-paired runs that B wins; ties count
// for neither side.
func pairWins(a, b []float64, better string) float64 {
	n := min(len(a), len(b))
	wins := 0
	for i := 0; i < n; i++ {
		if beats(b[i], a[i], better) {
			wins++
		}
	}
	return float64(wins) / float64(n)
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of v in four groups with the
// "exclusive" method of Python's statistics.quantiles.
func quartiles(v []float64) [3]float64 {
	s := sorted(v)
	n := len(s)
	var q [3]float64
	if n < 2 {
		for i := range q {
			q[i] = s[0]
		}
		return q
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// iqr is the distance between the first and third quartiles.
func iqr(v []float64) float64 {
	q := quartiles(v)
	return q[2] - q[0]
}

// relIQR is the interquartile range as a share of the median.
func relIQR(v []float64) float64 {
	return iqr(v) / math.Abs(median(v))
}
