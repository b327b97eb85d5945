package metrics

import (
	"math"
	"sort"
)

// Dist is a distribution of float64 samples collected across sweep runs.
// It stores the sample multiset and derives every statistic from a sorted
// copy, which makes the derived values a pure function of the multiset:
// Add and Merge in any order — any permutation, any associativity of
// merges — yield bit-identical statistics. That property is what lets the
// parallel sweep engine aggregate results in completion order while still
// matching a sequential run byte for byte (and it is checked by
// testing/quick property tests).
//
// The zero value is an empty distribution ready for use.
type Dist struct {
	samples []float64
}

// Add appends one sample.
func (d *Dist) Add(v float64) { d.samples = append(d.samples, v) }

// Merge folds another distribution's samples into d. The operation is
// multiset union, so it is commutative and associative up to the derived
// statistics (the internal ordering may differ; the stats cannot).
func (d *Dist) Merge(o *Dist) {
	if o != nil {
		d.samples = append(d.samples, o.samples...)
	}
}

// N returns the sample count.
func (d *Dist) N() int { return len(d.samples) }

// DistStats holds every derived statistic of a Dist. Two Dists with equal
// sample multisets produce identical DistStats values.
type DistStats struct {
	N        int
	Mean     float64
	P50, P95 float64
	Min, Max float64
	Stddev   float64 // sample standard deviation (0 when n < 2)
	CI95     float64 // half-width of the 95% t-interval on the mean (0 when n < 2)
}

// Stats derives every statistic from the current samples. All arithmetic
// runs over the sorted sample array, so the result depends only on the
// sample multiset, never on insertion or merge order. Empty distributions
// return the zero DistStats; single samples and identical samples are
// well-defined (no NaN, no panic).
func (d *Dist) Stats() DistStats {
	n := len(d.samples)
	if n == 0 {
		return DistStats{}
	}
	sorted := append([]float64(nil), d.samples...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	mean := sum / float64(n)
	st := DistStats{
		N:    n,
		Mean: mean,
		P50:  quantile(sorted, 0.50),
		P95:  quantile(sorted, 0.95),
		Min:  sorted[0],
		Max:  sorted[n-1],
	}
	if n >= 2 {
		ss := 0.0
		for _, v := range sorted {
			dv := v - mean
			ss += dv * dv
		}
		st.Stddev = math.Sqrt(ss / float64(n-1))
		st.CI95 = tCrit95(n-1) * st.Stddev / math.Sqrt(float64(n))
	}
	return st
}

// quantile returns the p-quantile of sorted samples by the ceil rank:
// the smallest sample with at least a p share of the samples at or below
// it. Summarize and Dist.Stats both use it.
func quantile[T any](sorted []T, p float64) T {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tTable holds two-sided 95% critical values of Student's t for degrees
// of freedom 1..30 (index 0 = df 1).
var tTable = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCrit95 returns the two-sided 95% critical value of Student's t with df
// degrees of freedom, falling back to coarser rows and the normal limit
// for large df.
func tCrit95(df int) float64 {
	switch {
	case df < 1:
		return 0
	case df <= 30:
		return tTable[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}
