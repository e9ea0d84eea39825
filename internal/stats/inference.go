package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"asti/internal/hdr"
	"asti/internal/rng"
)

// BootstrapCI estimates a two-sided percentile confidence interval for
// the mean of xs by nonparametric bootstrap. level is the coverage (e.g.
// 0.95); resamples controls the bootstrap replicate count.
func BootstrapCI(xs []float64, level float64, resamples int, r *rng.Source) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, errors.New("stats: bootstrap of empty sample")
	}
	if level <= 0 || level >= 1 {
		return 0, 0, fmt.Errorf("stats: confidence level %v outside (0,1)", level)
	}
	if resamples < 10 {
		return 0, 0, fmt.Errorf("stats: %d resamples too few (need ≥ 10)", resamples)
	}
	if r == nil {
		return 0, 0, errors.New("stats: nil rng")
	}
	means := make([]float64, resamples)
	n := len(xs)
	for b := range means {
		var s float64
		for i := 0; i < n; i++ {
			s += xs[r.Intn(n)]
		}
		means[b] = s / float64(n)
	}
	sort.Float64s(means)
	alpha := (1 - level) / 2
	return hdr.Quantile(means, alpha), hdr.Quantile(means, 1-alpha), nil
}

// PairedPermutationTest tests whether paired samples a and b (same worlds,
// two policies — the harness's evaluation design) have different means.
// It returns the two-sided p-value of the sign-flip permutation test on
// the paired differences: exact in distribution as permutations → ∞, and
// valid without normality assumptions. permutations controls the Monte-
// Carlo resolution (the returned p is never below 1/(permutations+1)).
func PairedPermutationTest(a, b []float64, permutations int, r *rng.Source) (p float64, meanDiff float64, err error) {
	if len(a) != len(b) {
		return 0, 0, fmt.Errorf("stats: paired samples of different lengths %d and %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, 0, errors.New("stats: empty paired samples")
	}
	if permutations < 10 {
		return 0, 0, fmt.Errorf("stats: %d permutations too few (need ≥ 10)", permutations)
	}
	if r == nil {
		return 0, 0, errors.New("stats: nil rng")
	}
	diffs := make([]float64, len(a))
	var obs float64
	for i := range a {
		diffs[i] = a[i] - b[i]
		obs += diffs[i]
	}
	obs /= float64(len(a))
	absObs := math.Abs(obs)
	extreme := 1 // add-one smoothing: the identity permutation
	for p := 0; p < permutations; p++ {
		var s float64
		for _, d := range diffs {
			if r.Bernoulli(0.5) {
				s += d
			} else {
				s -= d
			}
		}
		if math.Abs(s/float64(len(a))) >= absObs-1e-15 {
			extreme++
		}
	}
	return float64(extreme) / float64(permutations+1), obs, nil
}

// WilcoxonSignedRank computes the Wilcoxon signed-rank statistic W and
// its normal-approximation two-sided p-value for paired samples. Zero
// differences are dropped (Wilcoxon's convention); ties share midranks.
// The normal approximation is adequate for n ≥ ~10; below that prefer
// PairedPermutationTest.
func WilcoxonSignedRank(a, b []float64) (w float64, p float64, err error) {
	if len(a) != len(b) {
		return 0, 0, fmt.Errorf("stats: paired samples of different lengths %d and %d", len(a), len(b))
	}
	type d struct {
		abs  float64
		sign float64
	}
	var ds []d
	for i := range a {
		diff := a[i] - b[i]
		if diff == 0 {
			continue
		}
		s := 1.0
		if diff < 0 {
			s = -1
		}
		ds = append(ds, d{math.Abs(diff), s})
	}
	n := len(ds)
	if n == 0 {
		return 0, 1, nil // all pairs tie: no evidence of difference
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].abs < ds[j].abs })
	// Midranks for ties.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && ds[j].abs == ds[i].abs {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for t := i; t < j; t++ {
			ranks[t] = mid
		}
		i = j
	}
	for i, dd := range ds {
		if dd.sign > 0 {
			w += ranks[i]
		}
	}
	mean := float64(n*(n+1)) / 4
	sd := math.Sqrt(float64(n*(n+1)*(2*n+1)) / 24)
	if sd == 0 {
		return w, 1, nil
	}
	z := (w - mean) / sd
	p = 2 * (1 - normalCDF(math.Abs(z)))
	if p > 1 {
		p = 1
	}
	return w, p, nil
}

func normalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// Median returns the sample median.
func Median(xs []float64) float64 { return hdr.QuantileOf(xs, 0.5) }
