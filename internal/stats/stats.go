// Package stats provides the martingale concentration bounds used by the
// TRIM stopping rule (paper Appendix A, Lemma A.2) and small summary
// statistics shared by the experiment harness.
package stats

import "math"

// CoverageLower is the high-probability lower bound on the expected
// coverage E[Λ_R] given an observed coverage count and confidence
// parameter a = ln(1/failure-probability):
//
//	Λˡ = (√(count + 2a/9) − √(a/2))² − a/18
//
// (Lemma A.2, Eq. 18; TRIM Algorithm 2 Line 9.) The result is clamped to
// be non-negative: for tiny counts the algebraic form can dip below zero,
// where zero is the trivially valid bound.
func CoverageLower(count, a float64) float64 {
	v := math.Sqrt(count+2*a/9) - math.Sqrt(a/2)
	lb := v*v - a/18
	if lb < 0 {
		return 0
	}
	return lb
}

// CoverageUpper is the matching high-probability upper bound
//
//	Λᵘ = (√(count + a/2) + √(a/2))²
//
// (Lemma A.2, Eq. 19; TRIM Algorithm 2 Line 10.)
func CoverageUpper(count, a float64) float64 {
	v := math.Sqrt(count+a/2) + math.Sqrt(a/2)
	return v * v
}

// LogChoose returns ln C(n, k) computed in log-space via lgamma, used by
// TRIM-B's union bound over all size-b seed sets (Algorithm 3 Lines 2, 5).
func LogChoose(n, k int64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	ln, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln - lk - lnk
}

// RhoB returns ρ_b = 1 − (1 − 1/b)^b, the greedy max-coverage guarantee
// for batch size b (TRIM-B). ρ_1 = 1; ρ_b ↓ 1−1/e as b → ∞.
func RhoB(b int) float64 {
	if b <= 1 {
		return 1
	}
	return 1 - math.Pow(1-1/float64(b), float64(b))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the sample standard deviation of xs (0 for n < 2).
func Stddev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// MinMax returns the minimum and maximum of xs (0,0 for empty input).
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}
