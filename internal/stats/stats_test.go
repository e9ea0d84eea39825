package stats

import (
	"math"
	"testing"
	"testing/quick"

	"asti/internal/rng"
)

// TestBoundsSandwichEmpirical: for a binomial coverage count, the Lemma
// A.2 bounds must bracket the true mean with at least the nominal
// confidence. We check the failure rates empirically at a = ln(1/δ).
func TestBoundsSandwichEmpirical(t *testing.T) {
	r := rng.New(1)
	const (
		trials = 4000
		T      = 2000 // samples per trial
		p      = 0.05 // true per-sample coverage probability
	)
	a := math.Log(100.0) // δ = 1%
	mean := p * T
	lowFail, highFail := 0, 0
	for i := 0; i < trials; i++ {
		count := 0
		for j := 0; j < T; j++ {
			if r.Bernoulli(p) {
				count++
			}
		}
		if CoverageLower(float64(count), a) > mean {
			lowFail++
		}
		if CoverageUpper(float64(count), a) < mean {
			highFail++
		}
	}
	// Allow 3x the nominal δ to keep the test stable.
	if maxFail := int(3 * 0.01 * trials); lowFail > maxFail || highFail > maxFail {
		t.Fatalf("bound failures: lower %d, upper %d of %d (max %d)",
			lowFail, highFail, trials, maxFail)
	}
}

// TestBoundsOrdering (property): 0 ≤ Λˡ ≤ count ≤ Λᵘ for any count, a ≥ 0.
func TestBoundsOrdering(t *testing.T) {
	if err := quick.Check(func(rawCount, rawA uint16) bool {
		count := float64(rawCount)
		a := float64(rawA%1000) + 0.1
		lo := CoverageLower(count, a)
		hi := CoverageUpper(count, a)
		return lo >= 0 && lo <= count+1e-9 && hi >= count-1e-9
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundsTightenWithCount: the relative gap shrinks as counts grow.
func TestBoundsTightenWithCount(t *testing.T) {
	a := 10.0
	prevGap := math.Inf(1)
	for _, count := range []float64{10, 100, 1000, 10000} {
		gap := (CoverageUpper(count, a) - CoverageLower(count, a)) / count
		if gap >= prevGap {
			t.Fatalf("relative gap did not shrink at count %v: %v >= %v", count, gap, prevGap)
		}
		prevGap = gap
	}
}

func TestCoverageLowerClamped(t *testing.T) {
	if lb := CoverageLower(0, 50); lb != 0 {
		t.Fatalf("lower bound of zero count = %v, want 0", lb)
	}
	if lb := CoverageLower(1, 1000); lb != 0 {
		t.Fatalf("tiny count with huge a = %v, want clamp to 0", lb)
	}
}

func TestLogChoose(t *testing.T) {
	cases := []struct {
		n, k int64
		want float64
	}{
		{5, 0, 0},
		{5, 5, 0},
		{5, 1, math.Log(5)},
		{5, 2, math.Log(10)},
		{52, 5, math.Log(2598960)},
	}
	for _, c := range cases {
		if got := LogChoose(c.n, c.k); math.Abs(got-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
			t.Errorf("LogChoose(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	if !math.IsInf(LogChoose(3, 5), -1) || !math.IsInf(LogChoose(3, -1), -1) {
		t.Error("out-of-range k must yield -Inf")
	}
}

// TestLogChooseSymmetry (property): C(n,k) = C(n,n-k).
func TestLogChooseSymmetry(t *testing.T) {
	if err := quick.Check(func(rawN, rawK uint8) bool {
		n := int64(rawN%60) + 1
		k := int64(rawK) % (n + 1)
		return math.Abs(LogChoose(n, k)-LogChoose(n, n-k)) < 1e-9
	}, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRhoB(t *testing.T) {
	if RhoB(1) != 1 {
		t.Fatalf("ρ_1 = %v", RhoB(1))
	}
	if got := RhoB(2); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("ρ_2 = %v, want 0.75", got)
	}
	// Monotone decreasing toward 1 - 1/e.
	limit := 1 - 1/math.E
	prev := RhoB(1)
	for b := 2; b <= 64; b *= 2 {
		cur := RhoB(b)
		if cur >= prev || cur <= limit {
			t.Fatalf("ρ_%d = %v not in (1-1/e, ρ_%d)", b, cur, b/2)
		}
		prev = cur
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{4, 2, 8, 6}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v", m)
	}
	if s := Stddev(xs); math.Abs(s-math.Sqrt(20.0/3)) > 1e-12 {
		t.Fatalf("stddev %v", s)
	}
	if q := Median(xs); q != 5 {
		t.Fatalf("median %v", q)
	}
	min, max := MinMax(xs)
	if min != 2 || max != 8 {
		t.Fatalf("minmax %v %v", min, max)
	}
	// Empty-input conventions.
	if Mean(nil) != 0 || Stddev(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty-input conventions broken")
	}
	if Stddev([]float64{3}) != 0 {
		t.Fatal("single-element stddev must be 0")
	}
	min, max = MinMax(nil)
	if min != 0 || max != 0 {
		t.Fatal("empty MinMax")
	}
}
