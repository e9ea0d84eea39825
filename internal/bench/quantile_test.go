package bench

import (
	"math"
	"testing"
	"time"

	"asti/internal/hdr"
)

// TestPercentileInterpolates is the regression test for the harness's
// old nearest-rank quantiles: over a small sample (the matrix and
// recovery experiments report p99 over tens of observations) the p99
// and p999 of hdr.QuantileDurations must interpolate between the top
// order statistics instead of degenerating to the maximum outlier.
func TestPercentileInterpolates(t *testing.T) {
	// 50 evenly spaced samples plus one large outlier: nearest-rank p99
	// reported the outlier itself; interpolation must stay between the
	// 50th and 51st order statistics.
	var lats []time.Duration
	for i := 1; i <= 50; i++ {
		lats = append(lats, time.Duration(i)*time.Millisecond)
	}
	lats = append(lats, 10*time.Second)
	p99 := hdr.QuantileDurations(lats, 0.99)
	if p99 >= 10*time.Second {
		t.Fatalf("p99 = %v: still degenerates to the max outlier", p99)
	}
	if p99 < 50*time.Millisecond {
		t.Fatalf("p99 = %v: below the second-largest sample", p99)
	}
	if p50 := hdr.QuantileDurations(lats, 0.50); p50 != 26*time.Millisecond {
		t.Errorf("p50 = %v, want 26ms", p50)
	}
	// Ordering must hold for the tail quantiles the harness reports.
	p999 := hdr.QuantileDurations(lats, 0.999)
	if !(p99 <= p999 && p999 <= lats[len(lats)-1]) {
		t.Errorf("quantile ordering violated: p99 %v, p999 %v, max %v", p99, p999, lats[len(lats)-1])
	}
}

// TestPercentileFSmallSamples pins the float quantile on the degenerate
// sizes the recovery experiment feeds it (a handful of trials).
func TestPercentileFSmallSamples(t *testing.T) {
	if got := hdr.QuantileOf(nil, 0.99); got != 0 {
		t.Errorf("empty: %g, want 0", got)
	}
	if got := hdr.QuantileOf([]float64{3}, 0.99); got != 3 {
		t.Errorf("singleton: %g, want 3", got)
	}
	// Two samples: the p99 must be a blend, not simply the larger one.
	got := hdr.QuantileOf([]float64{1, 2}, 0.99)
	if want := 1.99; math.Abs(got-want) > 1e-9 {
		t.Errorf("pair p99 = %g, want %g", got, want)
	}
	// Unsorted input is sorted on a copy.
	xs := []float64{5, 1, 3}
	if got := hdr.QuantileOf(xs, 0.5); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if xs[0] != 5 {
		t.Errorf("input mutated: %v", xs)
	}
}
