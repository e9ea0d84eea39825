package hdr

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip pins the bucket geometry: every bucket's bounds
// contain exactly the values that index into it, across the whole
// range, clamping included.
func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<32 - 1} {
		idx := bucketIndex(v)
		lo, width := bucketBounds(idx)
		if v < lo || v >= lo+width {
			t.Errorf("value %d: bucket %d bounds [%d,%d) do not contain it", v, idx, lo, lo+width)
		}
		if float64(width)/float64(lo+1) > 1.0/float64(int(1)<<subBits)+1e-9 && lo >= 1<<(subBits+1) {
			t.Errorf("bucket %d: width %d exceeds the relative-error bound at lo=%d", idx, width, lo)
		}
	}
	// The clamp: anything at or beyond 2^maxMagnitude µs lands in the
	// last bucket instead of indexing out of range.
	if idx := bucketIndex(math.MaxInt64); idx != numBuckets-1 {
		t.Errorf("MaxInt64 indexes bucket %d, want %d", idx, numBuckets-1)
	}
}

// TestHistogramQuantileAccuracy records a known distribution and checks
// the reported quantiles land within the histogram's relative error.
func TestHistogramQuantileAccuracy(t *testing.T) {
	h := New()
	rng := rand.New(rand.NewSource(7))
	var samples []float64
	for i := 0; i < 50000; i++ {
		// Log-uniform over ~3 decades: 100µs to 100ms.
		v := 100e-6 * math.Pow(1000, rng.Float64())
		d := time.Duration(v * float64(time.Second))
		samples = append(samples, d.Seconds())
		h.Record(d)
	}
	sort.Float64s(samples)
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(p).Seconds()
		want := Quantile(samples, p)
		if rel := math.Abs(got-want) / want; rel > 0.05 {
			t.Errorf("p%g: histogram %.6f vs exact %.6f (rel err %.3f)", p*100, got, want, rel)
		}
	}
	if h.Count() != 50000 {
		t.Errorf("count = %d, want 50000", h.Count())
	}
	if h.Max() < h.Quantile(0.999) {
		t.Errorf("max %v below p999 %v", h.Max(), h.Quantile(0.999))
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// (run with -race) and checks nothing is lost.
func TestHistogramConcurrent(t *testing.T) {
	h := New()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(w*per+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.Max() != (workers*per-1)*time.Microsecond {
		t.Fatalf("max = %v, want %v", h.Max(), (workers*per-1)*time.Microsecond)
	}
}

// TestHistogramMerge checks merging equals recording into one.
func TestHistogramMerge(t *testing.T) {
	a, b, all := New(), New(), New()
	for i := 1; i <= 100; i++ {
		d := time.Duration(i) * time.Millisecond
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
		all.Record(d)
	}
	a.Merge(b)
	if a.Count() != all.Count() || a.Max() != all.Max() {
		t.Fatalf("merge: count/max %d/%v, want %d/%v", a.Count(), a.Max(), all.Count(), all.Max())
	}
	for _, p := range []float64{0.5, 0.99} {
		if a.Quantile(p) != all.Quantile(p) {
			t.Errorf("merge: p%g %v, want %v", p*100, a.Quantile(p), all.Quantile(p))
		}
	}
}

// TestQuantileSmallSamples is the regression test for the nearest-rank
// degeneration this package replaces: on tiny samples, high quantiles
// must interpolate between order statistics, not collapse onto the max.
// Every case goes through QuantileOf, so unsorted inputs are covered too.
func TestQuantileSmallSamples(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 0, 1},
		{ten, 0.25, 3.25},
		{ten, 0.5, 5.5},
		{ten, 0.75, 7.75},
		{ten, 0.9, 9.1},
		{ten, 0.99, 9.91}, // nearest-rank reported 10 — the max — for every p > 0.9
		{ten, 0.999, 9.991},
		{ten, 1, 10},
		// Degenerate sizes.
		{nil, 0.5, 0},
		{[]float64{42}, 0.99, 42},
		{[]float64{1, 3}, 0.5, 2},
		{[]float64{1, 2}, 0.99, 1.99}, // a blend, not simply the larger one
		// Unsorted input: the extremes and the median of the sorted copy.
		{[]float64{4, 2, 8, 6}, 0, 2},
		{[]float64{4, 2, 8, 6}, 0.5, 5},
		{[]float64{4, 2, 8, 6}, 1, 8},
	}
	for _, c := range cases {
		if got := QuantileOf(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("QuantileOf(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	// Monotone in p.
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.01 {
		q := Quantile(ten, p)
		if q < prev {
			t.Fatalf("not monotone at p=%g: %g < %g", p, q, prev)
		}
		prev = q
	}
}

// TestQuantileOfBounded (property): on random unsorted samples the
// quantile is monotone in p and stays within [min, max].
func TestQuantileOfBounded(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		xs := make([]float64, r.Intn(20)+1)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			v := QuantileOf(xs, p)
			if v < prev-1e-9 || v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("QuantileOf(%v, %g) = %g: outside [%g, %g] or below p-0.1's %g", xs, p, v, lo, hi, prev)
			}
			prev = v
		}
	}
}

// TestQuantileDurations mirrors the float behavior on durations.
func TestQuantileDurations(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 10; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	if got, want := QuantileDurations(ds, 0.99), 9910*time.Microsecond; got != want {
		t.Errorf("p99 = %v, want %v", got, want)
	}
	if got := QuantileDurations(nil, 0.5); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
	if got, want := QuantileDurations(ds[:1], 0.999), time.Millisecond; got != want {
		t.Errorf("singleton: %v, want %v", got, want)
	}
}

// TestQuantileOf checks the sorting wrapper leaves its input alone.
func TestQuantileOf(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := QuantileOf(xs, 0.5); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}
