// Package hdr provides the latency machinery shared by the perf and
// load harnesses: an HDR-style log-linear histogram for recording
// durations at fixed relative error without keeping every sample, and
// interpolated quantile helpers for the places that do keep samples.
//
// The histogram follows the high-dynamic-range design (Gil Tene's
// HdrHistogram): values are bucketed by power-of-two magnitude, each
// magnitude split into 2^subBits linear sub-buckets, giving a bounded
// relative error of 1/2^subBits (~3% here) across the whole range —
// from 1µs to over an hour — in a few KiB of counters. Recording is a
// single atomic increment, so one histogram can absorb samples from
// thousands of concurrent load-generator workers without locks.
//
// The sample-based helpers (Quantile, QuantileDurations) use linear
// interpolation between order statistics (Hyndman–Fan type 7, the
// default estimator of R and NumPy). Unlike the nearest-rank rule they
// replace, they do not degenerate on small samples: the p99 of 10
// observations is a blend of the two largest, not simply the maximum.
package hdr

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// subBits fixes the histogram's resolution: 2^subBits linear
// sub-buckets per power-of-two magnitude, i.e. a worst-case relative
// error of 1/2^subBits ≈ 3.1%.
const subBits = 5

// unit is the histogram's base resolution. Durations are recorded in
// microseconds: sub-microsecond latency differences are below the noise
// floor of any HTTP or syscall path this repo measures.
const unit = time.Microsecond

// maxMagnitude bounds the recordable range: values at or above
// 2^maxMagnitude microseconds (~1.2 hours) clamp into the top bucket.
const maxMagnitude = 32

// numBuckets is the total counter count: the bottom two magnitudes form
// a linear run of 2^(subBits+1) unit-width buckets, then each further
// magnitude up to maxMagnitude contributes 2^subBits sub-buckets.
const numBuckets = (maxMagnitude-subBits-1)<<subBits + 1<<(subBits+1)

// Histogram is a lock-free HDR-style latency histogram. The zero value
// is NOT ready to use; call New. All methods are safe for concurrent
// use; Snapshot-style reads (Quantile, Count, ...) may be torn with
// respect to concurrent writers, which Prometheus-scrape semantics (and
// end-of-run reporting) tolerate.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // microseconds
	max    atomic.Int64 // microseconds
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// bucketIndex maps a non-negative microsecond value to its bucket.
func bucketIndex(v int64) int {
	if v < 1<<(subBits+1) {
		return int(v) // unit-width buckets cover the bottom two magnitudes
	}
	// k halvings bring v into [2^subBits, 2^(subBits+1)); the sub-bucket
	// is the shifted value itself, making the index arithmetic seamless
	// with the linear run above.
	k := bits.Len64(uint64(v)) - subBits - 1
	if k > maxMagnitude-subBits-1 {
		k = maxMagnitude - subBits - 1 // clamp into the top magnitude
	}
	idx := k<<subBits + int(uint64(v)>>uint(k))
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketBounds returns the inclusive lower bound and width (both in
// microseconds) of bucket idx.
func bucketBounds(idx int) (lo, width int64) {
	if idx < 1<<(subBits+1) {
		return int64(idx), 1
	}
	k := idx>>subBits - 1
	sub := int64(idx&(1<<subBits-1) | 1<<subBits)
	return sub << uint(k), 1 << uint(k)
}

// Record adds one duration sample. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d / unit)
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Merge adds every sample recorded in o into h.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	om := o.max.Load()
	for {
		old := h.max.Load()
		if om <= old || h.max.CompareAndSwap(old, om) {
			break
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Max returns the largest recorded sample (bucket-exact: the true
// maximum, not a bucket bound).
func (h *Histogram) Max() time.Duration {
	return time.Duration(h.max.Load()) * unit
}

// Mean returns the mean of the recorded samples.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(float64(h.sum.Load())/float64(n)) * unit
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of the recorded samples,
// interpolating linearly inside the bucket the target rank lands in.
// The result is exact to the histogram's relative error (~3%). Returns
// 0 on an empty histogram.
func (h *Histogram) Quantile(p float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// Target the type-7 rank p·(n−1) over the sorted samples, then walk
	// the buckets to the one holding it.
	target := p * float64(n-1)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c > target {
			lo, width := bucketBounds(i)
			// Interpolate by the rank's position within this bucket,
			// treating its samples as evenly spread across the width.
			frac := (target - cum + 0.5) / c
			v := float64(lo) + frac*float64(width)
			max := float64(h.max.Load())
			if v > max {
				v = max // never report beyond the observed maximum
			}
			return time.Duration(v * float64(unit))
		}
		cum += c
	}
	return h.Max()
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of sorted xs by linear
// interpolation between order statistics (Hyndman–Fan type 7, the
// default of R and NumPy): the rank is h = p·(n−1) and the result
// blends xs[⌊h⌋] and xs[⌊h⌋+1]. Unlike nearest-rank it is continuous in
// p and does not collapse high quantiles onto the maximum for small n.
// xs must be sorted ascending; returns 0 when empty.
func Quantile(sorted []float64, p float64) float64 { return quantile(sorted, p) }

// QuantileOf sorts a copy of xs and returns its p-quantile.
func QuantileOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Quantile(s, p)
}

// QuantileDurations returns the p-quantile of sorted durations by the
// same type-7 interpolation as Quantile.
func QuantileDurations(sorted []time.Duration, p float64) time.Duration {
	return quantile(sorted, p)
}

// quantile is the type-7 body of Quantile and QuantileDurations.
func quantile[T ~float64 | ~int64](sorted []T, p float64) T {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n == 1:
		return sorted[0]
	case p <= 0:
		return sorted[0]
	case p >= 1:
		return sorted[n-1]
	}
	h := p * float64(n-1)
	i := int(math.Floor(h))
	frac := h - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	a, b := sorted[i], sorted[i+1]
	return a + T(frac*float64(b-a))
}
