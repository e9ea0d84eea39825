package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestStepHistogramSumIsExact pins the histogram _sum to the Duration
// resolution: two 1.5µs steps must export 3µs, not the 2µs a
// per-observation truncation to whole microseconds would report (that
// truncation made server-side step means read low on fast steps).
func TestStepHistogramSumIsExact(t *testing.T) {
	h := newHistogram()
	h.observe(1500 * time.Nanosecond)
	h.observe(1500 * time.Nanosecond)
	rec := httptest.NewRecorder()
	h.writeProm(rec, "asmserve_step_seconds", "op", "next")
	want := `asmserve_step_seconds_sum{op="next"} 3e-06` + "\n"
	if body := rec.Body.String(); !strings.Contains(body, want) {
		t.Errorf("exposition lacks %q:\n%s", want, body)
	}
}
