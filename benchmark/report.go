package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"asti/internal/hdr"
)

// metricDef declares one metric: its name, unit and, for end-to-end
// metrics, which direction is better and the regression bound (the share
// of the baseline median by which it may worsen). BENCHMARK.json at the
// repository root mirrors endToEnd and perLayer; catalog_test.go keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the client-visible metrics every workload reports in its
// final JSON line (--trace 0).
var endToEnd = []metricDef{
	{"campaigns_per_s", "1/s", "higher", 0.25},
	{"next_p50_ms", "ms", "lower", 0.25},
	{"next_p90_ms", "ms", "lower", 0.25},
	{"observe_p90_ms", "ms", "lower", 0.25},
	{"create_p50_ms", "ms", "lower", 0.25},
	{"delete_p50_ms", "ms", "lower", 0.25},
	{"seeds_per_campaign", "seeds", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// reportOnly are end-to-end metrics printed by name with their unit but
// left out of the JSON line, which may carry only metrics that every
// workload measures, never as 0, steadily enough to gate: reactivation
// exists only on durable-churn; the failure share is 0 on every correct
// run (the JSON line carries attempted and failed instead); observe p50
// on sample-ic (a 20µs call) and the resident set on durable-churn moved
// by a third or more between sets of runs of the same code (README.md,
// "Noise").
var reportOnly = []metricDef{
	{Name: "observe_p50_ms", Unit: "ms"},
	{Name: "peak_rss_mb", Unit: "MB"},
	{Name: "reactivate_p50_ms", Unit: "ms"},
	{Name: "reactivate_p90_ms", Unit: "ms"},
	{Name: "ops_attempted", Unit: "ops"},
	{Name: "ops_failed_frac", Unit: "ratio"},
}

// perLayer are the traced run's metrics (--trace 1), each measured on the
// workload that exercises its layer (see README.md).
var perLayer = []metricDef{
	{Name: "asmserve.server_next_ms", Unit: "ms", Better: "lower"},
	{Name: "asmserve.server_observe_ms", Unit: "ms", Better: "lower"},
	{Name: "asmserve.wire_next_ms", Unit: "ms", Better: "lower"},
	{Name: "asmserve.wire_observe_ms", Unit: "ms", Better: "lower"},
	{Name: "asmserve.retries", Unit: "count", Better: "lower"},
	{Name: "asmserve.unexpected", Unit: "count", Better: "lower"},
	{Name: "asmserve.pool_bytes_peak", Unit: "bytes", Better: "lower"},

	{Name: "serve.create_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.lookup_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.passivate_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.close_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.propose_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.propose_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.propose_busy_s", Unit: "s", Better: "lower"},
	{Name: "serve.propose_self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.observe_plain_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.observe_ckpt_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.replay_rounds", Unit: "rounds", Better: "lower"},
	{Name: "serve.restore_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.proposals", Unit: "count", Better: "higher"},
	{Name: "serve.observations", Unit: "count", Better: "higher"},
	{Name: "serve.reactivations", Unit: "count", Better: "higher"},
	{Name: "serve.checkpoints", Unit: "count", Better: "higher"},
	{Name: "serve.checkpoint_failures", Unit: "count", Better: "lower"},
	{Name: "serve.compactions", Unit: "count", Better: "higher"},

	{Name: "journal.log_bytes_p50", Unit: "bytes", Better: "lower"},
	{Name: "journal.compacted_bytes", Unit: "bytes", Better: "higher"},
	{Name: "journal.append_retries", Unit: "count", Better: "lower"},
	{Name: "journal.append_failures", Unit: "count", Better: "lower"},
	{Name: "journal.commits", Unit: "count", Better: "higher"},
	{Name: "journal.append_fsync_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.load_ms", Unit: "ms", Better: "lower"},

	{Name: "trim.select_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trim.select_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "trim.select_busy_s", Unit: "s", Better: "lower"},
	{Name: "trim.rounds", Unit: "count", Better: "higher"},
	{Name: "trim.sets", Unit: "sets", Better: "lower"},
	{Name: "trim.sets_reused", Unit: "sets", Better: "higher"},
	{Name: "trim.sets_refreshed", Unit: "sets", Better: "lower"},
	{Name: "trim.full_regens", Unit: "count", Better: "lower"},
	{Name: "trim.doublings", Unit: "count", Better: "lower"},
	{Name: "trim.hit_cap", Unit: "count", Better: "lower"},
	{Name: "trim.peak_pool_sets", Unit: "sets", Better: "lower"},
	{Name: "trim.reuse_ratio", Unit: "ratio", Better: "higher"},

	{Name: "rrset.set_nodes", Unit: "count", Better: "lower"},
	{Name: "rrset.edges_examined", Unit: "count", Better: "lower"},
	{Name: "rrset.rng_draws", Unit: "count", Better: "lower"},
	{Name: "rrset.draws_per_edge", Unit: "ratio", Better: "lower"},
	{Name: "rrset.nodes_per_set", Unit: "nodes", Better: "lower"},
	{Name: "rrset.generate_us_per_set", Unit: "us", Better: "lower"},
	{Name: "rrset.generate_speedup", Unit: "ratio", Better: "higher"},
	{Name: "rrset.greedy_ms", Unit: "ms", Better: "lower"},
	{Name: "rrset.pool_mb", Unit: "MB", Better: "lower"},

	{Name: "trace.campaigns_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number; N is the sample count behind it
// (0 when the value is a count or a single measurement).
type metricValue struct {
	Value float64
	N     int
}

// metrics collects a run's reported values by name.
type metrics map[string]metricValue

func (m metrics) set(name string, v float64)          { m[name] = metricValue{Value: v} }
func (m metrics) setN(name string, v float64, n int)  { m[name] = metricValue{Value: v, N: n} }
func (m metrics) count(name string, v uint64)         { m[name] = metricValue{Value: float64(v)} }
func (m metrics) ratio(name string, num, den float64) { m.set(name, safeDiv(num, den)) }

// samples collects durations for exact quantiles through
// hdr.QuantileDurations: the in-process calls last microseconds, the
// width of an hdr.Histogram bucket, so the samples are kept whole.
type samples struct {
	mu sync.Mutex
	xs []time.Duration
}

func (s *samples) Record(d time.Duration) {
	s.mu.Lock()
	s.xs = append(s.xs, d)
	s.mu.Unlock()
}

func (s *samples) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

// Quantile returns the type-7 p-quantile of the samples.
func (s *samples) Quantile(p float64) time.Duration {
	s.mu.Lock()
	xs := append([]time.Duration(nil), s.xs...)
	s.mu.Unlock()
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return hdr.QuantileDurations(xs, p)
}

// quantileMs reports the q-quantile of h in milliseconds with its sample
// count.
func (m metrics) quantileMs(name string, q float64, h *samples) {
	m.setN(name, ms(h.Quantile(q)), h.Count())
}

func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// envelope records where and how a result was produced.
type envelope struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Date       string `json:"date"`
}

func newEnvelope(workload string, seed uint64, seconds int, trace bool) envelope {
	return envelope{
		Commit:     buildCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

// buildCommit is the VCS revision the go tool stamped into the binary
// ("+dirty" when the tree had uncommitted changes), or "unknown" when it
// was built outside a repository.
func buildCommit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// outcome is what one invocation prints.
type outcome struct {
	env       envelope
	metrics   metrics
	notes     []string // extra report lines (digests, census)
	attempted uint64
	failed    uint64
	problems  []string // correctness failures
}

// fail records a failed check; it counts as one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// absorb folds a sub-run's checks, notes and counts into o.
func (o *outcome) absorb(sub *outcome) {
	o.problems = append(o.problems, sub.problems...)
	o.notes = append(o.notes, sub.notes...)
	o.attempted += sub.attempted
	o.failed += sub.failed
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool { return len(o.problems) == 0 && o.failed == 0 }

// print writes the human-readable report and, as the last line, the JSON
// result carrying exactly the declared metrics (end-to-end or per-layer).
func (o *outcome) print(w io.Writer, declared []metricDef) error {
	env, _ := json.Marshal(o.env)
	fmt.Fprintf(w, "envelope %s\n", env)
	for _, n := range o.notes {
		fmt.Fprintf(w, "note     %s\n", n)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "FAIL     %s\n", p)
	}
	shown := append(append([]metricDef(nil), declared...), reportOnly...)
	if o.env.Trace {
		shown = declared
	}
	for _, d := range shown {
		v, ok := o.metrics[d.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "metric   %-28s n/a (%s)\n", d.Name, d.Unit)
		case v.N > 0:
			fmt.Fprintf(w, "metric   %-28s %.6g %s (n=%d)\n", d.Name, v.Value, d.Unit, v.N)
		default:
			fmt.Fprintf(w, "metric   %-28s %.6g %s\n", d.Name, v.Value, d.Unit)
		}
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: o.correct(), Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]jm{}}
	for _, d := range declared {
		v, ok := o.metrics[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			out.Correct = false
			fmt.Fprintf(w, "FAIL     metric %s was not measured\n", d.Name)
			v.Value = 0
		}
		out.Metrics[d.Name] = jm{Value: v.Value, Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
