package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain doubles as a fake asmserve that dies at once, for the
// early-exit test.
func TestMain(m *testing.M) {
	if os.Getenv("ASMBENCH_FAKE_ASMSERVE") == "exit" {
		fmt.Fprintln(os.Stderr, "fake asmserve: refusing to start")
		os.Exit(3)
	}
	os.Exit(m.Run())
}

// tiny shrinks a workload to a few campaigns on a 304-node graph.
func tiny(w inprocWorkload) inprocWorkload {
	w.Scale = 0.02
	w.MinCampaigns = 3
	w.Digest = 0
	return w
}

// runTiny runs exactly w.MinCampaigns campaigns and fails the test on any
// gate problem.
func runTiny(t *testing.T, w inprocWorkload, traced bool) *inprocRun {
	t.Helper()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r, err := runInproc(w, options{seed: 7, dir: t.TempDir()}, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.tearDown)
	if len(r.problems) > 0 || r.failed.Load() > 0 {
		t.Fatalf("%s: %d failed ops: %v", w.Name, r.failed.Load(), r.problems)
	}
	if got := r.completed(); got != w.MinCampaigns {
		t.Fatalf("%s: %d campaigns completed, want %d", w.Name, got, w.MinCampaigns)
	}
	return r
}

func mustDigest(t *testing.T, r *inprocRun) uint64 {
	t.Helper()
	sum, ok := r.digest(r.w.MinCampaigns)
	if !ok {
		t.Fatalf("%s: digest over unfinished campaigns", r.w.Name)
	}
	return sum
}

func TestInprocSmoke(t *testing.T) {
	for _, w := range []inprocWorkload{sampleIC, durableChurn} {
		w := tiny(w)
		t.Run(w.Name, func(t *testing.T) {
			r := runTiny(t, w, false)
			out := &outcome{metrics: metrics{}}
			if rate := inprocEndToEnd(r, out); rate <= 0 {
				t.Fatalf("campaigns_per_s = %v", rate)
			}
			for _, d := range endToEnd {
				if v, ok := out.metrics[d.Name]; !ok || v.Value <= 0 {
					t.Errorf("%s = %v (present %v), want > 0", d.Name, v.Value, ok)
				}
			}
			if w.Durable && r.reactivate.Count() == 0 {
				t.Error("durable workload never reactivated a session")
			}
		})
	}
}

// TestTracedDigestMatches checks that the traced runs propose exactly what
// the untraced ones do: the timed policy wrapper on sample-ic, the extra
// Status calls on durable-churn.
func TestTracedDigestMatches(t *testing.T) {
	for _, w := range []inprocWorkload{sampleIC, durableChurn} {
		w := tiny(w)
		t.Run(w.Name, func(t *testing.T) {
			plain := mustDigest(t, runTiny(t, w, false))
			r := runTiny(t, w, true)
			if got := mustDigest(t, r); got != plain {
				t.Fatalf("traced digest %016x, untraced %016x", got, plain)
			}
			if len(r.tr.snapshot()) == 0 {
				t.Fatal("traced run recorded no spans")
			}
		})
	}
}

func TestDigestIndependentOfWorkers(t *testing.T) {
	for _, w := range []inprocWorkload{sampleIC, durableChurn} {
		w := tiny(w)
		t.Run(w.Name, func(t *testing.T) {
			w.Workers = 1
			seq := mustDigest(t, runTiny(t, w, false))
			w.Workers = 0
			if par := mustDigest(t, runTiny(t, w, false)); par != seq {
				t.Fatalf("Workers 0 digest %016x, Workers 1 %016x", par, seq)
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "campaign", Parent: noSpan, Start: 0, End: 100 * ms},
		{Name: "serve.propose", Parent: 0, Start: 10 * ms, End: 50 * ms},
		{Name: "trim.select", Parent: 1, Start: 12 * ms, End: 30 * ms},
		{Name: "trim.select", Parent: 1, Start: 25 * ms, End: 40 * ms},    // overlaps the first
		{Name: "serve.observe", Parent: 0, Start: 60 * ms, End: 110 * ms}, // runs past its parent
		{Name: "open", Parent: 0, Start: 70 * ms, End: -1},                // never closed
	}
	want := []time.Duration{
		100*ms - 40*ms - 40*ms, // minus [10,50) and the clipped [60,100)
		40*ms - 28*ms,          // minus the union [12,40)
		18 * ms,
		15 * ms,
		50 * ms,
	}
	got := selfTimes(spans)
	for i, w := range want {
		if got[i] != w {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], w)
		}
	}
	by := byName(spans)
	if sel := by["trim.select"]; sel.count != 2 || sel.busy != 33*ms || sel.self != 33*ms {
		t.Errorf("trim.select stats = %+v", *sel)
	}
	if _, ok := by["open"]; ok {
		t.Error("an unclosed span was counted")
	}
	if p := by["serve.propose"]; p.selfMeanMs() != 12 {
		t.Errorf("serve.propose self mean = %v ms, want 12", p.selfMeanMs())
	}
}

func TestParsePromFixture(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"asmserve_sessions_created_total":                                   1,
		"asmserve_proposals_total":                                          1,
		"asmserve_pool_bytes":                                               372724,
		`asmserve_sessions{phase="observe"}`:                                1,
		series("asmserve_step_seconds_sum", `op="next"`):                    0.002591,
		series("asmserve_step_seconds_count", `op="next"`):                  1,
		series("asmserve_step_seconds_bucket", `le="0.005"`, `op="next"`):   1,
		series("asmserve_step_seconds_bucket", `le="+Inf"`, `op="observe"`): 0,
	} {
		if v, ok := got[key]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", key, v, ok, want)
		}
	}
	after := promSample{}
	for k, v := range got {
		after[k] = v
	}
	after[series("asmserve_step_seconds_sum", `op="next"`)] += 0.5
	after[series("asmserve_step_seconds_count", `op="next"`)] += 100
	fr := &fleetRun{before: got, after: after}
	if m := fr.serverMeanMs("next"); m < 4.9999 || m > 5.0001 {
		t.Errorf("server next mean = %v ms, want 5", m)
	}

	for _, bad := range []string{"asmserve_x", `asmserve_x{op="a" 1`, `asmserve_x{op=a} 1`, "asmserve_x one"} {
		if _, err := parseProm(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}

// TestFleetAsmserveExitsEarly points http-fleet at a server that dies
// before it is healthy: the run must fail promptly, print a result saying
// so, and exit non-zero.
func TestFleetAsmserveExitsEarly(t *testing.T) {
	t.Setenv("ASMBENCH_FAKE_ASMSERVE", "exit")
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := runFleet(context.Background(), httpFleet, self, 1, time.Second, nil); err == nil || !strings.Contains(err.Error(), "exited") {
		t.Fatalf("runFleet error = %v, want an early-exit error", err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "http-fleet", "--seconds", "1", "--asmserve", self, "--dir", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("run exited 0 with a dead asmserve")
	}
	if time.Since(start) > 30*time.Second {
		t.Fatalf("early exit took %v to notice", time.Since(start))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct bool `json:"correct"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct {
		t.Fatalf("last line %q: correct=%v err=%v", lines[len(lines)-1], res.Correct, err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sample-ic", "--trace", "2"},
		{"--workload", "sample-ic", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json at the repository
// root in step with the metrics the program reports.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if e := spec.EndToEnd[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program %+v", i, e, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if e := spec.PerLayer[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program %+v", i, e, d)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
}
