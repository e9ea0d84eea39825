// Command asmbench is the repository benchmark: it runs one workload
// against the adaptive-seeding service, prints every metric by name with
// its unit, checks the outputs, and ends with one JSON result line.
// benchmark/run.sh builds it and asmserve from source and runs it from
// the repository root:
//
//	bash benchmark/run.sh --workload sample-ic --seed 1 --seconds 30 --trace 0
//
// README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// defaultSeed is the workload seed whose proposals digests are recorded
// (inprocWorkload.Digest).
const defaultSeed = 1

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	asmserve string // asmserve binary for http-fleet
	dir      string // scratch directory (journals, span dumps)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: sample-ic, durable-churn or http-fleet")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed (campaign i uses session seed seed+i)")
	fs.IntVar(&o.seconds, "seconds", 30, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.asmserve, "asmserve", filepath.Join(".bench_build", "asmserve"), "asmserve binary for http-fleet")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "run"), "scratch directory for journals and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "asmbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "asmbench: unknown workload %q (sample-ic, durable-churn, http-fleet)\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "asmbench: %v\n", err)
		return 1
	}
	out := &outcome{env: newEnvelope(o.workload, o.seed, o.seconds, o.trace), metrics: metrics{}}
	declared := endToEnd
	var err error
	if o.trace {
		declared = perLayer
		err = traced(context.Background(), o, out)
	} else {
		err = untraced(context.Background(), o, out)
	}
	if err != nil {
		out.fail("%v", err)
	}
	out.metrics.count("ops_attempted", out.attempted)
	out.metrics.ratio("ops_failed_frac", float64(out.failed), float64(out.attempted))
	if perr := out.print(stdout, declared); perr != nil {
		fmt.Fprintf(stderr, "asmbench: %v\n", perr)
		return 1
	}
	if !out.correct() {
		return 1
	}
	return 0
}

// workloads maps names to runners of one untraced run.
var workloads = map[string]func(ctx context.Context, o options, d time.Duration, out *outcome) (rate float64, r *inprocRun, err error){
	"sample-ic":     inprocRunner(sampleIC),
	"durable-churn": inprocRunner(durableChurn),
	"http-fleet":    fleetRunner,
}

// untraced runs the workload for --seconds and reports its end-to-end
// metrics.
func untraced(ctx context.Context, o options, out *outcome) error {
	steal := stealSeconds()
	_, _, err := workloads[o.workload](ctx, o, time.Duration(o.seconds)*time.Second, out)
	if steal >= 0 {
		out.note("CPU time stolen by the host during the run: %.2f s", stealSeconds()-steal)
	}
	return err
}

func inprocRunner(w inprocWorkload) func(context.Context, options, time.Duration, *outcome) (float64, *inprocRun, error) {
	return func(_ context.Context, o options, d time.Duration, out *outcome) (float64, *inprocRun, error) {
		r, err := runInproc(w, o, d, nil)
		if err != nil {
			return 0, nil, err
		}
		defer r.tearDown()
		rate := inprocEndToEnd(r, out)
		checkDigest(r, o.seed, out)
		return rate, r, nil
	}
}

// runInproc sets up and runs w for d; the caller tears the run down.
func runInproc(w inprocWorkload, o options, d time.Duration, tr *tracer) (*inprocRun, error) {
	r := newInprocRun(w, o.seed, o.dir, tr)
	if err := r.setUp(); err != nil {
		r.tearDown()
		return nil, err
	}
	if err := r.run(d); err != nil {
		r.tearDown()
		return nil, err
	}
	return r, nil
}

// inprocEndToEnd fills the end-to-end metrics and the gate of an
// in-process run and returns its campaigns_per_s.
func inprocEndToEnd(r *inprocRun, out *outcome) float64 {
	m := out.metrics
	n := r.completed()
	// Closed-loop throughput by Little's law: clients over the mean
	// campaign duration, so the drain at the end of a run does not count.
	rate := safeDiv(float64(n*clients), time.Duration(r.busy.Load()).Seconds())
	m.setN("campaigns_per_s", rate, n)
	m.quantileMs("next_p50_ms", 0.5, r.next)
	m.quantileMs("next_p90_ms", 0.9, r.next)
	m.quantileMs("observe_p50_ms", 0.5, r.observe)
	m.quantileMs("observe_p90_ms", 0.9, r.observe)
	m.quantileMs("create_p50_ms", 0.5, r.create)
	m.quantileMs("delete_p50_ms", 0.5, r.del)
	if r.reactivate.Count() > 0 {
		m.quantileMs("reactivate_p50_ms", 0.5, r.reactivate)
		m.quantileMs("reactivate_p90_ms", 0.9, r.reactivate)
	}
	m.setN("seeds_per_campaign", r.seedsPerCampaign(), n)
	setupMedian(m, r.setup)
	m.setN("peak_rss_mb", r.rssMB, r.rssReadings)
	out.attempted += r.attempted.Load()
	out.failed += r.failed.Load() // each already has a line in r.problems
	r.mu.Lock()
	out.problems = append(out.problems, r.problems...)
	r.mu.Unlock()
	return rate
}

// setupMedian reports the median set-up time.
func setupMedian(m metrics, setup []time.Duration) {
	s := &samples{xs: setup}
	m.setN("setup_s", s.Quantile(0.5).Seconds(), s.Count())
}

// checkDigest reports the proposals digest of the first MinCampaigns
// campaigns and, at defaultSeed, checks it against the recorded value.
func checkDigest(r *inprocRun, seed uint64, out *outcome) {
	sum, ok := r.digest(r.w.MinCampaigns)
	if !ok {
		out.fail("%s: a campaign among the first %d did not finish", r.w.Name, r.w.MinCampaigns)
		return
	}
	mode := "untraced"
	if r.tr != nil {
		mode = "traced"
	}
	out.note("%s %s proposals digest over campaigns 0..%d: %016x (%d campaigns ran)", mode, r.w.Name, r.w.MinCampaigns-1, sum, r.completed())
	if r.w.Digest != 0 && seed == defaultSeed && sum != r.w.Digest {
		out.fail("%s: proposals digest %016x, recorded %016x for seed %d", r.w.Name, sum, r.w.Digest, defaultSeed)
	}
}

func fleetRunner(ctx context.Context, o options, d time.Duration, out *outcome) (float64, *inprocRun, error) {
	fr, err := runFleet(ctx, httpFleet, o.asmserve, o.seed, d, nil)
	if err != nil {
		return 0, nil, err
	}
	return fleetEndToEnd(fr, out), nil, nil
}

// fleetEndToEnd fills the end-to-end metrics and the gate of an
// http-fleet run and returns its campaigns_per_s.
func fleetEndToEnd(fr *fleetRun, out *outcome) float64 {
	m := out.metrics
	rep := fr.rep
	m.setN("campaigns_per_s", rep.SessionsPerSec, int(rep.SessionsCompleted))
	for _, op := range []string{"next", "observe", "create", "delete"} {
		s := rep.Steps[op]
		m.setN(op+"_p50_ms", s.P50Ms, int(s.Count))
		if op == "next" || op == "observe" {
			m.setN(op+"_p90_ms", s.P90Ms, int(s.Count))
		}
	}
	m.setN("seeds_per_campaign", safeDiv(float64(rep.Steps["next"].Count*uint64(httpFleet.Batch)), float64(rep.SessionsCompleted)), int(rep.SessionsCompleted))
	m.setN("peak_rss_mb", fr.rssMB, fr.rssReadings)
	setupMedian(m, fr.setup)
	var attempted, retries uint64
	for _, s := range rep.Steps {
		attempted += s.Count
	}
	for _, n := range rep.Retries {
		retries += n
	}
	failed := rep.UnexpectedErrors() + rep.RetriesExhausted
	attempted += failed + retries
	out.attempted += attempted
	out.failed += failed
	if failed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("http-fleet: %d unexpected statuses %v, %d campaigns out of retries",
			rep.UnexpectedErrors(), rep.Errors, rep.RetriesExhausted))
	}
	if err := fr.census(); err != nil {
		out.fail("http-fleet: %v", err)
	} else {
		out.note("http-fleet census: %d creates, %d next, %d observe, %d delete match the server counters",
			rep.Steps["create"].Count, rep.Steps["next"].Count, rep.Steps["observe"].Count, rep.Steps["delete"].Count)
	}
	return rep.SessionsPerSec
}

// traced runs the named workload untraced for a quarter of --seconds (the
// overhead baseline), then a traced run of every workload for a quarter
// each, so every layer is measured on the workload that exercises it:
// trim and rrset on sample-ic, serve and journal on durable-churn,
// asmserve on http-fleet.
func traced(ctx context.Context, o options, out *outcome) error {
	quarter := max(time.Duration(o.seconds)*time.Second/4, time.Second)
	base := &outcome{metrics: metrics{}}
	baseRate, baseRun, err := workloads[o.workload](ctx, o, quarter, base)
	if err != nil {
		return fmt.Errorf("untraced %s: %w", o.workload, err)
	}
	out.absorb(base)

	m := out.metrics
	dumps := map[string][]span{}
	rates := map[string]float64{}
	digests := map[string]*inprocRun{}

	for _, w := range []inprocWorkload{sampleIC, durableChurn} {
		tr := newTracer()
		r, err := runInproc(w, o, quarter, tr)
		if err != nil {
			return fmt.Errorf("traced %s: %w", w.Name, err)
		}
		sub := &outcome{metrics: metrics{}}
		rates[w.Name] = inprocEndToEnd(r, sub)
		checkDigest(r, o.seed, sub)
		out.absorb(sub)
		spans := tr.snapshot()
		dumps[w.Name] = spans
		digests[w.Name] = r
		if w.Name == sampleIC.Name {
			layerTrimRRSet(r, spans, m)
		} else {
			if err := layerServeJournal(r, spans, filepath.Join(o.dir, "journal-kernel"), m); err != nil {
				out.fail("journal kernel: %v", err)
			}
		}
		r.tearDown()
	}

	tr := newTracer()
	fr, err := runFleet(ctx, httpFleet, o.asmserve, o.seed, quarter, tr)
	if err != nil {
		return fmt.Errorf("traced http-fleet: %w", err)
	}
	sub := &outcome{metrics: metrics{}}
	rates[httpFleet.Name] = fleetEndToEnd(fr, sub)
	out.absorb(sub)
	dumps[httpFleet.Name] = tr.snapshot()
	layerASMServe(fr, m)

	if baseRun != nil {
		t := digests[o.workload]
		n := min(baseRun.completed(), t.completed())
		a, _ := baseRun.digest(n)
		b, _ := t.digest(n)
		if a != b {
			out.fail("%s: traced proposals digest %016x differs from untraced %016x over %d campaigns", o.workload, b, a, n)
		} else {
			out.note("%s: traced and untraced proposals digests agree over %d campaigns (%016x)", o.workload, n, a)
		}
	}
	m.set("trace.campaigns_per_s", rates[o.workload])
	m.set("trace.overhead_frac", 1-safeDiv(rates[o.workload], baseRate))
	out.note("untraced %s campaigns_per_s %.4g", o.workload, baseRate)

	buf, err := json.Marshal(dumps)
	if err != nil {
		return err
	}
	path := filepath.Join(o.dir, "spans-"+o.workload+".json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	out.note("spans written to %s", path)
	return nil
}
