package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"asti/internal/adaptive"
	"asti/internal/baselines"
	"asti/internal/diffusion"
	"asti/internal/estimator"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/im"
	"asti/internal/imm"
	"asti/internal/oracle"
	"asti/internal/rng"
	"asti/internal/stats"
	"asti/internal/trace"
)

// Metric selects which per-cell aggregate a chart or export reports.
type Metric int

// The three sweep metrics of the paper's figure families.
const (
	MetricSeeds Metric = iota
	MetricSeconds
	MetricSpread
)

func (m Metric) label() string {
	switch m {
	case MetricSeeds:
		return "seeds"
	case MetricSeconds:
		return "seconds"
	default:
		return "spread"
	}
}

func (m Metric) of(c *Cell) float64 {
	switch m {
	case MetricSeeds:
		return stats.Mean(c.Seeds)
	case MetricSeconds:
		return stats.Mean(c.Seconds)
	default:
		return stats.Mean(c.Spreads)
	}
}

// Figure converts one dataset's sweep into a trace.Figure: one series per
// algorithm, x = η/n, y = the metric mean.
func (s *Sweep) Figure(dataset string, m Metric) *trace.Figure {
	f := &trace.Figure{
		Title:  fmt.Sprintf("%s — %s vs threshold (%s model)", dataset, m.label(), s.Model),
		XLabel: "eta/n",
		YLabel: m.label(),
	}
	for _, name := range s.columnsOf(dataset) {
		var sr *trace.Series
		for _, frac := range s.fracs(dataset) {
			c := s.CellFor(dataset, frac, name)
			if c == nil {
				continue
			}
			if sr == nil {
				sr = f.AddSeries(name)
			}
			sr.Add(frac, m.of(c))
		}
	}
	return f
}

// Charts renders one ASCII chart per dataset for the metric — the visual
// companion to the Report* tables (running time uses a log axis like the
// paper's Figures 5 and 7).
func (s *Sweep) Charts(w io.Writer, m Metric) error {
	for _, ds := range s.Datasets {
		f := s.Figure(ds, m)
		if len(f.Series) == 0 {
			continue
		}
		fmt.Fprintln(w)
		opts := trace.ChartOptions{Width: 56, Height: 14, LogY: m == MetricSeconds}
		if err := f.Chart(w, opts); err != nil {
			return fmt.Errorf("bench: charting %s: %w", ds, err)
		}
	}
	return nil
}

// WriteCSV exports the sweep's three metrics as long-form CSV
// (series = "dataset/policy/metric").
func (s *Sweep) WriteCSV(w io.Writer) error {
	f := &trace.Figure{XLabel: "eta_over_n", YLabel: "value"}
	for _, ds := range s.Datasets {
		for _, name := range s.columnsOf(ds) {
			for _, m := range []Metric{MetricSeeds, MetricSeconds, MetricSpread} {
				var sr *trace.Series
				for _, frac := range s.fracs(ds) {
					c := s.CellFor(ds, frac, name)
					if c == nil {
						continue
					}
					if sr == nil {
						sr = f.AddSeries(fmt.Sprintf("%s/%s/%s", ds, name, m.label()))
					}
					sr.Add(frac, m.of(c))
				}
			}
		}
	}
	return f.WriteCSV(w)
}

// heuristics compares ASTI against the guarantee-free rankings on the
// NetHEPT-like dataset: number of seeds to reach η on the same worlds.
// This quantifies what the approximation guarantee buys over PageRank,
// degree-discount, k-core, plain degree and random seeding.
func (r *Runner) heuristics(w io.Writer) error {
	spec, err := gen.Dataset("synth-nethept")
	if err != nil {
		return err
	}
	g, err := spec.Generate(r.Profile.scaleFor(spec.Name))
	if err != nil {
		return err
	}
	eta := etaFor(g, 0.1)
	worlds := sampleWorlds(g, diffusion.IC, r.Profile.Realizations, r.Profile.Seed^0x4E0)
	fmt.Fprintf(w, "# Heuristics — seeds to reach η on %s, IC, η=%d (mean over %d realizations)\n",
		g.Name(), eta, len(worlds))

	policies := []func() adaptive.Policy{
		func() adaptive.Policy {
			return r.Profile.trimPolicy(1, true)
		},
		func() adaptive.Policy { return &baselines.PageRankPolicy{} },
		func() adaptive.Policy { return &baselines.DegreeDiscountPolicy{} },
		func() adaptive.Policy { return &baselines.KCorePolicy{} },
		func() adaptive.Policy { return &baselines.SketchPolicy{} },
		func() adaptive.Policy { return baselines.Degree{} },
		func() adaptive.Policy { return baselines.Random{} },
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tseeds\tspread\tseconds")
	for _, factory := range policies {
		var seeds, spread, secs float64
		var name string
		for i, φ := range worlds {
			pol := factory()
			name = pol.Name()
			res, err := adaptive.Run(g, diffusion.IC, eta, pol, φ, rng.New(r.Profile.Seed+uint64(i)*31))
			if c, ok := pol.(interface{ Close() }); ok {
				c.Close()
			}
			if err != nil {
				return fmt.Errorf("bench: heuristics %s: %w", name, err)
			}
			seeds += float64(len(res.Seeds))
			spread += float64(res.Spread)
			secs += res.Duration.Seconds()
		}
		k := float64(len(worlds))
		fmt.Fprintf(tw, "%s\t%.1f\t%.0f\t%.3g\n", name, seeds/k, spread/k, secs/k)
	}
	return tw.Flush()
}

// ablationAdaptivity computes exact adaptivity gaps on the fixture
// graphs: sequential vs batched optimal policies, the exact greedy, and
// both non-adaptive optima. This makes the §4.2 Remark's "unknown
// adaptivity gap" concrete at toy scale.
func (r *Runner) ablationAdaptivity(w io.Writer) error {
	fmt.Fprintln(w, "# Ablation — exact adaptivity gaps on fixture graphs (§4.2 Remark)")
	fmt.Fprintln(w, "# values are expected seed counts; batched policies pay for whole batches")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\teta\tOPT(b=1)\tOPT(b=2)\tOPT(b=3)\tgreedy\tnonadapt-E\tnonadapt-robust")
	for _, tc := range []struct {
		name string
		eta  int64
	}{
		{"figure1", 4},
		{"figure2", 2},
		{"star6", 4},
		{"line5", 3},
	} {
		g := fixtureGraph(tc.name)
		ag, err := oracle.ComputeAdaptivityGap(g, tc.eta, []int{1, 2, 3})
		if err != nil {
			return fmt.Errorf("bench: adaptivity %s: %w", tc.name, err)
		}
		robust := "∞"
		if ag.RobustFeasible {
			robust = fmt.Sprintf("%d", ag.NonAdaptiveRobust)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.4f\t%.4f\t%.4f\t%d\t%s\n",
			tc.name, tc.eta, ag.Adaptive, ag.Batched[2], ag.Batched[3], ag.Greedy,
			ag.NonAdaptiveExpect, robust)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "reading: OPT(b=1) ≤ OPT(b=2) ≤ OPT(b=3) is the adaptivity gap; greedy ≥ OPT is what TRIM approximates")
	return nil
}

// ablationVaswani measures §2.4's criticism of the prior art [42]: the
// sequential-sampling estimator honouring Eq. (7) burns orders of
// magnitude more traversal work than ASTI's mRR machinery on the same
// worlds, and degrades further as the accuracy requirement tightens.
func (r *Runner) ablationVaswani(w io.Writer) error {
	g, err := gen.ErdosRenyi("er-vl", 400, 5, true, r.Profile.Seed^0x51)
	if err != nil {
		return err
	}
	g.ApplyWeightedCascade()
	eta := etaFor(g, 0.1)
	worlds := sampleWorlds(g, diffusion.IC, min(r.Profile.Realizations, 3), r.Profile.Seed^0x52)
	fmt.Fprintf(w, "# Ablation — Vaswani–Lakshmanan estimator overhead (Eq. 7) on %s, IC, η=%d\n", g.Name(), eta)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tseeds\ttraversals\tcap hits")

	for _, relErr := range []float64{0.3, 0.15} {
		var seeds float64
		var sims, caps int64
		for i, φ := range worlds {
			vl := &baselines.Vaswani{RelErr: relErr, SampleCap: 1 << 12}
			res, err := adaptive.Run(g, diffusion.IC, eta, vl, φ, rng.New(r.Profile.Seed+uint64(i)))
			if err != nil {
				return err
			}
			seeds += float64(len(res.Seeds))
			sims += vl.Stats.Simulations
			caps += vl.Stats.CapHits
		}
		k := float64(len(worlds))
		fmt.Fprintf(tw, "VL16 relErr=%.2f\t%.1f\t%d simulations\t%d\n", relErr, seeds/k, sims/int64(len(worlds)), caps/int64(len(worlds)))
	}
	var seeds float64
	var sets int64
	for i, φ := range worlds {
		pol := r.Profile.trimPolicy(1, true)
		res, err := adaptive.Run(g, diffusion.IC, eta, pol, φ, rng.New(r.Profile.Seed+uint64(i)))
		pol.Close()
		if err != nil {
			return err
		}
		seeds += float64(len(res.Seeds))
		sets += pol.Stats.Sets
	}
	k := float64(len(worlds))
	fmt.Fprintf(tw, "ASTI ε=%.2f\t%.1f\t%d mRR sets\t-\n", r.Profile.Epsilon, seeds/k, sets/int64(len(worlds)))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "reading: one simulation and one mRR set are comparable traversals; VL16's counts explode as relErr shrinks")
	return nil
}

// significance runs paired statistical tests on the IC sweep: for each
// dataset at the largest shared threshold, it compares ASTI's per-world
// seed counts against every other policy on the SAME worlds, reporting
// the bootstrap CI of ASTI's mean and permutation/Wilcoxon p-values for
// the difference. This upgrades the paper's "ASTI selects fewer seeds"
// reading from a mean comparison to an inference statement.
func (r *Runner) significance(w io.Writer) error {
	s, err := r.sweep(diffusion.IC)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Significance — paired tests on per-world seed counts, IC (%d realizations)\n",
		r.Profile.Realizations)
	if r.Profile.Realizations < 5 {
		fmt.Fprintln(w, "# note: fewer than 5 realizations — p-values are coarse; use the full profile for inference")
	}
	src := rng.New(r.Profile.Seed ^ 0x51697)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tbaseline\tASTI mean [95% CI]\tbaseline mean\tΔ\tperm p\twilcoxon p")
	for _, ds := range s.Datasets {
		fs := s.fracs(ds)
		if len(fs) == 0 {
			continue
		}
		frac := fs[len(fs)-1]
		asti := s.CellFor(ds, frac, "ASTI")
		if asti == nil {
			continue
		}
		lo, hi, err := stats.BootstrapCI(asti.Seeds, 0.95, 2000, src)
		if err != nil {
			return err
		}
		for _, name := range s.columnsOf(ds) {
			if name == "ASTI" {
				continue
			}
			c := s.CellFor(ds, frac, name)
			if c == nil || len(c.Seeds) != len(asti.Seeds) {
				continue
			}
			p, diff, err := stats.PairedPermutationTest(c.Seeds, asti.Seeds, 2000, src)
			if err != nil {
				return err
			}
			_, wp, err := stats.WilcoxonSignedRank(c.Seeds, asti.Seeds)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s\t%.1f [%.1f, %.1f]\t%.1f\t%+.1f\t%.3f\t%.3f\n",
				ds, name, stats.Mean(asti.Seeds), lo, hi, stats.Mean(c.Seeds), diff, p, wp)
		}
	}
	return tw.Flush()
}

// ablationIMSolvers cross-checks the library's two certified influence-
// maximization solvers, OPIM-C (a-posteriori certification from a
// held-out pool) and IMM (a-priori sample sizing from a lower bound on
// OPT), over a budget sweep: seed quality must agree within guarantee
// slack while the sample-count profiles differ — the design trade the IM
// literature debates and TRIM inherits from the OPIM-C side.
func (r *Runner) ablationIMSolvers(w io.Writer) error {
	spec, err := gen.Dataset("synth-nethept")
	if err != nil {
		return err
	}
	g, err := spec.Generate(r.Profile.scaleFor(spec.Name))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Ablation — certified IM solvers on %s, IC, ε=%.2g (spread via shared MC estimate)\n",
		g.Name(), r.Profile.Epsilon)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "k\tOPIM-C spread\tOPIM-C sets\tIMM spread\tIMM sets\tagreement")
	sim := estimatorSamples(r.Profile)
	for _, k := range []int{1, 5, 10, 25} {
		opim, err := im.Select(g, diffusion.IC, k, im.Options{Epsilon: r.Profile.Epsilon, Workers: r.Profile.Workers}, rng.New(r.Profile.Seed^0x10))
		if err != nil {
			return err
		}
		immRes, err := imm.Select(g, diffusion.IC, k, imm.Options{Epsilon: r.Profile.Epsilon, Workers: r.Profile.Workers}, rng.New(r.Profile.Seed^0x11))
		if err != nil {
			return err
		}
		sOpim := estimator.MCSpread(g, diffusion.IC, opim.Seeds, nil, sim, rng.New(r.Profile.Seed^0x12))
		sImm := estimator.MCSpread(g, diffusion.IC, immRes.Seeds, nil, sim, rng.New(r.Profile.Seed^0x13))
		lo, hi := sOpim, sImm
		if lo > hi {
			lo, hi = hi, lo
		}
		fmt.Fprintf(tw, "%d\t%.0f\t%d\t%.0f\t%d\t%.2f\n", k, sOpim, opim.Sets, sImm, immRes.Sets, lo/hi)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "reading: agreement near 1.0 = the two certifications pick equivalent sets; sample counts expose the a-priori vs a-posteriori trade")
	return nil
}

// estimatorSamples scales MC verification effort with the profile.
func estimatorSamples(p Profile) int {
	if p.Realizations >= 20 {
		return 10000
	}
	return 2000
}

// ablationWeighting runs ASTI under the three standard edge-weighting
// conventions of the IM literature — weighted cascade (the paper's
// setting), TRIVALENCY, and uniform p — on the same topology. The paper
// fixes WC; this ablation shows which conclusions are weighting-robust
// (adaptive feasibility, truncation's sample savings) and which scale
// with edge strength (absolute seed counts).
func (r *Runner) ablationWeighting(w io.Writer) error {
	spec, err := gen.Dataset("synth-nethept")
	if err != nil {
		return err
	}
	// Weak weighting schemes are subcritical (spread ≈ 1 per seed), so
	// the round count scales with η; a small threshold and a capped scale
	// keep the ablation minutes, not hours, without changing its reading.
	scale := r.Profile.scaleFor(spec.Name)
	if scale > 0.5 {
		scale = 0.5
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "# Ablation — edge-weighting conventions (WC vs TRIVALENCY vs uniform), ASTI, IC")
	fmt.Fprintln(tw, "weighting\teta\tseeds\tspread\tmRR sets\tseconds")
	for _, scheme := range []string{"weighted-cascade", "trivalency", "uniform-0.1"} {
		g, err := spec.Generate(scale)
		if err != nil {
			return err
		}
		switch scheme {
		case "trivalency":
			g.ApplyTrivalency(r.Profile.Seed ^ 0x3A1)
		case "uniform-0.1":
			if err := g.ApplyUniformProb(0.1); err != nil {
				return err
			}
		}
		eta := etaFor(g, 0.02)
		worlds := sampleWorlds(g, diffusion.IC, r.Profile.Realizations, r.Profile.Seed^0x3A2)
		var seeds, spread, secs float64
		var sets int64
		for i, φ := range worlds {
			pol := r.Profile.trimPolicy(1, true)
			res, err := adaptive.Run(g, diffusion.IC, eta, pol, φ, rng.New(r.Profile.Seed+uint64(i)))
			if err != nil {
				return fmt.Errorf("bench: weighting %s: %w", scheme, err)
			}
			seeds += float64(len(res.Seeds))
			spread += float64(res.Spread)
			secs += res.Duration.Seconds()
			sets += pol.Stats.Sets
			pol.Close()
		}
		k := float64(len(worlds))
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.0f\t%d\t%.3g\n",
			scheme, eta, seeds/k, spread/k, sets/int64(len(worlds)), secs/k)
	}
	return tw.Flush()
}

// fixtureGraph returns the named toy graph used by the exact ablations.
func fixtureGraph(name string) *graph.Graph {
	switch name {
	case "figure1":
		return gen.Figure1Graph()
	case "figure2":
		return gen.Figure2Graph()
	case "star6":
		return gen.Star(6, 0.4)
	default:
		return gen.Line(5, 0.7)
	}
}
