package baselines

import (
	"testing"

	"asti/internal/adaptive"
	"asti/internal/diffusion"
	"asti/internal/estimator"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "t", N: 400, AvgDeg: 2.2, UniformMix: 0.4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestATEUCValidation(t *testing.T) {
	g := testGraph(t)
	a := &ATEUC{Epsilon: 0}
	if _, err := a.Select(g, diffusion.IC, 10, rng.New(1)); err == nil {
		t.Error("epsilon 0 accepted")
	}
	a = &ATEUC{Epsilon: 0.5}
	if _, err := a.Select(g, diffusion.IC, 0, rng.New(1)); err == nil {
		t.Error("eta 0 accepted")
	}
	if _, err := a.Select(g, diffusion.IC, int64(g.N())+1, rng.New(1)); err == nil {
		t.Error("eta > n accepted")
	}
}

// TestATEUCMeetsExpectedSpread: the selected set's Monte-Carlo expected
// spread must reach η (that is ATEUC's contract — per-realization
// attainment is NOT guaranteed, which the adaptive comparison exploits).
func TestATEUCMeetsExpectedSpread(t *testing.T) {
	g := testGraph(t)
	eta := int64(80)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		a := &ATEUC{Epsilon: 0.5}
		S, err := a.Select(g, model, eta, rng.New(2))
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if len(S) == 0 {
			t.Fatalf("%v: empty seed set", model)
		}
		// No duplicate seeds.
		seen := map[int32]bool{}
		for _, v := range S {
			if seen[v] {
				t.Fatalf("%v: duplicate seed %d", model, v)
			}
			seen[v] = true
		}
		est := estimator.MCSpread(g, model, S, nil, 3000, rng.New(3))
		if est < 0.85*float64(eta) {
			t.Errorf("%v: E[I(S)] ≈ %.1f well below η=%d", model, est, eta)
		}
	}
}

// TestATEUCMoreSeedsForHigherEta: monotone workload response.
func TestATEUCMoreSeedsForHigherEta(t *testing.T) {
	g := testGraph(t)
	a := &ATEUC{Epsilon: 0.5}
	s1, err := a.Select(g, diffusion.IC, 40, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.Select(g, diffusion.IC, 160, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(s2) <= len(s1) {
		t.Errorf("η=40 → %d seeds, η=160 → %d seeds; want increase", len(s1), len(s2))
	}
}

func TestAdaptIMPolicy(t *testing.T) {
	g := testGraph(t)
	p, err := NewAdaptIM(0.5, 0, 0, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "AdaptIM" {
		t.Fatalf("name %q", p.Name())
	}
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(5))
	res, err := adaptive.Run(g, diffusion.IC, 60, p, φ, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spread < 60 {
		t.Fatalf("spread %d", res.Spread)
	}
}

// TestMCGreedyPicksTruncatedOptimum: on the Figure 2 graph with η=2 the
// truncated MC greedy must pick v2 or v3 (expected truncated spreads 2)
// and never v1 (1.75) — the paper's Example 2.3 behavioural check — while
// the vanilla variant picks v1 (expected spread 2.75).
func TestMCGreedyPicksTruncatedOptimum(t *testing.T) {
	g := gen.Figure2Graph()
	φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(7))

	trunc := &MCGreedy{Samples: 4000, Truncated: true}
	st := &adaptive.State{G: g, Model: diffusion.IC, Eta: 2,
		Inactive: []int32{0, 1, 2, 3}, Rng: rng.New(8)}
	st.Active = nil
	batch, err := trunc.SelectBatch(st)
	if err != nil {
		t.Fatal(err)
	}
	if batch[0] != 1 && batch[0] != 2 {
		t.Errorf("truncated greedy picked v%d, want v2 or v3", batch[0]+1)
	}

	vanilla := &MCGreedy{Samples: 4000, Truncated: false}
	batch, err = vanilla.SelectBatch(st)
	if err != nil {
		t.Fatal(err)
	}
	if batch[0] != 0 {
		t.Errorf("vanilla greedy picked v%d, want v1", batch[0]+1)
	}
	_ = φ
}

func TestMCGreedyValidation(t *testing.T) {
	p := &MCGreedy{Samples: 0, Truncated: true}
	st := &adaptive.State{Inactive: []int32{0}}
	if _, err := p.SelectBatch(st); err == nil {
		t.Error("samples=0 accepted")
	}
}

// TestHeuristicPoliciesComplete: Degree and Random terminate and reach η.
func TestHeuristicPoliciesComplete(t *testing.T) {
	g := testGraph(t)
	for _, p := range []adaptive.Policy{Degree{}, Random{}} {
		φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(9))
		res, err := adaptive.Run(g, diffusion.IC, 50, p, φ, rng.New(10))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Spread < 50 {
			t.Fatalf("%s: spread %d", p.Name(), res.Spread)
		}
	}
}

// TestDegreePicksHub: on a star the degree heuristic must pick the center.
func TestDegreePicksHub(t *testing.T) {
	g := gen.Star(8, 0.5)
	st := &adaptive.State{G: g, Inactive: []int32{3, 0, 5}}
	batch, err := Degree{}.SelectBatch(st)
	if err != nil {
		t.Fatal(err)
	}
	if batch[0] != 0 {
		t.Fatalf("degree picked %d, want center 0", batch[0])
	}
}

// TestATEUCSeedsDistinctAcrossDoubling: the greedy pass must never emit a
// node twice even across sample doublings and the cap fallback.
func TestATEUCSeedsDistinctAcrossDoubling(t *testing.T) {
	g := testGraph(t)
	a := &ATEUC{Epsilon: 0.5, MaxSets: 256} // force the cap path
	S, err := a.Select(g, diffusion.IC, 120, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, v := range S {
		if seen[v] {
			t.Fatalf("duplicate seed %d", v)
		}
		seen[v] = true
	}
	if a.Stats.HitCap == 0 {
		t.Log("cap not hit; cap fallback path untested at this size")
	}
}

// TestATEUCHonorsSampleCap: MaxSets bounds the RR pool, the cap is
// recorded, and a usable set still comes back. The cap is what keeps
// ATEUC's wall-clock flat across thresholds in the harness, a deviation
// from the paper's decreasing-runtime claim.
func TestATEUCHonorsSampleCap(t *testing.T) {
	g := testGraph(t)
	a := &ATEUC{Epsilon: 0.5, MaxSets: 512}
	S, err := a.Select(g, diffusion.IC, 150, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(S) == 0 {
		t.Fatal("no seeds under cap")
	}
	if a.Stats.Sets > 512 {
		t.Fatalf("generated %d sets past the cap", a.Stats.Sets)
	}
	if a.Stats.HitCap == 0 {
		t.Fatal("cap not recorded despite tiny budget")
	}
}

func TestPolicyNames(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{(&ATEUC{}).Name(), "ATEUC"},
		{(&GoyalMC{}).Name(), "GoyalMC"},
		{(&MCGreedy{Truncated: true}).Name(), "MCGreedy"},
		{(&MCGreedy{}).Name(), "MCGreedy-vanilla"},
		{(&CELFGreedy{}).Name(), "CELFGreedy"},
		{(Degree{}).Name(), "Degree"},
		{(Random{}).Name(), "Random"},
		{(&Vaswani{}).Name(), "Vaswani-Lakshmanan"},
		{(&SketchPolicy{}).Name(), "Sketch"},
		{(&PageRankPolicy{}).Name(), "PageRank"},
		{(&DegreeDiscountPolicy{}).Name(), "DegreeDiscount"},
		{(&KCorePolicy{}).Name(), "KCore"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("Name() = %q, want %q", c.got, c.want)
		}
	}
}

func TestRandomPolicyEmptyResidual(t *testing.T) {
	g := gen.Star(3, 0.5)
	st := newState(g, diffusion.IC, 2, rng.New(1))
	st.Inactive = nil
	if _, err := (Random{}).SelectBatch(st); err == nil {
		t.Error("empty residual accepted by Random")
	}
	if _, err := (Degree{}).SelectBatch(st); err == nil {
		t.Error("empty residual accepted by Degree")
	}
}
