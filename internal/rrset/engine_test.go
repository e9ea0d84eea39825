package rrset

import (
	"fmt"
	"sync"
	"testing"

	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
)

// collect generates count sets with the given worker count and returns the
// resulting collection.
func collect(t testing.TB, workers, count int, strat RootStrategy, countsOnly bool) (*Collection, GenStats) {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		Name: "engine-test", N: 3000, AvgDeg: 4, UniformMix: 0.4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int32, g.N())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	e := NewEngine(g, diffusion.IC, workers)
	defer e.Close()
	coll := NewCollection(g)
	stats := e.Generate(coll, Request{
		Strategy: strat, Inactive: nodes, EtaI: 100,
		Count: count, Seed: 0xDEC0DE, CountsOnly: countsOnly,
	})
	return coll, stats
}

// TestEngineDeterministicAcrossWorkers is the engine's core contract:
// byte-identical output for every worker count, including the sequential
// path.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	for _, strat := range []RootStrategy{SingleRoot(), MultiRoot(RoundRandomized), MultiRoot(RoundFloor), MultiRoot(RoundCeil)} {
		ref, refStats := collect(t, 1, 600, strat, false)
		for _, workers := range []int{2, 4, 8} {
			got, gotStats := collect(t, workers, 600, strat, false)
			if got.Size() != ref.Size() {
				t.Fatalf("workers=%d: %d sets vs %d", workers, got.Size(), ref.Size())
			}
			if gotStats.SetNodes != refStats.SetNodes || gotStats.EdgesExamined != refStats.EdgesExamined {
				t.Fatalf("workers=%d: stats %+v vs %+v", workers, gotStats, refStats)
			}
			for id := int32(0); id < int32(ref.Size()); id++ {
				a, b := ref.Set(id), got.Set(id)
				if len(a) != len(b) {
					t.Fatalf("workers=%d set %d: len %d vs %d", workers, id, len(b), len(a))
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("workers=%d set %d differs at %d: %d vs %d", workers, id, j, b[j], a[j])
					}
				}
			}
		}
	}
}

// TestEngineCountsOnlyMatchesStored verifies that counts-only batches —
// folded into per-worker counters and merged when they fan out, added
// set by set when they run inline — account exactly what the storing
// path at one worker does: the same fingerprint, node total, coverage of
// every node and batch stats, for every worker count, model and root
// strategy, over a batch split across two Generate calls (FirstIndex
// continuation) and one below minParallelSets, under an active mask. A
// Reset afterwards must leave the collection equal to a fresh one.
func TestEngineCountsOnlyMatchesStored(t *testing.T) {
	base, err := gen.PowerLaw(gen.PowerLawConfig{
		Name: "counts-only", N: 3000, AvgDeg: 4, UniformMix: 0.4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := gen.PowerLaw(gen.PowerLawConfig{
		Name: "counts-only", N: 3000, AvgDeg: 4, UniformMix: 0.4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	wc.ApplyWeightedCascade()
	active := bitset.New(int(base.N()))
	var inactive []int32
	for v := int32(0); v < base.N(); v++ {
		if v%11 == 4 {
			active.Set(v)
		} else {
			inactive = append(inactive, v)
		}
	}
	batches := []struct {
		first int64
		count int
	}{{0, 700}, {700, 500}, {1200, minParallelSets / 2}}

	// run generates the batches into a fresh collection and returns it
	// with each batch's stats.
	run := func(g *graph.Graph, model diffusion.Model, workers int, strat RootStrategy, countsOnly bool) (*Collection, []GenStats) {
		e := NewEngine(g, model, workers)
		defer e.Close()
		coll := NewCollection(g)
		var stats []GenStats
		for _, b := range batches {
			stats = append(stats, e.Generate(coll, Request{
				Strategy: strat, Inactive: inactive, Active: active, EtaI: 100,
				Count: b.count, Seed: 0xDEC0DE, FirstIndex: b.first, CountsOnly: countsOnly,
			}))
		}
		return coll, stats
	}
	same := func(t *testing.T, got, want *Collection) {
		t.Helper()
		if got.Size() != want.Size() || got.TotalNodes() != want.TotalNodes() || got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("size/nodes/fingerprint %d/%d/%x, want %d/%d/%x", got.Size(), got.TotalNodes(), got.Fingerprint(),
				want.Size(), want.TotalNodes(), want.Fingerprint())
		}
		for v := int32(0); v < want.n; v++ {
			if got.Coverage(v) != want.Coverage(v) {
				t.Fatalf("coverage of %d: %d, want %d", v, got.Coverage(v), want.Coverage(v))
			}
		}
	}

	for _, mc := range []struct {
		model diffusion.Model
		g     *graph.Graph
	}{{diffusion.IC, base}, {diffusion.LT, wc}} {
		for _, strat := range []RootStrategy{SingleRoot(), MultiRoot(RoundRandomized)} {
			ref, refStats := run(mc.g, mc.model, 1, strat, false)
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/multi=%v/workers=%d", mc.model, strat.Multi(), workers), func(t *testing.T) {
					counts, stats := run(mc.g, mc.model, workers, strat, true)
					same(t, counts, ref)
					for i := range stats {
						if stats[i] != refStats[i] {
							t.Fatalf("batch %d stats %+v, want %+v", i, stats[i], refStats[i])
						}
					}
					counts.Reset()
					same(t, counts, NewCollection(mc.g))
				})
			}
		}
	}
}

// TestEngineSmallBatchInline checks batches below the parallel threshold
// still produce the same stream (the dispatch decision must not change
// output).
func TestEngineSmallBatchInline(t *testing.T) {
	// 100 < minParallelSets forces inline even with many workers; generate
	// the same 100 sets in one big call prefix to compare.
	small, _ := collect(t, 8, 100, MultiRoot(RoundRandomized), false)
	big, _ := collect(t, 8, 600, MultiRoot(RoundRandomized), false)
	for id := int32(0); id < int32(small.Size()); id++ {
		a, b := small.Set(id), big.Set(id)
		if len(a) != len(b) {
			t.Fatalf("set %d: inline len %d vs pooled %d", id, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("set %d differs at %d", id, j)
			}
		}
	}
}

// TestEngineReuseAcrossGenerates exercises repeated Generate calls into a
// reused (Reset) collection — the adaptive-round pattern — under the race
// detector.
func TestEngineReuseAcrossGenerates(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "reuse", N: 2000, AvgDeg: 4, UniformMix: 0.4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int32, g.N())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	e := NewEngine(g, diffusion.IC, 4)
	defer e.Close()
	coll := NewCollection(g)
	r := rng.New(77)
	for round := 0; round < 5; round++ {
		coll.Reset()
		for _, batch := range []int{300, 600, 1200} {
			e.Generate(coll, Request{
				Strategy: MultiRoot(RoundRandomized), Inactive: nodes, EtaI: 50,
				Count: batch - coll.Size(), Seed: r.Uint64(),
			})
			if coll.Size() != batch {
				t.Fatalf("round %d: size %d want %d", round, coll.Size(), batch)
			}
			if _, cov := coll.ArgmaxCoverage(nil); cov <= 0 {
				t.Fatalf("round %d: no coverage", round)
			}
			seeds, covered := coll.GreedyMaxCoverage(4, nil)
			if len(seeds) == 0 || covered <= 0 {
				t.Fatalf("round %d: empty greedy", round)
			}
			if got := coll.CoverageOf(seeds); got != covered {
				t.Fatalf("round %d: CoverageOf(greedy)=%d want %d", round, got, covered)
			}
		}
	}
}

// TestEngineConcurrentEngines runs several engines in parallel to surface
// cross-engine data races (each engine owns its pool and scratch).
func TestEngineConcurrentEngines(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "conc", N: 1500, AvgDeg: 4, UniformMix: 0.4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int32, g.N())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			e := NewEngine(g, diffusion.IC, 3)
			defer e.Close()
			coll := NewCollection(g)
			e.Generate(coll, Request{
				Strategy: MultiRoot(RoundRandomized), Inactive: nodes, EtaI: 30,
				Count: 500, Seed: uint64(k),
			})
			if coll.Size() != 500 {
				t.Errorf("engine %d: %d sets", k, coll.Size())
			}
		}(k)
	}
	wg.Wait()
}

// TestCollectionResetMatchesFresh verifies a Reset collection behaves like
// a newly constructed one.
func TestCollectionResetMatchesFresh(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "reset", N: 500, AvgDeg: 3, UniformMix: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int32, g.N())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	e := NewEngine(g, diffusion.IC, 1)
	defer e.Close()

	reused := NewCollection(g)
	e.Generate(reused, Request{Strategy: SingleRoot(), Inactive: nodes, Count: 50, Seed: 1})
	// Query before reset so scratch/index state is warm.
	reused.GreedyMaxCoverage(3, nil)
	reused.CoverageOf(nodes[:10])
	reused.Reset()
	if reused.Size() != 0 || reused.TotalNodes() != 0 {
		t.Fatalf("reset left size=%d nodes=%d", reused.Size(), reused.TotalNodes())
	}
	for _, v := range nodes {
		if reused.Coverage(v) != 0 {
			t.Fatalf("reset left coverage on %d", v)
		}
		if len(reused.IndexOf(v)) != 0 {
			t.Fatalf("reset left index entries on %d", v)
		}
	}
	e.Generate(reused, Request{Strategy: SingleRoot(), Inactive: nodes, Count: 80, Seed: 2})

	fresh := NewCollection(g)
	e2 := NewEngine(g, diffusion.IC, 1)
	defer e2.Close()
	e2.Generate(fresh, Request{Strategy: SingleRoot(), Inactive: nodes, Count: 80, Seed: 2})

	for v := int32(0); v < g.N(); v++ {
		if reused.Coverage(v) != fresh.Coverage(v) {
			t.Fatalf("coverage of %d: reused %d vs fresh %d", v, reused.Coverage(v), fresh.Coverage(v))
		}
	}
	s1, c1 := reused.GreedyMaxCoverage(5, nil)
	s2, c2 := fresh.GreedyMaxCoverage(5, nil)
	if c1 != c2 || len(s1) != len(s2) {
		t.Fatalf("greedy differs: %v/%d vs %v/%d", s1, c1, s2, c2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("greedy seed %d differs", i)
		}
	}
}

// TestCoverageOfMatchesNaive cross-checks the epoch-marked CoverageOf
// against a straightforward map-based count.
func TestCoverageOfMatchesNaive(t *testing.T) {
	coll, _ := collect(t, 2, 300, MultiRoot(RoundRandomized), false)
	S := []int32{1, 5, 9, 120, 700, 1500, 2999}
	naive := map[int32]struct{}{}
	for id := int32(0); id < int32(coll.Size()); id++ {
		for _, v := range coll.Set(id) {
			for _, s := range S {
				if v == s {
					naive[id] = struct{}{}
				}
			}
		}
	}
	if got := coll.CoverageOf(S); got != int64(len(naive)) {
		t.Fatalf("CoverageOf=%d want %d", got, len(naive))
	}
	// Repeated calls must agree (epoch bumping, no stale marks).
	for i := 0; i < 3; i++ {
		if got := coll.CoverageOf(S); got != int64(len(naive)) {
			t.Fatalf("repeat %d: CoverageOf=%d want %d", i, got, len(naive))
		}
	}
}

// BenchmarkCoverageOf measures the reusable-scratch CoverageOf on a
// realistic pool (the hot validation query of OPIM-C); it allocates
// nothing after warm-up.
func BenchmarkCoverageOf(b *testing.B) {
	coll, _ := collect(b, 0, 5000, MultiRoot(RoundRandomized), false)
	S := make([]int32, 50)
	for i := range S {
		S[i] = int32(i * 37 % 3000)
	}
	coll.CoverageOf(S) // warm the index and marks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coll.CoverageOf(S)
	}
}

// BenchmarkEngineGenerate measures engine throughput at the configured
// GOMAXPROCS worker count for counts-only and stored batches. The warm
// rows reuse one engine and collection (Reset per op); the fresh rows
// build both per op, as each new session does, so the worker arenas and
// counters a session grows show up in B/op.
func BenchmarkEngineGenerate(b *testing.B) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Name: "bench", N: 20000, AvgDeg: 3, UniformMix: 0.4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]int32, g.N())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	req := func(i int, countsOnly bool) Request {
		return Request{
			Strategy: MultiRoot(RoundRandomized), Inactive: nodes, EtaI: 1000,
			Count: 2048, Seed: uint64(i), CountsOnly: countsOnly,
		}
	}
	for _, countsOnly := range []bool{true, false} {
		mode := "stored"
		if countsOnly {
			mode = "counts"
		}
		b.Run(mode+"/warm", func(b *testing.B) {
			e := NewEngine(g, diffusion.IC, 0)
			defer e.Close()
			coll := NewCollection(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coll.Reset()
				e.Generate(coll, req(i, countsOnly))
			}
		})
		b.Run(mode+"/fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := NewEngine(g, diffusion.IC, 0)
				e.Generate(NewCollection(g), req(i, countsOnly))
				e.Close()
			}
		})
	}
}
