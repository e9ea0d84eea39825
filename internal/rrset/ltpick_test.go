package rrset

import (
	"fmt"
	"math"
	"testing"

	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/rng"
)

// scanPick is the LT edge pick as a linear cumulative-weight scan: the
// first i whose float64 running sum of the block's weights exceeds x, or
// -1 when the residual mass wins. It is the reference ltUniformPick must
// reproduce exactly.
func scanPick(x float64, in []graph.InEdge) int {
	var acc float64
	for i := range in {
		acc += float64(in[i].P)
		if x < acc {
			return i
		}
	}
	return -1
}

// uniformBlock returns a block of d edges of weight p.
func uniformBlock(d int, p float32) []graph.InEdge {
	in := make([]graph.InEdge, d)
	for i := range in {
		in[i] = graph.InEdge{Src: int32(i), P: p}
	}
	return in
}

// TestLTUniformPickMatchesScan sweeps block sizes 1…2000 against the
// scan, with the weighted-cascade weight float32(1/d), arbitrary uniform
// weights (p·d below, near and above 1) and the degenerate p ∈ {0, 1},
// at random x and at x on and beside the cumulative boundaries i·p —
// exactly, one float64 ulp either side, and the nearest points of the
// 2⁻⁵³ grid Float64 draws from.
func TestLTUniformPickMatchesScan(t *testing.T) {
	r := rng.New(0x17)
	check := func(x float64, p float32, in []graph.InEdge) {
		if x < 0 || x >= 1 {
			return // outside Float64's range
		}
		want := scanPick(x, in)
		if got := ltUniformPick(x, float64(p), len(in)); got != want {
			t.Fatalf("d=%d p=%g x=%v: pick %d, scan %d", len(in), p, x, got, want)
		}
	}
	const grid = 1.0 / (1 << 53)
	for d := 1; d <= 2000; d++ {
		ps := []float32{
			float32(1 / float64(d)),                   // weighted cascade
			float32(r.Float64() / float64(d)),         // p·d < 1: residual mass
			float32((0.5 + r.Float64()) / float64(d)), // p·d around 1
			float32(r.Float64()),                      // arbitrary
			0, 1,
		}
		for _, p := range ps {
			in := uniformBlock(d, p)
			for k := 0; k < 8; k++ {
				check(r.Float64(), p, in)
			}
			is := []int{0, 1, 2, d / 2, d - 1, d, d + 1, r.Intn(d + 1)}
			for _, i := range is {
				b := float64(i) * float64(p)
				check(b, p, in)
				check(math.Nextafter(b, 0), p, in)
				check(math.Nextafter(b, 2), p, in)
				k := math.Floor(b / grid)
				for _, j := range []float64{k - 1, k, k + 1, k + 2} {
					check(j*grid, p, in)
				}
			}
		}
	}
}

// refLT is the reference LT reverse walk: roots by Int31n rejection
// against the mask and duplicates (the stream MRRStable and RRStable
// reproduce), then one Float64 per dequeued node resolved by the linear
// scan on every block. It returns the set in discovery order with the
// edges it examined and the draws it made.
func refLT(g *graph.Graph, k int, active *bitset.Set, r *rng.Source) (set []int32, edges, draws int64) {
	visited := make([]bool, g.N())
	for len(set) < k {
		c := r.Int31n(g.N())
		if (active != nil && active.Get(c)) || visited[c] {
			continue
		}
		visited[c] = true
		set = append(set, c)
	}
	for qi := 0; qi < len(set); qi++ {
		in := g.InEdges(set[qi])
		if len(in) == 0 {
			continue
		}
		draws++
		ci := scanPick(r.Float64(), in)
		if ci < 0 {
			edges += int64(len(in))
			continue
		}
		edges += int64(ci + 1)
		u := in[ci].Src
		if visited[u] || (active != nil && active.Get(u)) {
			continue
		}
		visited[u] = true
		set = append(set, u)
	}
	return set, edges, draws
}

// ltTestGraphs returns a weighted-cascade graph (every block uniform) and
// a ValidateLT-valid graph mixing random non-uniform blocks with uniform
// ones whose mass falls short of 1.
func ltTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	base, err := gen.PowerLaw(gen.PowerLawConfig{Name: "lt-pick", N: 3000, AvgDeg: 6, UniformMix: 0.5, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := gen.PowerLaw(gen.PowerLawConfig{Name: "lt-pick", N: 3000, AvgDeg: 6, UniformMix: 0.5, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	wc.ApplyWeightedCascade()

	r := rng.New(5)
	b := graph.NewBuilder(base.N())
	for v := int32(0); v < base.N(); v++ {
		src := base.InNeighbors(v)
		mass := r.Float64()
		if v%3 == 0 {
			for _, u := range src {
				b.AddEdge(u, v, mass/float64(len(src)))
			}
			continue
		}
		w := make([]float64, len(src))
		var sum float64
		for i := range w {
			w[i] = r.Float64() + 0.01
			sum += w[i]
		}
		for i, u := range src {
			b.AddEdge(u, v, mass*w[i]/sum)
		}
	}
	mixed, err := b.Build("lt-mixed", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffusion.ValidateLT(mixed); err != nil {
		t.Fatal(err)
	}
	var uniform, other int
	for v := int32(0); v < mixed.N(); v++ {
		if mixed.InDegree(v) > 1 {
			if mixed.InUniform(v) {
				uniform++
			} else {
				other++
			}
		}
	}
	if uniform == 0 || other == 0 {
		t.Fatalf("mixed graph has %d uniform and %d non-uniform blocks; want both", uniform, other)
	}
	return map[string]*graph.Graph{"weighted-cascade": wc, "mixed": mixed}
}

// TestLTSamplerMatchesScanWalk checks that both stream contracts' LT
// samplers produce, set for set, the reference walk's members (in
// order), examined edges and draws — single- and multi-root, with and
// without an active mask.
func TestLTSamplerMatchesScanWalk(t *testing.T) {
	for name, g := range ltTestGraphs(t) {
		active := bitset.New(int(g.N()))
		var inactive []int32
		for v := int32(0); v < g.N(); v++ {
			if v%7 == 3 {
				active.Set(v)
			} else {
				inactive = append(inactive, v)
			}
		}
		for _, mask := range []*bitset.Set{nil, active} {
			in := inactive
			if mask == nil {
				in = allNodes(g.N())
			}
			for _, ver := range []Version{V1, V2} {
				s := NewSamplerVersion(g, diffusion.LT, ver)
				var edges, draws int64
				for i := 0; i < 400; i++ {
					k := 1 + i%5
					seed := rng.SplitMix64(0x17 + uint64(i))
					want, e, d := refLT(g, k, mask, rng.New(seed))
					var got []int32
					if k == 1 {
						got = s.RRStable(mask, rng.New(seed), nil)
					} else {
						got = s.MRRStable(k, in, mask, rng.New(seed), nil)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s v%d mask=%v set %d: got %v, reference %v", name, ver, mask != nil, i, got, want)
					}
					edges += e
					draws += d
				}
				if s.EdgesExamined != edges || s.RngDraws != draws {
					t.Fatalf("%s v%d mask=%v: edges/draws %d/%d, reference %d/%d",
						name, ver, mask != nil, s.EdgesExamined, s.RngDraws, edges, draws)
				}
			}
		}
	}
}
