package bench

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"asti/internal/adaptive"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/rng"
)

// ablationScaling validates the shape of Theorem 3.11's complexity claim,
// O(η(m+n)ε⁻² ln n): running ASTI on growing scales of one dataset at a
// fixed η/n, the normalized cost time/(η·(m+n)·ln n) should stay within a
// small constant band instead of growing with n.
func (r *Runner) ablationScaling(w io.Writer) error {
	spec, err := gen.Dataset("synth-nethept")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Ablation — time scaling vs Theorem 3.11: normalized cost time/(η·(m+n)·ln n) should be flat")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scale\tn\tm\teta\tseconds\tnormalized (×1e12)")
	var ratios []float64
	for _, scale := range []float64{0.1, 0.2, 0.4, 0.8} {
		g, err := spec.Generate(scale)
		if err != nil {
			return err
		}
		eta := etaFor(g, 0.05)
		pol := r.Profile.trimPolicy(1, true)
		φ := diffusion.SampleRealization(g, diffusion.IC, rng.New(r.Profile.Seed))
		t0 := time.Now()
		_, err = adaptive.Run(g, diffusion.IC, eta, pol, φ, rng.New(r.Profile.Seed+1))
		pol.Close()
		if err != nil {
			return err
		}
		secs := time.Since(t0).Seconds()
		denom := float64(eta) * float64(g.M()+int64(g.N())) * math.Log(float64(g.N()))
		norm := secs / denom * 1e12
		ratios = append(ratios, norm)
		fmt.Fprintf(tw, "%.2f\t%d\t%d\t%d\t%.3g\t%.2f\n", scale, g.N(), g.M(), eta, secs, norm)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	min, max := ratios[0], ratios[0]
	for _, x := range ratios[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	fmt.Fprintf(w, "normalized-cost spread max/min = %.2f (theorem-consistent when O(1); super-linear growth would trend with scale)\n", max/min)
	return nil
}
