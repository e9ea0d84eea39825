package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"asti/internal/diffusion"
	"asti/internal/stats"
)

// figureLabel maps a model to the paper's figure numbers for the sweep
// family (seeds, time, spread).
func seedsFigure(model diffusion.Model) string {
	if model == diffusion.IC {
		return "Figure 4"
	}
	return "Figure 6"
}

func timeFigure(model diffusion.Model) string {
	if model == diffusion.IC {
		return "Figure 5"
	}
	return "Figure 7"
}

// columnsOf lists the policy columns present in a sweep row, in the
// paper's order.
func (s *Sweep) columnsOf(dataset string) []string {
	var names []string
	for _, col := range s.Profile.columns(dataset) {
		names = append(names, col.name)
	}
	return names
}

// fracs returns the sorted thresholds of a dataset's sweep.
func (s *Sweep) fracs(dataset string) []float64 {
	var fs []float64
	for f := range s.Cells[dataset] {
		fs = append(fs, f)
	}
	sort.Float64s(fs)
	return fs
}

// ReportSeeds prints the "number of seeds vs threshold" panels (paper
// Figures 4 and 6, one sub-table per dataset).
func (s *Sweep) ReportSeeds(w io.Writer) error {
	fmt.Fprintf(w, "# %s — number of seed nodes vs threshold, %s model (mean over %d realizations)\n",
		seedsFigure(s.Model), s.Model, s.Profile.Realizations)
	return s.report(w, func(c *Cell) string { return fmt.Sprintf("%.1f", stats.Mean(c.Seeds)) })
}

// ReportTimes prints the "running time vs threshold" panels (paper
// Figures 5 and 7).
func (s *Sweep) ReportTimes(w io.Writer) error {
	fmt.Fprintf(w, "# %s — running time (seconds) vs threshold, %s model (mean over %d realizations)\n",
		timeFigure(s.Model), s.Model, s.Profile.Realizations)
	return s.report(w, func(c *Cell) string { return fmt.Sprintf("%.3g", stats.Mean(c.Seconds)) })
}

// ReportSpreads prints the "spread vs threshold" panels (paper Figure 9,
// Appendix C; IC model in the paper, both models here).
func (s *Sweep) ReportSpreads(w io.Writer) error {
	fmt.Fprintf(w, "# Figure 9 — influence spread vs threshold, %s model (mean over %d realizations)\n",
		s.Model, s.Profile.Realizations)
	return s.report(w, func(c *Cell) string { return fmt.Sprintf("%.0f", stats.Mean(c.Spreads)) })
}

// report renders one value per cell across all datasets and thresholds.
func (s *Sweep) report(w io.Writer, value func(*Cell) string) error {
	for _, ds := range s.Datasets {
		fmt.Fprintf(w, "\n## %s (η column is absolute threshold)\n", ds)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "eta/n\teta")
		cols := s.columnsOf(ds)
		for _, c := range cols {
			fmt.Fprintf(tw, "\t%s", c)
		}
		fmt.Fprintln(tw)
		for _, f := range s.fracs(ds) {
			row := s.Cells[ds][f]
			var eta int64
			for _, c := range row {
				eta = c.Eta
				break
			}
			fmt.Fprintf(tw, "%.2f\t%d", f, eta)
			for _, cname := range cols {
				c := row[cname]
				if c == nil {
					fmt.Fprint(tw, "\t-")
					continue
				}
				val := value(c)
				if c.Misses > 0 {
					val += fmt.Sprintf(" (miss %d/%d)", c.Misses, len(c.Spreads))
				}
				fmt.Fprintf(tw, "\t%s", val)
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// ReportTable3 prints the improvement ratio of ASTI over ATEUC per
// threshold (paper Table 3): (seeds_ATEUC − seeds_ASTI)/seeds_ASTI, with
// N/A whenever ATEUC missed the threshold on some realization — the
// paper's footnote semantics.
func ReportTable3(w io.Writer, ic, lt *Sweep) error {
	fmt.Fprintln(w, "# Table 3 — improvement ratio of ASTI over ATEUC (N/A: ATEUC missed η on some realization)")
	for _, s := range []*Sweep{ic, lt} {
		fmt.Fprintf(w, "\n## %s model\n", s.Model)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "dataset")
		// Use the union threshold header of the standard sweep.
		for _, f := range s.Profile.Thresholds {
			fmt.Fprintf(tw, "\t%.2f", f)
		}
		fmt.Fprintln(tw)
		for _, ds := range s.Datasets {
			fmt.Fprintf(tw, "%s", ds)
			for _, f := range s.Profile.thresholdsFor(ds) {
				asti := s.CellFor(ds, f, "ASTI")
				ateuc := s.CellFor(ds, f, "ATEUC")
				switch {
				case asti == nil || ateuc == nil:
					fmt.Fprint(tw, "\t-")
				case ateuc.Misses > 0:
					fmt.Fprint(tw, "\tN/A")
				default:
					ratio := (stats.Mean(ateuc.Seeds) - stats.Mean(asti.Seeds)) / stats.Mean(asti.Seeds) * 100
					fmt.Fprintf(tw, "\t%.1f%%", ratio)
				}
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// ReportTrace prints the per-seed marginal truncated spread series of the
// first realization at the largest threshold (paper Figure 10, Appendix D).
func (s *Sweep) ReportTrace(w io.Writer) error {
	fmt.Fprintf(w, "# Figure 10 — realized marginal spread per seed index, %s model (largest threshold, first realization)\n", s.Model)
	for _, ds := range s.Datasets {
		fs := s.fracs(ds)
		if len(fs) == 0 {
			continue
		}
		c := s.CellFor(ds, fs[len(fs)-1], "ASTI")
		if c == nil {
			continue
		}
		fmt.Fprintf(w, "\n## %s (η/n=%.2f, η=%d)\n", ds, c.EtaFrac, c.Eta)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "seed index\tmarginal spread")
		for i, m := range c.TraceMarginals {
			fmt.Fprintf(tw, "%d\t%d\n", i+1, m)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
