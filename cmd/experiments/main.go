// Command experiments regenerates the paper's tables and figures on the
// synthetic scale-model datasets.
//
// Usage:
//
//	experiments -exp fig4                # one experiment, quick profile
//	experiments -exp all -profile full   # the paper's full protocol
//	experiments -exp table3 -realizations 10
//	experiments -exp export-csv-ic -o sweep.csv
//
// Output is aligned text with the same rows/series as the paper's
// evaluation (figure experiments also render ASCII charts);
// docs/ARCHITECTURE.md maps each paper figure and table to its id.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"asti/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp          = fs.String("exp", "all", "experiment id: "+strings.Join(bench.Experiments(), ", ")+", or all")
		profile      = fs.String("profile", "quick", "profile: quick, full, or tiny")
		realizations = fs.Int("realizations", 0, "override the profile's realization count")
		epsilon      = fs.Float64("epsilon", 0, "override the approximation parameter ε")
		scale        = fs.Float64("scale", 0, "override every dataset's generation scale (0 = profile default)")
		workers      = fs.Int("workers", 0, "sampling-engine workers (0 = all cores, 1 = sequential; selections are identical either way)")
		reuse        = fs.Bool("reuse", true, "carry sampling pools across adaptive rounds (speed only; selections are identical)")
		benchOut     = fs.String("bench-out", "", "directory to write machine-readable BENCH_<experiment>.json perf results into (empty = don't)")
		out          = fs.String("o", "", "write the report to a file instead of stdout")
		quiet        = fs.Bool("quiet", false, "suppress per-cell progress lines on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var p bench.Profile
	switch *profile {
	case "quick":
		p = bench.Quick()
	case "full":
		p = bench.Full()
	case "tiny":
		p = bench.Tiny()
	default:
		return fmt.Errorf("unknown profile %q (quick, full, tiny)", *profile)
	}
	if *realizations > 0 {
		p.Realizations = *realizations
	}
	if *epsilon > 0 {
		p.Epsilon = *epsilon
	}
	if *scale > 0 {
		for name := range p.Scales {
			p.Scales[name] = *scale
		}
	}
	if *workers > 0 {
		p.Workers = *workers
	}
	p.DisablePoolReuse = !*reuse

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintf(stderr, "experiments: closing %s: %v\n", *out, cerr)
			}
		}()
		w = f
	}

	var progress io.Writer
	if !*quiet {
		progress = stderr
	}
	r := bench.NewRunner(p, progress)
	r.BenchDir = *benchOut
	return r.Run(*exp, w)
}
