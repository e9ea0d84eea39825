package bench

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"asti/internal/diffusion"
	"asti/internal/gen"
)

// microProfile is small enough for unit tests while exercising every code
// path (multiple datasets, thresholds, batch columns, AdaptIM gate).
func microProfile() Profile {
	p := Tiny()
	p.Name = "micro"
	p.Realizations = 1
	p.Scales = map[string]float64{
		"synth-nethept":     0.05,
		"synth-epinions":    0.02,
		"synth-youtube":     0.01,
		"synth-livejournal": 0.008,
	}
	p.Thresholds = []float64{0.05, 0.1}
	p.ThresholdsSmall = []float64{0.05}
	p.Batches = []int{4}
	return p
}

func TestProfileValidation(t *testing.T) {
	p := microProfile()
	p.Realizations = 0
	if err := p.validate(); err == nil {
		t.Error("realizations=0 accepted")
	}
	p = microProfile()
	p.Epsilon = 1
	if err := p.validate(); err == nil {
		t.Error("epsilon=1 accepted")
	}
	p = microProfile()
	p.Thresholds = nil
	if err := p.validate(); err == nil {
		t.Error("empty thresholds accepted")
	}
	p = microProfile()
	p.Scales["synth-nethept"] = 2
	if err := p.validate(); err == nil {
		t.Error("scale > 1 accepted")
	}
	for _, mk := range []func() Profile{Quick, Full, Tiny} {
		if err := mk().validate(); err != nil {
			t.Errorf("built-in profile invalid: %v", err)
		}
	}
}

func TestProfileAccessors(t *testing.T) {
	p := Quick()
	if got := p.thresholdsFor("synth-livejournal"); len(got) != len(p.ThresholdsSmall) {
		t.Error("livejournal must use the small threshold sweep")
	}
	if got := p.thresholdsFor("synth-nethept"); len(got) != len(p.Thresholds) {
		t.Error("nethept must use the standard sweep")
	}
	if p.scaleFor("unknown-dataset") != 1 {
		t.Error("unknown dataset scale must default to 1")
	}
}

func TestSkipCell(t *testing.T) {
	p := Quick() // AdaptIMMaxFrac = 0.1
	vanilla := policySpec{name: "AdaptIM", vanilla: true}
	if p.skipCell(vanilla, 0.1) {
		t.Error("threshold at the cap must run")
	}
	if !p.skipCell(vanilla, 0.15) {
		t.Error("threshold above the cap must be skipped")
	}
	if p.skipCell(policySpec{name: "ASTI"}, 0.2) {
		t.Error("cap must only affect the vanilla column")
	}
	p.AdaptIMMaxFrac = 0
	if p.skipCell(vanilla, 0.9) {
		t.Error("zero cap must disable skipping")
	}
}

func TestColumns(t *testing.T) {
	p := microProfile()
	p.AdaptIMDatasets = map[string]bool{"synth-nethept": true}
	cols := p.columns("synth-nethept")
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.name
	}
	want := "ASTI ASTI-4 AdaptIM ATEUC"
	if strings.Join(names, " ") != want {
		t.Fatalf("columns = %v, want %s", names, want)
	}
	cols = p.columns("synth-youtube")
	for _, c := range cols {
		if c.name == "AdaptIM" {
			t.Fatal("AdaptIM leaked past the dataset gate")
		}
	}
}

// TestSweepShape runs a micro sweep end-to-end and verifies structural
// invariants: every cell filled, adaptive policies never miss, the
// non-adaptive baseline records per-realization data of equal length.
func TestSweepShape(t *testing.T) {
	p := microProfile()
	s, err := RunSweep(p, diffusion.IC, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Datasets) != 4 {
		t.Fatalf("datasets = %v", s.Datasets)
	}
	for _, ds := range s.Datasets {
		for _, f := range p.thresholdsFor(ds) {
			for _, col := range p.columns(ds) {
				c := s.CellFor(ds, f, col.name)
				if p.skipCell(col, f) {
					if c != nil {
						t.Fatalf("cell %s %v %s should have been skipped", ds, f, col.name)
					}
					continue
				}
				if c == nil {
					t.Fatalf("missing cell %s %v %s", ds, f, col.name)
				}
				if len(c.Seeds) != p.Realizations || len(c.Spreads) != p.Realizations || len(c.Seconds) != p.Realizations {
					t.Fatalf("%s %v %s: ragged series", ds, f, col.name)
				}
				if !col.nonAdapt {
					if c.Misses != 0 {
						t.Fatalf("%s %v %s: adaptive policy recorded misses", ds, f, col.name)
					}
					for _, sp := range c.Spreads {
						if int64(sp) < c.Eta {
							t.Fatalf("%s %v %s: adaptive spread %v below η=%d", ds, f, col.name, sp, c.Eta)
						}
					}
				}
				if c.SetsGenerated <= 0 && col.name != "ATEUC" {
					t.Fatalf("%s %v %s: no sets generated", ds, f, col.name)
				}
			}
		}
	}
	if s.CellFor("nope", 0.05, "ASTI") != nil || s.CellFor("synth-nethept", 0.99, "ASTI") != nil {
		t.Fatal("CellFor must return nil for unknown keys")
	}
}

// TestReportsRender: every report family renders without error and
// mentions each dataset.
func TestReportsRender(t *testing.T) {
	p := microProfile()
	ic, err := RunSweep(p, diffusion.IC, nil)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := RunSweep(p, diffusion.LT, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ic.ReportSeeds(&buf)
	ic.ReportTimes(&buf)
	ic.ReportSpreads(&buf)
	ic.ReportTrace(&buf)
	ReportTable3(&buf, ic, lt)
	out := buf.String()
	for _, ds := range ic.Datasets {
		if !strings.Contains(out, ds) {
			t.Errorf("report omits dataset %s", ds)
		}
	}
	for _, must := range []string{"Figure 4", "Figure 5", "Figure 9", "Figure 10", "Table 3"} {
		if !strings.Contains(out, must) {
			t.Errorf("report missing header %q", must)
		}
	}
}

// TestRunnerDispatch: each experiment id runs on the micro profile; the
// sweep cache prevents recomputation (checked indirectly via identical
// pointer).
func TestRunnerDispatch(t *testing.T) {
	r := NewRunner(microProfile(), nil)
	var buf bytes.Buffer
	for _, id := range []string{"table2", "fig3", "ablation-rounding"} {
		buf.Reset()
		if err := r.Run(id, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
	// The last two are the ids folded into "matrix".
	for _, id := range []string{"not-an-experiment", "serve-throughput", "parallel-speedup"} {
		if err := r.Run(id, &buf); err == nil {
			t.Fatalf("unknown experiment %q accepted", id)
		}
	}
	s1, err := r.sweep(diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.sweep(diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("sweep cache miss")
	}
}

// TestExperimentsPaperOrder pins the id list `-exp all` walks.
func TestExperimentsPaperOrder(t *testing.T) {
	want := []string{
		"table2", "fig3",
		"fig4", "fig5", "fig6", "fig7",
		"table3", "fig8", "fig9", "fig10",
		"heuristics", "significance",
		"ablation-rounding", "ablation-batch", "ablation-truncated",
		"ablation-scaling", "ablation-adaptivity", "ablation-vaswani",
		"ablation-weighting", "ablation-imsolvers",
		"serve-recovery", "trim",
		"matrix",
		"export-ic", "export-lt", "export-csv-ic", "export-csv-lt",
	}
	if got := Experiments(); !slices.Equal(got, want) {
		t.Errorf("Experiments() = %v\nwant %v", got, want)
	}
}

// TestRunnerSweepExperiments exercises the sweep-backed experiment ids on
// the micro profile.
func TestRunnerSweepExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiments take seconds")
	}
	r := NewRunner(microProfile(), nil)
	var buf bytes.Buffer
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "fig9", "fig10", "table3", "ablation-batch", "ablation-truncated", "ablation-scaling", "export-ic", "export-lt"} {
		buf.Reset()
		if err := r.Run(id, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

// TestFig8AdaptiveAlwaysClears: the defining contrast of Figure 8 — on
// every realization the adaptive spread clears η.
func TestFig8AdaptiveAlwaysClears(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 runs 20 realizations")
	}
	r := NewRunner(microProfile(), nil)
	var buf bytes.Buffer
	if err := r.Run("fig8", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ASTI spread") {
		t.Fatal("fig8 output malformed")
	}
}

func TestEtaFor(t *testing.T) {
	g, err := gen.Dataset("synth-nethept")
	if err != nil {
		t.Fatal(err)
	}
	gg, err := g.Generate(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if etaFor(gg, 0) != 1 {
		t.Error("etaFor must clamp to 1")
	}
	if etaFor(gg, 2) != int64(gg.N()) {
		t.Error("etaFor must clamp to n")
	}
}

// TestWriteJSON: the export round-trips through encoding/json and covers
// every cell once.
func TestWriteJSON(t *testing.T) {
	p := microProfile()
	s, err := RunSweep(p, diffusion.IC, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Model string `json:"model"`
		Cells []struct {
			Dataset string    `json:"dataset"`
			Policy  string    `json:"policy"`
			Seeds   []float64 `json:"seeds"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Model != "IC" {
		t.Fatalf("model %q", decoded.Model)
	}
	want := 0
	for _, ds := range s.Datasets {
		for _, f := range p.thresholdsFor(ds) {
			for _, col := range p.columns(ds) {
				if !p.skipCell(col, f) {
					want++
				}
			}
		}
	}
	if len(decoded.Cells) != want {
		t.Fatalf("exported %d cells, want %d", len(decoded.Cells), want)
	}
	for _, c := range decoded.Cells {
		if c.Dataset == "" || c.Policy == "" || len(c.Seeds) != p.Realizations {
			t.Fatalf("malformed cell %+v", c)
		}
	}
}

func TestProfileWorkersValidation(t *testing.T) {
	p := microProfile()
	p.Workers = -1
	if err := p.validate(); err == nil {
		t.Error("negative workers accepted")
	}
	p.Workers = 4
	if err := p.validate(); err != nil {
		t.Errorf("workers=4 rejected: %v", err)
	}
}
