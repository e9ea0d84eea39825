package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestMatrixGridIsCompleteAndTagged(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(microProfile(), nil)
	r.BenchDir = dir
	var buf bytes.Buffer
	if err := r.Run("matrix", &buf); err != nil {
		t.Fatalf("matrix: %v\n%s", err, buf.String())
	}

	blob, err := os.ReadFile(benchPath(dir, "matrix"))
	if err != nil {
		t.Fatalf("BENCH_matrix.json missing: %v", err)
	}
	var rep MatrixReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.Experiment != "matrix" || rep.Profile != "micro" {
		t.Errorf("header = %q/%q, want matrix/micro", rep.Experiment, rep.Profile)
	}

	// The grid must be the full factorial: every cell present exactly once.
	want := rep.Factors.cells()
	if want == 0 || len(rep.Cells) != want {
		t.Fatalf("got %d cells, want the full factorial %d", len(rep.Cells), want)
	}
	seen := map[string]bool{}
	for _, c := range rep.Cells {
		key := fmt.Sprintf("%s|%s|%s|%d|%v|%s|%d",
			c.Dataset, c.Model, c.Policy, c.Workers, c.Reuse, c.Durability, c.SamplerVersion)
		if seen[key] {
			t.Errorf("duplicate cell %s", key)
		}
		seen[key] = true
		if c.Sessions <= 0 || c.Rounds <= 0 || c.SessionsPerSec <= 0 {
			t.Errorf("cell %s did no work: %+v", key, c)
		}
		if c.MeanSeeds <= 0 || c.MeanSpread < float64(c.Eta) {
			t.Errorf("cell %s campaign did not clear η: %+v", key, c)
		}
		if c.StepP50Ms < 0 || c.StepP99Ms < c.StepP50Ms {
			t.Errorf("cell %s quantiles out of order: %+v", key, c)
		}
		if c.ProposalsDigest == 0 {
			t.Errorf("cell %s has no proposals digest", key)
		}
	}
	groups, err := checkProposalDigests(rep.Cells)
	if err != nil {
		t.Errorf("written report fails the digest check: %v", err)
	}
	// The digest must see the proposals: groups that run different
	// models or samplers cannot all collide.
	distinct := map[uint64]bool{}
	for _, g := range groups {
		distinct[g.digest] = true
	}
	if len(distinct) < 2 {
		t.Errorf("%d groups share %d digest(s): the digest ignores the proposals", len(groups), len(distinct))
	}

	// Every factor level actually appears somewhere.
	for _, lvl := range []string{"|IC|", "|LT|", "|ASTI|", "|ASTI-4|", "|1|", "|4|", "|none|", "|wal|"} {
		found := false
		for k := range seen {
			if strings.Contains(k, lvl) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no cell at factor level %s", lvl)
		}
	}
}

func TestMatrixListedAsExperiment(t *testing.T) {
	for _, id := range Experiments() {
		if id == "matrix" {
			return
		}
	}
	t.Error("\"matrix\" not in Experiments()")
}

func TestCheckProposalDigests(t *testing.T) {
	// speedOnly builds the eight cells of one group, all with one digest.
	speedOnly := func(model string, sv int, digest uint64) []MatrixCell {
		var cells []MatrixCell
		for _, wk := range []int{1, 4} {
			for _, reuse := range []bool{true, false} {
				for _, dur := range []string{"none", "wal"} {
					cells = append(cells, MatrixCell{Dataset: "synth-nethept", Model: model, Policy: "ASTI",
						SamplerVersion: sv, Workers: wk, Reuse: reuse, Durability: dur, ProposalsDigest: digest})
				}
			}
		}
		return cells
	}
	perturbed := speedOnly("IC", 2, 0xB)
	perturbed[5].ProposalsDigest ^= 1

	for _, tc := range []struct {
		name    string
		cells   []MatrixCell
		groups  int
		wantErr string // "" = must pass
	}{
		{"one group agrees", speedOnly("IC", 1, 0xA), 1, ""},
		{"sampler versions may differ", append(speedOnly("IC", 1, 0xA), speedOnly("IC", 2, 0xB)...), 2, ""},
		{"models may differ", append(speedOnly("IC", 2, 0xB), speedOnly("LT", 2, 0xC)...), 2, ""},
		{"perturbed digest fails", append(speedOnly("IC", 1, 0xA), perturbed...), 2,
			"synth-nethept/IC/ASTI/v2: workers=4 reuse=true durability=wal"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			groups, err := checkProposalDigests(tc.cells)
			if len(groups) != tc.groups {
				t.Errorf("got %d groups, want %d", len(groups), tc.groups)
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("unexpected failure: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Error("perturbed digest passed the check")
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Errorf("error %q does not name the group and cell %q", err, tc.wantErr)
			}
		})
	}
}
