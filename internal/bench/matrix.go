package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/hdr"
	"asti/internal/rng"
	"asti/internal/serve"
)

// MatrixFactors enumerates the factor levels of one full-factorial sweep.
// The report carries them alongside the cells so consumers can verify the
// grid is complete (len(Cells) == the product of the level counts) without
// re-deriving the profile's configuration.
type MatrixFactors struct {
	Datasets        []string `json:"datasets"`
	Models          []string `json:"models"`
	Policies        []string `json:"policies"`
	Workers         []int    `json:"workers"`
	Reuse           []bool   `json:"reuse"`
	Durability      []string `json:"durability"`
	SamplerVersions []int    `json:"sampler_versions"`
}

// cells returns the grid size (the product of the level counts).
func (f MatrixFactors) cells() int {
	return len(f.Datasets) * len(f.Models) * len(f.Policies) * len(f.Workers) *
		len(f.Reuse) * len(f.Durability) * len(f.SamplerVersions)
}

// MatrixCell is one factorial cell: the complete factor tuple it was run
// at, then what the sessions did there. Every cell is self-describing —
// slicing the matrix along any factor needs no positional bookkeeping.
type MatrixCell struct {
	// The factor tuple.
	Dataset        string `json:"dataset"`
	Model          string `json:"model"`
	Policy         string `json:"policy"`
	Workers        int    `json:"workers"`
	Reuse          bool   `json:"reuse"`
	Durability     string `json:"durability"`
	SamplerVersion int    `json:"sampler_version"`

	// The measurements.
	Eta            int64   `json:"eta"`
	Sessions       int     `json:"sessions"`
	Rounds         int64   `json:"rounds"`
	MeanSeeds      float64 `json:"mean_seeds"`
	MeanSpread     float64 `json:"mean_spread"`
	WallSeconds    float64 `json:"wall_seconds"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	StepP50Ms      float64 `json:"step_p50_ms"`
	StepP99Ms      float64 `json:"step_p99_ms"`
	// ProposalsDigest is FNV-64a over every session's proposed seeds, in
	// session order: equal digests mean equal proposals.
	ProposalsDigest uint64 `json:"proposals_digest"`
}

// MatrixReport is the machine-readable result of the "matrix" experiment
// (BENCH_matrix.json).
type MatrixReport struct {
	Experiment string             `json:"experiment"`
	Profile    string             `json:"profile"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Scales     map[string]float64 `json:"scales"`
	Factors    MatrixFactors      `json:"factors"`
	Cells      []MatrixCell       `json:"cells"`
}

// matrixScaleCap bounds the generation scale the matrix runs at. The
// matrix buys configuration coverage (does every factor tuple run, and
// which factor moved), not dataset depth — the single-factor experiments
// own depth — so a quick/full profile's scale-1 graphs would only
// multiply a 64–384 cell sweep's wall clock for no extra information.
const matrixScaleCap = 0.2

// matrixScaleFor is the profile's scale for a dataset, capped for the
// matrix.
func (r *Runner) matrixScaleFor(name string) float64 {
	if s := r.Profile.scaleFor(name); s < matrixScaleCap {
		return s
	}
	return matrixScaleCap
}

// matrixFactors sizes the grid for a profile. The quick/tiny grid keeps
// one dataset and the two TRIM policies so the full factorial stays a
// CI-friendly 64 cells; the full profile adds a second dataset and the
// AdaptIM baseline for 384 cells. Every grid runs the sequential and a
// fanned-out engine (Workers 1 and 4), which the digest check needs.
func matrixFactors(p Profile) MatrixFactors {
	f := MatrixFactors{
		Datasets:        []string{"synth-nethept"},
		Models:          []string{"IC", "LT"},
		Policies:        []string{"ASTI", "ASTI-4"},
		Workers:         []int{1, 4},
		Reuse:           []bool{true, false},
		Durability:      []string{"none", "wal"},
		SamplerVersions: []int{1, 2},
	}
	if p.Name == "full" {
		f.Datasets = append(f.Datasets, "synth-epinions")
		f.Policies = append(f.Policies, "AdaptIM")
	}
	return f
}

// matrix runs the full-factorial sweep: dataset × model × policy ×
// workers × pool reuse × durability × sampler version, every cell driving
// the same short session campaign through serve.Manager (WAL cells
// journal into a throwaway directory). The point is coverage, not depth —
// one bench that proves every factor combination the service accepts
// actually runs, and pins where each factor's cost shows up. Workers,
// reuse and durability are speed-only factors, so the run fails unless
// every cell that differs only in them proposed the same seeds (see
// checkProposalDigests).
func (r *Runner) matrix(w io.Writer) error {
	factors := matrixFactors(r.Profile)

	reg := serve.NewRegistry()
	graphs := map[string]*graph.Graph{}
	scales := map[string]float64{}
	for _, name := range factors.Datasets {
		spec, err := gen.Dataset(name)
		if err != nil {
			return err
		}
		scales[name] = r.matrixScaleFor(name)
		g, err := spec.Generate(scales[name])
		if err != nil {
			return err
		}
		if err := reg.RegisterGraph(name, g); err != nil {
			return err
		}
		graphs[name] = g
	}

	fmt.Fprintf(w, "# Matrix — full factorial over %d cells (profile %q): dataset × model × policy × workers × reuse × durability × sampler\n",
		factors.cells(), r.Profile.Name)
	rep := &MatrixReport{
		Experiment: "matrix",
		Profile:    r.Profile.Name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scales:     scales,
		Factors:    factors,
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tmodel\tpolicy\twk\treuse\tdur\tsv\tseeds\trounds\tsess/s\tp50\tp99")
	for _, ds := range factors.Datasets {
		for _, model := range factors.Models {
			for _, pol := range factors.Policies {
				for _, wk := range factors.Workers {
					for _, reuse := range factors.Reuse {
						for _, dur := range factors.Durability {
							for _, sv := range factors.SamplerVersions {
								cell, err := r.matrixCell(reg, graphs[ds], ds, model, pol, wk, reuse, dur, sv)
								if err != nil {
									return fmt.Errorf("bench: matrix cell %s/%s/%s/w%d/reuse=%v/%s/v%d: %w",
										ds, model, pol, wk, reuse, dur, sv, err)
								}
								rep.Cells = append(rep.Cells, cell)
								fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%v\t%s\t%d\t%.1f\t%d\t%.1f\t%.2fms\t%.2fms\n",
									ds, model, pol, wk, reuse, dur, sv,
									cell.MeanSeeds, cell.Rounds, cell.SessionsPerSec,
									cell.StepP50Ms, cell.StepP99Ms)
							}
						}
					}
				}
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	groups, err := checkProposalDigests(rep.Cells)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "proposals digest per speed-only group (cells varying only workers × reuse × durability):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "group\tcells\tdigest")
	for _, g := range groups {
		fmt.Fprintf(tw, "%s\t%d\t%016x\n", g.key, g.cells, g.digest)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if r.BenchDir != "" {
		if err := writeBenchFile(r.BenchDir, "matrix", rep); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d cells)\n", benchPath(r.BenchDir, "matrix"), len(rep.Cells))
	}
	return nil
}

// matrixSessions is how many campaigns each cell drives.
const matrixSessions = 2

// matrixCell drives matrixSessions campaigns at one factor tuple through
// a fresh Manager and reduces them to a MatrixCell.
func (r *Runner) matrixCell(reg *serve.Registry, g *graph.Graph,
	ds, model, pol string, wk int, reuse bool, dur string, sv int) (MatrixCell, error) {
	cell := MatrixCell{
		Dataset: ds, Model: model, Policy: pol, Workers: wk,
		Reuse: reuse, Durability: dur, SamplerVersion: sv,
		Sessions: matrixSessions,
	}

	var opts []serve.ManagerOption
	if dur == "wal" {
		dir, err := os.MkdirTemp("", "asti-matrix-*")
		if err != nil {
			return cell, err
		}
		defer os.RemoveAll(dir)
		opts = append(opts, serve.WithJournalDir(dir))
	}
	mgr := serve.NewManager(reg, 0, opts...)
	defer mgr.CloseAll()

	m := diffusion.IC
	if model == "LT" {
		m = diffusion.LT
	}
	cell.Eta = etaFor(g, 0.1)
	cfg := serve.Config{
		Dataset: ds, Policy: pol, Model: m, Eta: cell.Eta,
		Epsilon: r.Profile.Epsilon, Workers: wk,
		MaxSetsPerRound:  r.Profile.MaxSetsPerRound,
		DisablePoolReuse: !reuse, SamplerVersion: sv,
	}

	var lats []time.Duration
	var seeds, spread float64
	digest := fnv.New64a()
	t0 := time.Now()
	for i := 0; i < matrixSessions; i++ {
		c := cfg
		c.Seed = r.Profile.Seed + uint64(i)
		s, err := mgr.Create(c)
		if err != nil {
			return cell, err
		}
		φ := diffusion.SampleRealization(g, m, rng.New(r.Profile.Seed^0x3A781+uint64(i)))
		var proposed []int32
		stepLats, err := driveSessionInto(s, φ, &proposed)
		if err != nil {
			mgr.Close(s.ID())
			return cell, err
		}
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(proposed)))
		for _, v := range proposed {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		digest.Write(b)
		st := s.Status()
		seeds += float64(st.Seeds)
		spread += float64(st.Activated)
		cell.Rounds += int64(st.Round)
		lats = append(lats, stepLats...)
		if err := mgr.Close(s.ID()); err != nil {
			return cell, err
		}
	}
	wall := time.Since(t0)

	cell.MeanSeeds = seeds / matrixSessions
	cell.MeanSpread = spread / matrixSessions
	cell.WallSeconds = wall.Seconds()
	cell.SessionsPerSec = matrixSessions / wall.Seconds()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	cell.StepP50Ms = float64(hdr.QuantileDurations(lats, 0.50)) / float64(time.Millisecond)
	cell.StepP99Ms = float64(hdr.QuantileDurations(lats, 0.99)) / float64(time.Millisecond)
	cell.ProposalsDigest = digest.Sum64()
	return cell, nil
}

// digestGroup is one set of matrix cells that differ only in the
// speed-only factors, and the proposals digest they share.
type digestGroup struct {
	key    string // dataset/model/policy/sampler version
	cells  int
	digest uint64
}

// checkProposalDigests groups cells by (dataset, model, policy, sampler
// version) — the factors that may change proposals — and fails, naming
// each offending group, unless every cell of a group has one digest.
// Workers, reuse and durability are speed-only under the determinism
// contract; sampler versions draw different streams, so they split groups.
func checkProposalDigests(cells []MatrixCell) ([]digestGroup, error) {
	var groups []digestGroup
	index := map[string]int{}
	var bad []string
	for _, c := range cells {
		key := fmt.Sprintf("%s/%s/%s/v%d", c.Dataset, c.Model, c.Policy, c.SamplerVersion)
		i, ok := index[key]
		if !ok {
			i = len(groups)
			index[key] = i
			groups = append(groups, digestGroup{key: key, digest: c.ProposalsDigest})
		}
		groups[i].cells++
		if c.ProposalsDigest != groups[i].digest {
			bad = append(bad, fmt.Sprintf("%s: workers=%d reuse=%v durability=%s proposed %016x, first cell %016x",
				key, c.Workers, c.Reuse, c.Durability, c.ProposalsDigest, groups[i].digest))
		}
	}
	if len(bad) > 0 {
		return groups, fmt.Errorf("bench: speed-only factors changed proposals:\n  %s", strings.Join(bad, "\n  "))
	}
	return groups, nil
}

// driveSessionInto plays s to completion against φ, appending every
// proposed seed to *seeds, and returns the latency of every step (one
// NextBatch + one Observe).
func driveSessionInto(s *serve.Session, φ *diffusion.Realization, seeds *[]int32) ([]time.Duration, error) {
	mirror := bitset.New(int(φ.Graph().N()))
	var lats []time.Duration
	for {
		t0 := time.Now()
		batch, err := s.NextBatch()
		step := time.Since(t0)
		if err != nil {
			return nil, err
		}
		*seeds = append(*seeds, batch...)
		// The client-side world simulation is excluded from the step
		// latency: in the field it is the campaign, not the service.
		newly := φ.Spread(batch, mirror)
		for _, v := range newly {
			mirror.Set(v)
		}
		t1 := time.Now()
		prog, err := s.Observe(newly)
		lats = append(lats, step+time.Since(t1))
		if err != nil {
			return nil, err
		}
		if prog.Done {
			return lats, nil
		}
	}
}
