package rrset

import (
	"runtime"
	"sync/atomic"

	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/graph"
	"asti/internal/rng"
)

// Rounding selects how a multi-root strategy derives the root-set size k
// from n_i/η_i. The paper's randomized rounding (§3.3) is the default; the
// fixed variants exist for the ablation that motivates it (Remark after
// Corollary 3.4).
type Rounding int

const (
	// RoundRandomized draws k = ⌊n_i/η_i⌋+1 with probability equal to the
	// fractional part, else ⌊n_i/η_i⌋ (E[k] = n_i/η_i exactly).
	RoundRandomized Rounding = iota
	// RoundFloor always uses k = ⌊n_i/η_i⌋.
	RoundFloor
	// RoundCeil always uses k = ⌊n_i/η_i⌋ + 1.
	RoundCeil
)

// RootStrategy selects how each sampled set draws its roots: a classic
// single-root RR-set, or the paper's multi-root mRR-set with one of the
// three root-size rounding modes.
type RootStrategy struct {
	multi    bool
	rounding Rounding
}

// SingleRoot is the classic RR-set strategy (one uniform root).
func SingleRoot() RootStrategy { return RootStrategy{} }

// MultiRoot is the paper's mRR strategy with the given rounding of
// n_i/η_i.
func MultiRoot(r Rounding) RootStrategy { return RootStrategy{multi: true, rounding: r} }

// Multi reports whether the strategy samples multi-root sets.
func (s RootStrategy) Multi() bool { return s.multi }

// rootSize applies the strategy's rounding of ni/etai (multi-root only).
func (s RootStrategy) rootSize(ni, etai int64, r *rng.Source) int {
	switch s.rounding {
	case RoundFloor:
		k := ni / etai
		if k < 1 {
			k = 1
		}
		return int(k)
	case RoundCeil:
		k := ni/etai + 1
		if k > ni {
			k = ni
		}
		return int(k)
	default:
		return RootSize(ni, etai, r)
	}
}

// Request describes one generation batch: how many sets to add, drawn with
// which root strategy over which residual view, under which batch seed.
type Request struct {
	// Strategy picks single-root RR vs multi-root mRR sampling.
	Strategy RootStrategy
	// Inactive lists the residual nodes (the exact complement of Active).
	// Roots are rejection-sampled from [0, n) against the Active mask; the
	// list itself is consulted for n_i and for the k == n_i fast path.
	Inactive []int32
	// Active masks removed nodes (nil = none). It is read concurrently by
	// the workers and must not be mutated during Generate.
	Active *bitset.Set
	// EtaI is the remaining shortfall η_i; used only by multi-root
	// strategies to size the root set.
	EtaI int64
	// Count is the number of sets to generate.
	Count int
	// Seed is the batch seed: set i of the batch derives its private
	// generator as SplitMix64(Seed+FirstIndex+i), making the output
	// byte-identical for every worker count (including 1).
	Seed uint64
	// FirstIndex offsets the per-set seed derivation, giving every pool
	// position a stable seed across calls: generating positions [0,1000)
	// in one call equals generating [0,500) then [500,1000) with
	// FirstIndex 500. Cross-round pool reuse leans on this — a position's
	// seed never changes, so an untouched stored set IS what regeneration
	// would produce.
	FirstIndex int64
	// CountsOnly updates only the coverage counts Λ_R(v) in the target
	// Collection without storing the sets. A fanned-out counts-only batch
	// never copies a set out of its worker: each worker folds its sets
	// into a private coverage counter that Generate merges afterwards.
	// Integer sums do not depend on order, so Λ and the Fingerprint are
	// the same for every worker count.
	CountsOnly bool
}

// RootSizeAt replays the root-size draw that generateOne performs for the
// pool position idx under batch seed: it is the first consumption of the
// per-set stream, so replaying it is exact. Prune uses it to detect sets
// whose root count would differ under the round's new n_i/η_i.
func (s RootStrategy) RootSizeAt(seed uint64, idx int64, ni, etai int64) int {
	if !s.multi {
		return 1
	}
	var src rng.Source
	src.Seed(rng.SplitMix64(seed + uint64(idx)))
	return s.rootSize(ni, etai, &src)
}

// GenStats reports instrumentation for one Generate call.
type GenStats struct {
	// Sets is the number of sets generated (== Request.Count).
	Sets int64
	// SetNodes is Σ|R| over the generated sets.
	SetNodes int64
	// EdgesExamined counts in-edges inspected during the reverse BFSes (the
	// cost model behind Lemma 3.8).
	EdgesExamined int64
	// RngDraws counts stream values the reverse-BFS kernel consumed (edge
	// coins and geometric jumps; see Sampler.RngDraws).
	RngDraws int64
}

// minParallelSets is the batch size below which the worker pool is not
// worth the handoff overhead and Generate runs inline. Both paths use the
// same per-set seeding, so the dispatch decision never changes output.
const minParallelSets = 256

// minTaskGrain is the smallest number of sets handed to a pool worker at
// once.
const minTaskGrain = 64

// Engine is the shared concurrent mRR/RR sampling engine: one persistent
// worker pool with per-worker Sampler scratch that every consumer (TRIM,
// OPIM-C, IMM, ATEUC) drives through Generate. Set i of a batch seeds its
// private generator as SplitMix64(batchSeed+i), so the stream of generated
// sets is identical for any worker count — parallelism is purely a speed
// knob, never a semantics knob.
//
// An Engine is not safe for concurrent use: one goroutine calls Generate
// at a time (the workers underneath are the engine's own). Close releases
// the pool; engines dropped without Close are cleaned up by a finalizer.
type Engine struct {
	g       *graph.Graph
	model   diffusion.Model
	workers int
	ver     Version

	inline *workerState // scratch for the sequential path
	states []*workerState
	tasks  chan genTask
	closed bool
}

// workerState is one worker's private scratch: a Sampler plus reusable
// output arenas. It deliberately holds no Engine pointer so the pool
// goroutines never keep an abandoned Engine alive.
//
// A stored batch appends its sets to out/lens/rootKs for Generate to
// commit in set-index order. A counts-only batch keeps only the set in
// hand in out and folds it into cov/touched/count/nodes, the worker's
// share of the batch's coverage, which Generate merges and clears once
// the batch is done.
type workerState struct {
	sampler *Sampler
	out     []int32 // concatenated sets of the current batch
	lens    []int32 // per-set lengths of the current batch
	rootKs  []int32 // per-set root counts of the current batch

	cov     []int64 // counts-only: per-node coverage of this worker's sets (sized n on first use)
	touched []int32 // counts-only: nodes with cov > 0, each once
	count   int     // counts-only: sets folded
	nodes   int64   // counts-only: Σ|R| over the folded sets
}

// fold adds one counts-only set to the worker's private coverage. A
// node joins the touched list when its counter leaves zero, so the
// list names each counted node once.
//
//asm:hotpath
func (ws *workerState) fold(set []int32) {
	for _, v := range set {
		if ws.cov[v] == 0 {
			ws.touched = append(ws.touched, v)
		}
		ws.cov[v]++
	}
	ws.count++
	ws.nodes += int64(len(set))
}

// genTask asks a pool worker for sets [lo, hi) of a batch. When ids is
// non-nil the task regenerates the stored sets ids[lo:hi] (Refresh);
// otherwise it generates fresh pool positions base+lo … base+hi-1.
type genTask struct {
	idx      int
	lo, hi   int
	seed     uint64
	base     int64
	ids      []int32
	counts   bool // fold the sets into the worker's coverage instead of returning them (never for Refresh)
	strat    RootStrategy
	inactive []int32
	active   *bitset.Set
	etai     int64
	results  chan<- taskResult
	edges    *atomic.Int64
	draws    *atomic.Int64
}

// taskResult hands a task's arena segment back to Generate. The slices
// point into the worker's arena and stay valid until the next Generate
// call resets it.
type taskResult struct {
	idx    int
	data   []int32
	lens   []int32
	rootKs []int32
	ids    []int32 // refresh tasks: the stored-set ids regenerated, aligned with lens
}

// NewEngine returns an Engine for g under the given model, speaking the
// default sampler stream contract. workers <= 0 selects GOMAXPROCS;
// workers == 1 keeps everything on the calling goroutine. Output is
// identical for every setting.
func NewEngine(g *graph.Graph, model diffusion.Model, workers int) *Engine {
	return NewEngineVersion(g, model, workers, DefaultVersion)
}

// NewEngineVersion is NewEngine pinned to a sampler stream contract
// (0 resolves to DefaultVersion). Every worker speaks the same version,
// so the version — like the worker count — never leaks into which sets
// are generated, only into how the stream is consumed.
func NewEngineVersion(g *graph.Graph, model diffusion.Model, workers int, ver Version) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if ver == 0 {
		ver = DefaultVersion
	}
	return &Engine{
		g:       g,
		model:   model,
		workers: workers,
		ver:     ver,
		inline:  newWorkerState(g, model, ver),
	}
}

// newWorkerState builds one worker's scratch, pre-sizing the output
// arena from graph stats (mean set size tracks mean in-degree) so early
// batches do not regrow it from nil.
func newWorkerState(g *graph.Graph, model diffusion.Model, ver Version) *workerState {
	est := (4*int(g.M()/int64(g.N())) + 16) * minTaskGrain
	if est > 1<<20 {
		est = 1 << 20
	}
	return &workerState{
		sampler: NewSamplerVersion(g, model, ver),
		out:     make([]int32, 0, est),
		lens:    make([]int32, 0, minTaskGrain),
		rootKs:  make([]int32, 0, minTaskGrain),
	}
}

// Graph returns the graph the engine samples over.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Model returns the engine's diffusion model.
func (e *Engine) Model() diffusion.Model { return e.model }

// Workers returns the resolved worker count.
func (e *Engine) Workers() int { return e.workers }

// Version returns the engine's sampler stream contract.
func (e *Engine) Version() Version { return e.ver }

// Close shuts down the worker pool. Generate must not be called after
// Close. Close is idempotent but not safe to race with Generate.
func (e *Engine) Close() {
	if e.tasks != nil && !e.closed {
		close(e.tasks)
		runtime.SetFinalizer(e, nil)
	}
	e.closed = true
}

// start lazily spins up the persistent pool.
func (e *Engine) start() {
	if e.tasks != nil {
		return
	}
	e.tasks = make(chan genTask, e.workers*4)
	e.states = make([]*workerState, e.workers)
	for w := range e.states {
		ws := newWorkerState(e.g, e.model, e.ver)
		e.states[w] = ws
		go poolWorker(e.tasks, ws)
	}
	// Safety net for engines dropped without Close: release the goroutines
	// when the Engine becomes unreachable (the workers reference only the
	// channel and their own state, never the Engine).
	runtime.SetFinalizer(e, (*Engine).Close)
}

// poolWorker serves generation tasks until the task channel closes.
func poolWorker(tasks <-chan genTask, ws *workerState) {
	var src rng.Source
	for t := range tasks {
		edges0, draws0 := ws.sampler.EdgesExamined, ws.sampler.RngDraws
		// One mask copy up front buys a single-bitset hot loop for the
		// whole task (see Sampler.PrimeActive); active is nil below.
		ws.sampler.PrimeActive(t.active)
		res := taskResult{idx: t.idx}
		if t.counts {
			if ws.cov == nil {
				ws.cov = make([]int64, ws.sampler.g.N())
			}
			for i := t.lo; i < t.hi; i++ {
				src.Seed(rng.SplitMix64(t.seed + uint64(t.base+int64(i))))
				ws.out, _ = generateOne(ws.sampler, t.strat, t.inactive, nil, t.etai, &src, ws.out[:0])
				ws.fold(ws.out)
			}
		} else {
			dataStart, lensStart := len(ws.out), len(ws.lens)
			for i := t.lo; i < t.hi; i++ {
				gidx := t.base + int64(i)
				if t.ids != nil {
					gidx = int64(t.ids[i])
				}
				src.Seed(rng.SplitMix64(t.seed + uint64(gidx)))
				var k int32
				setStart := len(ws.out)
				ws.out, k = generateOne(ws.sampler, t.strat, t.inactive, nil, t.etai, &src, ws.out)
				ws.lens = append(ws.lens, int32(len(ws.out)-setStart))
				ws.rootKs = append(ws.rootKs, k)
			}
			res.data, res.lens, res.rootKs = ws.out[dataStart:], ws.lens[lensStart:], ws.rootKs[lensStart:]
			if t.ids != nil {
				res.ids = t.ids[t.lo:t.hi]
			}
		}
		t.edges.Add(ws.sampler.EdgesExamined - edges0)
		t.draws.Add(ws.sampler.RngDraws - draws0)
		t.results <- res
	}
}

// generateOne samples one set under the strategy into dst, via the
// residual-stable sampler paths, returning the extended slice and the
// drawn root count.
func generateOne(s *Sampler, strat RootStrategy, inactive []int32, active *bitset.Set, etai int64, r *rng.Source, dst []int32) ([]int32, int32) {
	if strat.multi {
		k := strat.rootSize(int64(len(inactive)), etai, r)
		return s.MRRStable(k, inactive, active, r, dst), int32(k)
	}
	return s.RRStable(active, r, dst), 1
}

// Generate adds req.Count sets to coll and returns the batch's
// instrumentation. This is the single sampling loop of the codebase: every
// consumer's pool growth routes through here. The per-set seeding makes
// the added sets — and therefore every downstream selection — identical
// for any worker count.
func (e *Engine) Generate(coll *Collection, req Request) GenStats {
	need := req.Count
	if need <= 0 {
		return GenStats{}
	}
	stats := GenStats{Sets: int64(need)}
	if e.workers == 1 || need < minParallelSets {
		ws := e.inline
		edges0, draws0 := ws.sampler.EdgesExamined, ws.sampler.RngDraws
		ws.sampler.PrimeActive(req.Active)
		var src rng.Source
		for i := 0; i < need; i++ {
			src.Seed(rng.SplitMix64(req.Seed + uint64(req.FirstIndex+int64(i))))
			set, k := generateOne(ws.sampler, req.Strategy, req.Inactive, nil, req.EtaI, &src, ws.out[:0])
			ws.out = set // keep the grown buffer; Add copies
			if req.CountsOnly {
				coll.AddCountsOnly(set)
			} else {
				coll.AddRooted(set, k)
			}
			stats.SetNodes += int64(len(set))
		}
		stats.EdgesExamined = ws.sampler.EdgesExamined - edges0
		stats.RngDraws = ws.sampler.RngDraws - draws0
		return stats
	}

	ordered, edges, draws := e.fanOut(req, need, nil)
	stats.EdgesExamined = edges
	stats.RngDraws = draws
	if req.CountsOnly {
		// Every task has reported, so the workers' counters are complete
		// and quiescent until the next batch is sent.
		for _, ws := range e.states {
			stats.SetNodes += ws.nodes
			coll.mergeCounts(ws.cov, ws.touched, ws.count, ws.nodes)
			ws.touched, ws.count, ws.nodes = ws.touched[:0], 0, 0
		}
		return stats
	}
	// Commit in set-index order so the Collection's stored-set ids are
	// scheduling-independent.
	for _, tr := range ordered {
		var off int32
		for si, l := range tr.lens {
			set := tr.data[off : off+l]
			off += l
			coll.AddRooted(set, tr.rootKs[si])
			stats.SetNodes += int64(len(set))
		}
	}
	return stats
}

// Refresh regenerates the identified stored sets of coll in place, each
// from its position-stable seed SplitMix64(req.Seed + id) over the
// request's residual view. It is the regeneration half of cross-round pool
// reuse: Collection.Prune names the invalidated sets, Refresh re-derives
// them, and the pool ends byte-identical to full regeneration at a cost
// proportional to the activation delta. req.Count is ignored; ids must be
// ascending stored-set ids (as returned by Prune).
func (e *Engine) Refresh(coll *Collection, req Request, ids []int32) GenStats {
	need := len(ids)
	if need == 0 {
		return GenStats{}
	}
	stats := GenStats{Sets: int64(need)}
	if e.workers == 1 || need < minParallelSets {
		ws := e.inline
		edges0, draws0 := ws.sampler.EdgesExamined, ws.sampler.RngDraws
		ws.sampler.PrimeActive(req.Active)
		var src rng.Source
		for _, id := range ids {
			src.Seed(rng.SplitMix64(req.Seed + uint64(id)))
			set, k := generateOne(ws.sampler, req.Strategy, req.Inactive, nil, req.EtaI, &src, ws.out[:0])
			ws.out = set
			coll.Replace(id, set, k)
			stats.SetNodes += int64(len(set))
		}
		stats.EdgesExamined = ws.sampler.EdgesExamined - edges0
		stats.RngDraws = ws.sampler.RngDraws - draws0
		return stats
	}

	ordered, edges, draws := e.fanOut(req, need, ids)
	// Commit in id order: coverage math is order-independent, but a fixed
	// order keeps the data layout (and memory profile) reproducible.
	for _, tr := range ordered {
		var off int32
		for si, l := range tr.lens {
			set := tr.data[off : off+l]
			off += l
			coll.Replace(tr.ids[si], set, tr.rootKs[si])
			stats.SetNodes += int64(len(set))
		}
	}
	stats.EdgesExamined = edges
	stats.RngDraws = draws
	return stats
}

// fanOut distributes need set generations (fresh positions, or the given
// stored ids when non-nil) over the worker pool and returns the results in
// task order plus the examined-edge and stream-draw totals.
func (e *Engine) fanOut(req Request, need int, ids []int32) ([]taskResult, int64, int64) {
	e.start()
	// No tasks are in flight between calls, so the arenas the previous
	// batch handed out can be reclaimed here.
	for _, ws := range e.states {
		ws.out = ws.out[:0]
		ws.lens = ws.lens[:0]
		ws.rootKs = ws.rootKs[:0]
	}
	grain := (need + e.workers*4 - 1) / (e.workers * 4)
	if grain < minTaskGrain {
		grain = minTaskGrain
	}
	numTasks := (need + grain - 1) / grain
	results := make(chan taskResult, numTasks)
	var edges, draws atomic.Int64
	for ti := 0; ti < numTasks; ti++ {
		lo := ti * grain
		hi := lo + grain
		if hi > need {
			hi = need
		}
		e.tasks <- genTask{
			idx: ti, lo: lo, hi: hi,
			seed: req.Seed, base: req.FirstIndex, ids: ids, strat: req.Strategy,
			counts:   req.CountsOnly && ids == nil,
			inactive: req.Inactive, active: req.Active, etai: req.EtaI,
			results: results, edges: &edges, draws: &draws,
		}
	}
	ordered := make([]taskResult, numTasks)
	for i := 0; i < numTasks; i++ {
		tr := <-results
		ordered[tr.idx] = tr
	}
	return ordered, edges.Load(), draws.Load()
}
