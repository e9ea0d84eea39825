package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"asti/internal/adaptive"
	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/graph"
	"asti/internal/journal"
	"asti/internal/rng"
	"asti/internal/serve"
	"asti/internal/trim"
)

// inprocWorkload is a closed-loop workload that drives a serve.Manager in
// the benchmark's own process: ASTI (b=1, ε=0.5) on synth-nethept from
// `clients` closed-loop clients. Campaign i uses session seed seed+i and observes the
// cascade of world i mod worldPanel; the program sees only the calls.
type inprocWorkload struct {
	Name    string
	Scale   float64 // synthetic generation scale
	Model   diffusion.Model
	EtaFrac float64
	Workers int // per-session sampling workers (0 = GOMAXPROCS)
	// Durable puts the manager on its own journal (fsync WAL, checkpoint
	// every ckptEvery rounds, compaction on) and, after each observation
	// that does not finish the campaign, passivates the session with
	// probability passivateP, so the next lookup reactivates it.
	Durable bool
	// MinCampaigns is how many campaigns every run completes whatever its
	// length; the proposals digest covers exactly these.
	MinCampaigns int
	// Digest is the proposals digest recorded at defaultSeed (0 = none).
	// A change that alters what the service proposes changes it.
	Digest uint64
}

var (
	sampleIC = inprocWorkload{Name: "sample-ic", Scale: 0.4, Model: diffusion.IC, EtaFrac: 0.05,
		MinCampaigns: 8, Digest: 0xeb236f8a9de41c7d}
	durableChurn = inprocWorkload{Name: "durable-churn", Scale: 0.2, Model: diffusion.LT, EtaFrac: 0.10,
		Durable: true, MinCampaigns: 8, Digest: 0xe11fee9e39239428}
)

const (
	dataset    = "synth-nethept"
	epsilon    = 0.5
	clients    = 2
	ckptEvery  = 8
	passivateP = 0.5
)

// setupReps is how many times a run sets up its workload; setup_s is the
// median and the last set-up is the one measured.
const setupReps = 7

// worldPanel is how many realizations the in-process workloads cycle
// through: campaign i observes world i mod worldPanel, whatever the seed.
const worldPanel = 16

func worldSeed(i int) uint64             { return rng.SplitMix64(0x5eed0f + uint64(i%worldPanel)) }
func coinSeed(seed uint64, i int) uint64 { return rng.SplitMix64(seed^0xc01f) + uint64(i) }

// inprocRun is one run of an in-process workload.
type inprocRun struct {
	w    inprocWorkload
	seed uint64
	tmp  string  // scratch directory for the journal
	tr   *tracer // nil = untraced
	// wrap builds sessions with serve.NewSession around a timed trim
	// policy instead of through the manager: the only way to put a span
	// around selection. Traced runs of non-durable workloads do it; a
	// durable session must come from the manager to be journaled and
	// passivated, so traced durable runs take selection time from
	// Status().SelectSeconds instead.
	wrap bool

	g     *graph.Graph
	eta   int64
	mgr   *serve.Manager
	store *journal.Store
	setup []time.Duration

	rssMB       float64 // p90 reading of this process's resident set
	rssReadings int

	create, next, observe, reactivate, del *samples
	attempted, failed                      atomic.Uint64
	busy                                   atomic.Int64 // summed campaign durations, ns

	mu        sync.Mutex
	problems  []string
	campaigns map[int]*campaignOut
	policies  []*timedPolicy
	replay    []float64 // Round − LastCheckpointRound at each passivation
	logBytes  []float64 // journal size of each campaign before close
	frames    [][]byte  // campaign 0's journal records, re-encoded for the journal kernel
}

// campaignOut is what a finished campaign contributes to the gate.
type campaignOut struct {
	batches []byte // every proposed batch, in order, little-endian int32s behind the round
	seeds   int
}

func newInprocRun(w inprocWorkload, seed uint64, tmp string, tr *tracer) *inprocRun {
	return &inprocRun{w: w, seed: seed, tmp: tmp, tr: tr, wrap: tr != nil && !w.Durable,
		create: &samples{}, next: &samples{}, observe: &samples{}, reactivate: &samples{}, del: &samples{},
		campaigns: map[int]*campaignOut{}}
}

func (r *inprocRun) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setUp builds the dataset registry, forces the graph load and, for
// durable workloads, opens the journal; the last of setupReps set-ups is
// kept.
func (r *inprocRun) setUp() error {
	for rep := 0; rep < setupReps; rep++ {
		r.tearDown()
		start := time.Now()
		reg := serve.NewSyntheticRegistry(r.w.Scale)
		g, err := reg.Graph(dataset)
		if err != nil {
			return err
		}
		var opts []serve.ManagerOption
		if r.w.Durable {
			dir, err := os.MkdirTemp(r.tmp, "journal-")
			if err != nil {
				return err
			}
			st, err := journal.Open(dir)
			if err != nil {
				return err
			}
			r.store = st
			opts = append(opts, serve.WithJournal(st), serve.WithCheckpointEvery(ckptEvery), serve.WithCompaction(true))
		}
		r.mgr = serve.NewManager(reg, 0, opts...)
		r.setup = append(r.setup, time.Since(start))
		r.g = g
	}
	r.eta = max(int64(r.w.EtaFrac*float64(r.g.N())), 1)
	runtime.GC()
	debug.FreeOSMemory()
	return nil
}

// tearDown releases the manager and removes the journal directory.
func (r *inprocRun) tearDown() {
	if r.mgr != nil {
		r.mgr.CloseAll()
	}
	if r.store != nil {
		os.RemoveAll(r.store.Dir())
	}
}

// run drives campaigns from the closed-loop clients until the
// deadline has passed and at least w.MinCampaigns campaigns were started;
// every started campaign runs to completion.
func (r *inprocRun) run(d time.Duration) error {
	rss := sampleRSS("self")
	deadline := time.Now().Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= r.w.MinCampaigns && time.Now().After(deadline) {
					return
				}
				t0 := time.Now()
				r.campaign(i)
				r.busy.Add(int64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	var err error
	r.rssMB, r.rssReadings, err = rss.finish()
	return err
}

// campaign runs campaign i to η: create, then rounds of lookup → propose
// → cascade in the sampled world → observe, then close.
func (r *inprocRun) campaign(i int) {
	w := r.w
	cid := int64(i)
	world := diffusion.SampleRealization(r.g, w.Model, rng.New(worldSeed(i)))
	coin := rng.New(coinSeed(r.seed, i))
	root := r.tr.begin("campaign", cid, noSpan)
	defer r.tr.end(root)

	cfg := serve.Config{Dataset: dataset, Policy: "ASTI", Model: w.Model, EtaFrac: w.EtaFrac,
		Epsilon: epsilon, Workers: w.Workers, Seed: r.seed + uint64(i)}
	var s *serve.Session
	var tp *timedPolicy
	var err error
	r.attempted.Add(1)
	t0 := time.Now()
	sp := r.tr.begin("serve.create", cid, root)
	if r.wrap {
		tp, err = r.newTimedPolicy(cid, i == 0)
		if err == nil {
			s, err = serve.NewSession(r.g, w.Model, r.eta, tp, cfg.Seed)
		}
	} else {
		s, err = r.mgr.Create(cfg)
	}
	r.tr.end(sp)
	if err != nil {
		r.fail("campaign %d: create: %v", i, err)
		return
	}
	r.create.Record(time.Since(t0))
	id := s.ID()
	if i == 0 && r.tr != nil && w.Durable {
		r.noteFrame(journal.TypeCreated, journal.Created{Dataset: cfg.Dataset, Policy: cfg.Policy,
			Model: cfg.Model.String(), EtaFrac: cfg.EtaFrac, Epsilon: cfg.Epsilon, Seed: cfg.Seed})
	}

	out := &campaignOut{}
	mirror := bitset.New(int(r.g.N()))
	var activated int64
	passivated := false
	closeSession := func() {
		r.attempted.Add(1)
		t0 := time.Now()
		sp := r.tr.begin("serve.close", cid, root)
		if r.wrap {
			s.Close()
		} else if err := r.mgr.Close(id); err != nil {
			r.tr.end(sp)
			r.fail("campaign %d: close: %v", i, err)
			return
		}
		r.tr.end(sp)
		r.del.Record(time.Since(t0))
	}

	for round := 1; ; round++ {
		if round > int(r.g.N()) {
			r.fail("campaign %d: no progress after %d rounds", i, round-1)
			closeSession()
			return
		}
		if !r.wrap {
			name := "serve.lookup"
			if passivated {
				name = "serve.reactivate"
			}
			r.attempted.Add(1)
			t0 := time.Now()
			sp := r.tr.begin(name, cid, root)
			s, err = r.mgr.Session(id)
			r.tr.end(sp)
			if err != nil {
				r.fail("campaign %d round %d: %s: %v", i, round, name, err)
				return
			}
			if passivated {
				r.reactivate.Record(time.Since(t0))
			}
			passivated = false
		}

		var sel0 float64
		if r.tr != nil && !r.wrap {
			sel0 = s.Status().SelectSeconds
		}
		r.attempted.Add(1)
		t0 := time.Now()
		start := r.tr.now()
		sp := r.tr.begin("serve.propose", cid, root)
		if tp != nil {
			tp.parent = sp
		}
		batch, err := s.NextBatch()
		r.tr.end(sp)
		if err != nil {
			r.fail("campaign %d round %d: next: %v", i, round, err)
			closeSession()
			return
		}
		r.next.Record(time.Since(t0))
		if r.tr != nil && !r.wrap {
			// No wrapper can reach a manager-built policy: the selection
			// child is placed at the start of its parent with the length of
			// the session's SelectSeconds delta.
			sel := time.Duration((s.Status().SelectSeconds - sel0) * float64(time.Second))
			r.tr.add("trim.select", cid, sp, start, sel)
		}

		newly := world.Spread(batch, mirror)
		for _, v := range newly {
			mirror.Set(v)
		}
		activated += int64(len(newly))

		ckpts := 0
		if r.tr != nil && w.Durable {
			ckpts = s.Status().Checkpoints
		}
		r.attempted.Add(1)
		t0 = time.Now()
		start = r.tr.now()
		prog, err := s.Observe(newly)
		d := time.Since(t0)
		if err != nil {
			r.fail("campaign %d round %d: observe: %v", i, round, err)
			closeSession()
			return
		}
		r.observe.Record(d)
		if r.tr != nil {
			name := "serve.observe"
			if w.Durable && s.Status().Checkpoints > ckpts {
				name = "serve.observe_ckpt"
			}
			r.tr.add(name, cid, root, start, d)
		}
		if i == 0 && r.tr != nil && w.Durable {
			r.noteFrame(journal.TypeProposed, journal.Proposed{Round: round, Seeds: batch})
			r.noteFrame(journal.TypeObserved, journal.Observed{Round: round, Activated: newly})
		}
		if prog.Activated != activated {
			r.fail("campaign %d round %d: session reports %d active, the world activated %d", i, round, prog.Activated, activated)
		}
		out.batches = binary.LittleEndian.AppendUint32(out.batches, uint32(round))
		for _, v := range batch {
			out.batches = binary.LittleEndian.AppendUint32(out.batches, uint32(v))
		}
		out.seeds += len(batch)
		if prog.Done {
			break
		}
		if w.Durable && coin.Float64() < passivateP {
			if r.tr != nil {
				st := s.Status()
				r.mu.Lock()
				r.replay = append(r.replay, float64(st.Round-st.LastCheckpointRound))
				r.mu.Unlock()
			}
			r.attempted.Add(1)
			sp := r.tr.begin("serve.passivate", cid, root)
			ok, err := r.mgr.Passivate(id)
			r.tr.end(sp)
			if err != nil || !ok {
				r.fail("campaign %d round %d: passivate: ok=%v err=%v", i, round, ok, err)
				closeSession()
				return
			}
			passivated = true
		}
	}

	st := s.Status()
	if !st.Done || st.Activated != activated || activated < r.eta {
		r.fail("campaign %d: finished with done=%v activated=%d, world activated %d, eta %d", i, st.Done, st.Activated, activated, r.eta)
	}
	if r.tr != nil && w.Durable {
		if size, err := r.store.Size(id); err == nil {
			r.mu.Lock()
			r.logBytes = append(r.logBytes, float64(size))
			r.mu.Unlock()
		}
	}
	closeSession()
	r.mu.Lock()
	r.campaigns[i] = out
	r.mu.Unlock()
}

func (r *inprocRun) noteFrame(t journal.Type, v any) {
	f, err := journal.Marshal(t, v)
	if err != nil {
		r.fail("encode %v record: %v", t, err)
		return
	}
	r.mu.Lock()
	r.frames = append(r.frames, f)
	r.mu.Unlock()
}

// completed returns the number of finished campaigns.
func (r *inprocRun) completed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.campaigns)
}

// digest is FNV-64a over the batches of campaigns 0..n-1 in campaign
// order; ok is false when one of them did not finish.
func (r *inprocRun) digest(n int) (sum uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		c := r.campaigns[i]
		if c == nil {
			return 0, false
		}
		h.Write(c.batches)
	}
	return h.Sum64(), true
}

// seedsPerCampaign is the mean number of seeds a finished campaign used.
func (r *inprocRun) seedsPerCampaign() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for _, c := range r.campaigns {
		total += c.seeds
	}
	return safeDiv(float64(total), float64(len(r.campaigns)))
}

// kernelState is a residual-graph view captured at a proposal, replayed
// by the rrset kernel pass.
type kernelState struct {
	g        *graph.Graph
	model    diffusion.Model
	active   *bitset.Set
	inactive []int32
	etaI     int64
}

// timedPolicy wraps a TRIM policy to put a span around SelectBatch.
// Embedding forwards Name, Close, Reset, PoolBytes and the rest
// unchanged, so the session cannot tell it from the bare policy.
type timedPolicy struct {
	*trim.Policy
	tr       *tracer
	campaign int64
	parent   int32 // the serve.propose span in flight, set by the campaign loop
	capture  bool  // keep the round-1 and the latest state for the rrset kernel
	first    *kernelState
	last     *kernelState
}

func (r *inprocRun) newTimedPolicy(cid int64, capture bool) (*timedPolicy, error) {
	p, err := trim.New(trim.Config{Epsilon: epsilon, Batch: 1, Truncated: true,
		Workers: r.w.Workers, ReusePool: true})
	if err != nil {
		return nil, err
	}
	tp := &timedPolicy{Policy: p, tr: r.tr, campaign: cid, parent: noSpan, capture: capture}
	r.mu.Lock()
	r.policies = append(r.policies, tp)
	r.mu.Unlock()
	return tp, nil
}

func (p *timedPolicy) SelectBatch(st *adaptive.State) ([]int32, error) {
	if p.capture {
		ks := &kernelState{g: st.G, model: st.Model, active: st.Active.Clone(),
			inactive: append([]int32(nil), st.Inactive...), etaI: st.EtaI()}
		if p.first == nil {
			p.first = ks
		} else {
			p.last = ks
		}
	}
	sp := p.tr.begin("trim.select", p.campaign, p.parent)
	defer p.tr.end(sp)
	return p.Policy.SelectBatch(st)
}

// trimStats sums the wrapped policies' instrumentation.
func (r *inprocRun) trimStats() trim.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t trim.Stats
	for _, p := range r.policies {
		s := p.Policy.Stats
		t.Rounds += s.Rounds
		t.Sets += s.Sets
		t.SetNodes += s.SetNodes
		t.EdgesExamined += s.EdgesExamined
		t.RngDraws += s.RngDraws
		t.Doublings += s.Doublings
		t.HitCap += s.HitCap
		t.SetsReused += s.SetsReused
		t.SetsRefreshed += s.SetsRefreshed
		t.FullRegens += s.FullRegens
		t.PeakPoolSize = max(t.PeakPoolSize, s.PeakPoolSize)
	}
	return t
}

// kernelStates returns the states captured by campaign 0's policy.
func (r *inprocRun) kernelStates() []kernelState {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []kernelState
	for _, p := range r.policies {
		if p.capture {
			for _, ks := range []*kernelState{p.first, p.last} {
				if ks != nil {
					out = append(out, *ks)
				}
			}
		}
	}
	return out
}
