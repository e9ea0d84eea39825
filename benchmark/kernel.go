package main

import (
	"os"
	"runtime"
	"time"

	"asti/internal/journal"
	"asti/internal/rrset"
)

// Kernel passes time one layer's public calls in isolation, on inputs
// captured from (or shaped like) the traced run.

// rrsetKernel is the rrset pass over captured residual states.
type rrsetKernel struct {
	usPerSet float64 // Engine.Generate at Workers 1, per set
	speedup  float64 // Workers 1 time / Workers GOMAXPROCS time
	greedy   *samples
	poolMB   float64 // mean Collection.MemoryBytes of the generated pools
}

// kernelSets is how many sets each Generate call of the pass adds.
const kernelSets = 8192

// runRRSetKernel generates kernelSets mRR sets for every state with a
// sequential and a GOMAXPROCS engine, then times GreedyMaxCoverage(b=4)
// on the pool.
func runRRSetKernel(states []kernelState, seed uint64) rrsetKernel {
	k := rrsetKernel{greedy: &samples{}}
	var seq, par time.Duration
	var bytes int64
	for i, s := range states {
		req := rrset.Request{Strategy: rrset.MultiRoot(rrset.RoundRandomized), Inactive: s.inactive,
			Active: s.active, EtaI: s.etaI, Count: kernelSets, Seed: seed + uint64(i)}
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			eng := rrset.NewEngine(s.g, s.model, workers)
			coll := rrset.NewCollection(s.g)
			t0 := time.Now()
			eng.Generate(coll, req)
			d := time.Since(t0)
			eng.Close()
			if workers == 1 {
				seq += d
				continue
			}
			par += d
			for rep := 0; rep < 5; rep++ {
				t0 := time.Now()
				coll.GreedyMaxCoverage(4, s.inactive)
				k.greedy.Record(time.Since(t0))
			}
			bytes += coll.MemoryBytes()
		}
	}
	n := float64(len(states))
	k.usPerSet = safeDiv(float64(seq)/float64(time.Microsecond), n*kernelSets)
	k.speedup = safeDiv(float64(seq), float64(par))
	k.poolMB = safeDiv(float64(bytes), n*(1<<20))
	return k
}

// journalKernel is the journal pass over re-encoded run records.
type journalKernel struct {
	append *samples // Writer.AppendFrame (write + fsync)
	load   *samples // Store.Load of the whole log
}

// minKernelAppends is the least number of appends the journal pass times.
const minKernelAppends = 64

// runJournalKernel appends frames (repeated until minKernelAppends) to a
// fresh log in a store under dir, timing each append, then times loading
// the log back.
func runJournalKernel(dir string, frames [][]byte) (journalKernel, error) {
	k := journalKernel{append: &samples{}, load: &samples{}}
	if len(frames) == 0 {
		return k, nil
	}
	defer os.RemoveAll(dir)
	st, err := journal.Open(dir)
	if err != nil {
		return k, err
	}
	w, err := st.Create("kernel")
	if err != nil {
		return k, err
	}
	for n := 0; n < minKernelAppends; {
		for _, f := range frames {
			t0 := time.Now()
			if err := w.AppendFrame(f); err != nil {
				w.Close()
				return k, err
			}
			k.append.Record(time.Since(t0))
			n++
		}
	}
	if err := w.Close(); err != nil {
		return k, err
	}
	for rep := 0; rep < 20; rep++ {
		t0 := time.Now()
		if _, _, err := st.Load("kernel"); err != nil {
			return k, err
		}
		k.load.Record(time.Since(t0))
	}
	return k, nil
}
