package main

import (
	"sort"
	"sync"
	"time"
)

// noSpan is the parent of a root span.
const noSpan int32 = -1

// span is one timed call at a layer boundary. All spans of one campaign
// share Campaign; Parent is the span whose interval caused this one.
type span struct {
	Name     string        `json:"name"`
	Campaign int64         `json:"campaign"`
	Parent   int32         `json:"parent"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the length of a run; they are written
// out only when the run ends. A nil *tracer records nothing, which is how
// untraced runs pay no tracing cost.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, campaign int64, parent int32) int32 {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Campaign: campaign, Parent: parent, Start: now, End: -1})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured span: one named only after the call
// returned (an observe that wrote a checkpoint), or one whose length is
// known only from a counter delta (selection inside a manager-built
// session, which the benchmark cannot wrap).
func (t *tracer) add(name string, campaign int64, parent int32, start, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Campaign: campaign, Parent: parent, Start: start, End: start + d})
}

// now returns the offset of the current instant.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.origin)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once,
// and a child's parts outside the parent do not count).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cur), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	count int
	busy  time.Duration // summed duration
	self  time.Duration // summed self time
	hist  *samples
}

func (s spanStats) meanMs() float64 {
	if s.count == 0 {
		return 0
	}
	return ms(s.busy) / float64(s.count)
}

func (s spanStats) selfMeanMs() float64 {
	if s.count == 0 {
		return 0
	}
	return ms(s.self) / float64(s.count)
}

// spanIndex holds the stats of closed spans by name.
type spanIndex map[string]*spanStats

// get returns the stats of name, empty when no such span closed.
func (ix spanIndex) get(name string) *spanStats {
	if s := ix[name]; s != nil {
		return s
	}
	return &spanStats{hist: &samples{}}
}

// byName groups closed spans by name.
func byName(spans []span) spanIndex {
	self := selfTimes(spans)
	out := spanIndex{}
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed: the call failed mid-way
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStats{hist: &samples{}}
			out[s.Name] = st
		}
		st.count++
		st.busy += s.dur()
		st.self += self[i]
		st.hist.Record(s.dur())
	}
	return out
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
