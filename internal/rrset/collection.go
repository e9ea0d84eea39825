package rrset

import (
	"unsafe"

	"asti/internal/graph"
)

// Collection accumulates mRR (or RR) sets and maintains the coverage
// counts Λ_R(v) — the number of stored sets containing v — plus an
// inverted index (node → set ids) for greedy max-coverage. It backs both
// TRIM (argmax over Λ) and TRIM-B / ATEUC (greedy coverage).
//
// Storage is slotted over an arena: stored set id's data lives at
// data.at(setPos[id], setLen[id]), so Add copies the set instead of
// taking ownership, and Replace can regenerate one set in place (reusing
// its hole when the new set fits, allocating a fresh slot otherwise;
// dead entries are reclaimed by an amortized compaction into recycled
// slabs). The inverted index is a CSR pair built lazily — once per
// doubling round rather than appended to per set — and every per-node
// counter touched since the last Reset is remembered in a touched list,
// making Reset O(touched) instead of O(n). One Collection therefore
// serves every round of an adaptive run without reallocating, and —
// through Prune/Replace/Truncate — can carry its pool ACROSS rounds,
// which is the cross-round reuse optimization behind
// trim.Config.ReusePool.
type Collection struct {
	n     int32
	count int   // sets accounted for (stored or counts-only)
	nodes int64 // Σ|R| over all accounted sets

	cov       []int64 // Λ_R(v)
	touched   []int32 // nodes v whose counter was ever incremented, for O(touched) reset
	inTouched []bool  // touched-list membership, so Replace never duplicates entries

	// Stored sets, slotted (set id -> data.at(setPos[id], setLen[id])).
	setPos []setRef
	setLen []int32
	rootK  []int32 // per-set root count (0 = unknown, never reusable)
	data   arena
	dead   int64 // arena entries no slot references (holes from Replace/Truncate)

	// Lazy CSR inverted index over the stored sets: node v's set ids are
	// idxSets[idxOff[v]:idxOff[v+1]]. Valid while idxBuilt == stored count;
	// -1 marks it never built (or invalidated by Reset/Replace/Truncate).
	idxOff   []int64
	idxSets  []int32
	idxBuilt int

	// Epoch-stamped per-set marks: marks[id] == markEpoch means "id seen in
	// the current walk". Bumping the epoch clears all marks in O(1).
	marks     []int64
	markEpoch int64

	// Epoch-stamped per-node marks for Prune's delta-membership scan
	// (lazily sized to n).
	nmark      []int64
	nmarkEpoch int64

	// heap is the reusable (gain, node) max-heap scratch of the CELF-style
	// lazy greedy.
	heap []heapEntry
}

// NewCollection returns an empty Collection over graphs with n nodes.
// The coverage and index scratch are pre-sized from the graph (n and
// the n+1 index offsets), so the first rounds never regrow them.
func NewCollection(g *graph.Graph) *Collection {
	return &Collection{
		n:         g.N(),
		cov:       make([]int64, g.N()),
		inTouched: make([]bool, g.N()),
		idxOff:    make([]int64, g.N()+1),
		nmark:     make([]int64, g.N()),
		idxBuilt:  -1,
	}
}

// stored returns the number of stored (not counts-only) sets.
func (c *Collection) stored() int { return len(c.setPos) }

// Stored returns the number of stored (not counts-only) sets.
func (c *Collection) Stored() int { return c.stored() }

// covAdd increments Λ_R(v) for every member of set.
func (c *Collection) covAdd(set []int32) {
	for _, v := range set {
		if !c.inTouched[v] {
			c.inTouched[v] = true
			c.touched = append(c.touched, v)
		}
		c.cov[v]++
	}
}

// covSub decrements Λ_R(v) for every member of set.
func (c *Collection) covSub(set []int32) {
	for _, v := range set {
		c.cov[v]--
	}
}

// Add stores a copy of one set and updates coverage. The caller keeps
// ownership of the slice and may reuse it. Mixing Add and AddCountsOnly in
// one Collection is not supported: greedy coverage would silently ignore
// the counts-only sets.
func (c *Collection) Add(set []int32) { c.AddRooted(set, 0) }

// AddRooted is Add recording the set's root count (its first rootK
// members are the roots, in draw order). The root count is what
// Prune's root-size replay compares against; sets added with rootK 0
// are treated as never reusable under a multi-root strategy.
func (c *Collection) AddRooted(set []int32, rootK int32) {
	ref, buf := c.data.alloc(len(set))
	copy(buf, set)
	c.setPos = append(c.setPos, ref)
	c.setLen = append(c.setLen, int32(len(set)))
	c.rootK = append(c.rootK, rootK)
	c.count++
	c.nodes += int64(len(set))
	c.covAdd(set)
}

// AddCountsOnly updates the coverage counts Λ_R(v) without retaining the
// set. TRIM with batch size 1 only ever needs argmax over Λ, so skipping
// storage and the inverted index removes the dominant memory traffic of a
// round (the caller may reuse the slice).
func (c *Collection) AddCountsOnly(set []int32) {
	c.count++
	c.nodes += int64(len(set))
	c.covAdd(set)
}

// mergeCounts accounts count counts-only sets with nodes members in
// total whose per-node coverage is cov, nonzero exactly on touched, and
// clears those cov entries so the caller's counter is zero again. It is
// the merge half of a fanned-out counts-only batch (see workerState).
func (c *Collection) mergeCounts(cov []int64, touched []int32, count int, nodes int64) {
	for _, v := range touched {
		if !c.inTouched[v] {
			c.inTouched[v] = true
			c.touched = append(c.touched, v)
		}
		c.cov[v] += cov[v]
		cov[v] = 0
	}
	c.count += count
	c.nodes += nodes
}

// Replace regenerates stored set id in place: coverage counters are
// updated for the old and new members only (O(|old|+|new|)), the new data
// reuses the old slot when it fits, and the inverted index is invalidated.
// The caller keeps ownership of the slice.
func (c *Collection) Replace(id int32, set []int32, rootK int32) {
	if c.count != c.stored() {
		panic("rrset: Replace on a counts-only collection")
	}
	old := c.Set(id)
	c.covSub(old)
	c.nodes += int64(len(set)) - int64(len(old))
	if len(set) <= len(old) {
		copy(old, set)
		c.dead += int64(len(old) - len(set))
	} else {
		c.dead += int64(len(old))
		ref, buf := c.data.alloc(len(set))
		copy(buf, set)
		c.setPos[id] = ref
	}
	c.setLen[id] = int32(len(set))
	c.rootK[id] = rootK
	c.covAdd(set)
	c.idxBuilt = -1
	c.maybeCompact()
}

// Truncate drops every stored set with id ≥ m, updating coverage counters
// in O(nodes dropped). It exists so a reused pool can shrink back to a
// round's starting target θ_0 before selection (a fresh pool would not
// have the extra sets, and the determinism contract requires reuse to be
// invisible in the output).
func (c *Collection) Truncate(m int) {
	if m < 0 || m > c.stored() {
		panic("rrset: Truncate out of range")
	}
	if c.count != c.stored() {
		panic("rrset: Truncate on a counts-only collection")
	}
	for id := int32(m); id < int32(c.stored()); id++ {
		set := c.Set(id)
		c.covSub(set)
		c.nodes -= int64(len(set))
		c.dead += int64(len(set))
	}
	c.setPos = c.setPos[:m]
	c.setLen = c.setLen[:m]
	c.rootK = c.rootK[:m]
	c.count = m
	c.idxBuilt = -1
	c.maybeCompact()
}

// maybeCompact rewrites the arena without holes once more than half of
// it (and at least a page worth) is dead, keeping Replace/Truncate
// amortized O(touched). Live sets are copied in id order into a fresh
// arena view that inherits the free list, and the vacated slabs are
// recycled onto it — compaction after warm-up therefore shuffles
// existing slabs instead of allocating (the old path built a scratch
// buffer the size of the live data every time).
func (c *Collection) maybeCompact() {
	if c.dead <= c.data.used/2 || c.dead < 4096 {
		return
	}
	old := c.data
	c.data = arena{slabInts: old.slabInts, free: old.free}
	old.free = nil
	for id := range c.setPos {
		n := c.setLen[id]
		ref, buf := c.data.alloc(int(n))
		copy(buf, old.at(c.setPos[id], n))
		c.setPos[id] = ref
	}
	// The vacated slabs feed the next growth or compaction cycle.
	for i := len(old.slabs) - 1; i >= 0; i-- {
		c.data.free = append(c.data.free, old.slabs[i][:0])
	}
	c.dead = 0
}

// Size returns the number of sets accounted for.
func (c *Collection) Size() int { return c.count }

// TotalNodes returns the sum of set sizes (memory/cost proxy).
func (c *Collection) TotalNodes() int64 { return c.nodes }

// MemoryBytes estimates the collection's heap footprint: the capacity of
// every backing slice times its element size. It is an accounting
// estimate (map/struct headers and allocator slack are not counted), but
// it tracks the dominant cost — the set-payload arena plus the per-node
// arrays — and
// is what the serve layer rolls up into its pool-memory gauge.
func (c *Collection) MemoryBytes() int64 {
	const (
		i64  = 8
		i32  = 4
		b    = 1
		heap = int64(unsafe.Sizeof(heapEntry{}))
	)
	return int64(cap(c.cov))*i64 +
		int64(cap(c.touched))*i32 +
		int64(cap(c.inTouched))*b +
		int64(cap(c.setPos))*i64 + // setRef is two int32s
		int64(cap(c.setLen))*i32 +
		int64(cap(c.rootK))*i32 +
		c.data.capInts()*i32 +
		int64(cap(c.idxOff))*i64 +
		int64(cap(c.idxSets))*i32 +
		int64(cap(c.marks))*i64 +
		int64(cap(c.nmark))*i64 +
		int64(cap(c.heap))*heap
}

// Coverage returns Λ_R(v).
func (c *Collection) Coverage(v int32) int64 { return c.cov[v] }

// Set returns the id-th stored set (read-only). The slice aliases arena
// storage; it stays valid across growth (slabs never move) but not
// across compaction or Reset.
func (c *Collection) Set(id int32) []int32 {
	return c.data.at(c.setPos[id], c.setLen[id])
}

// RootK returns the recorded root count of the id-th stored set (0 if it
// was added without one).
func (c *Collection) RootK(id int32) int32 { return c.rootK[id] }

// IndexOf returns the ids of the stored sets containing v (read-only; the
// slice is invalidated by the next mutation).
func (c *Collection) IndexOf(v int32) []int32 {
	c.buildIndex()
	return c.idxSets[c.idxOff[v]:c.idxOff[v+1]]
}

// buildIndex (re)builds the CSR inverted index over the stored sets. It
// runs once per doubling round — consumers query only after a batch of
// mutations — so the flat two-pass build replaces per-set slice appends on
// every node.
func (c *Collection) buildIndex() {
	if c.idxBuilt == c.stored() {
		return
	}
	if cap(c.idxOff) < int(c.n)+1 {
		c.idxOff = make([]int64, c.n+1)
	}
	c.idxOff = c.idxOff[:c.n+1]
	for i := range c.idxOff {
		c.idxOff[i] = 0
	}
	// Pass 1: counts shifted by one so pass 2 can bump in place.
	live := c.data.used - c.dead
	for id := 0; id < c.stored(); id++ {
		for _, v := range c.Set(int32(id)) {
			c.idxOff[v+1]++
		}
	}
	for v := int32(0); v < c.n; v++ {
		c.idxOff[v+1] += c.idxOff[v]
	}
	if int64(cap(c.idxSets)) < live {
		c.idxSets = make([]int32, live)
	}
	c.idxSets = c.idxSets[:live]
	for id := 0; id < c.stored(); id++ {
		for _, v := range c.Set(int32(id)) {
			c.idxSets[c.idxOff[v]] = int32(id)
			c.idxOff[v]++
		}
	}
	// Shift the bumped offsets back down.
	for v := c.n; v > 0; v-- {
		c.idxOff[v] = c.idxOff[v-1]
	}
	c.idxOff[0] = 0
	c.idxBuilt = c.stored()
}

// nextEpoch returns a fresh mark epoch, growing the per-set mark array to
// the current stored count.
func (c *Collection) nextEpoch() int64 {
	if len(c.marks) < c.stored() {
		c.marks = append(c.marks, make([]int64, c.stored()-len(c.marks))...)
	}
	c.markEpoch++
	return c.markEpoch
}

// Prune identifies the stored sets invalidated by an activation delta:
// every set containing a newly activated node (as root or member — the
// masked node was reached, so regeneration under the grown mask diverges),
// plus every set the alsoStale callback flags (trim uses it to replay the
// root-size draw under the new n_i/η_i and catch root-count shifts). The
// returned ids are ascending; the caller regenerates exactly those sets —
// typically through Engine.Refresh — and may keep every other set as-is:
// by residual stability (see the package comment) the kept sets are
// byte-identical to what full regeneration would produce.
//
// Prune itself mutates nothing. It deliberately avoids the inverted index
// (which TRIM's argmax path never builds): the delta is marked in a
// per-node epoch array and the stored data is scanned flat, one
// sequential O(TotalNodes) pass with early exit per set.
func (c *Collection) Prune(newlyActive []int32, alsoStale func(id, rootK int32) bool) []int32 {
	if c.count != c.stored() {
		panic("rrset: Prune on a counts-only collection")
	}
	if c.stored() == 0 {
		return nil
	}
	if len(c.nmark) < int(c.n) {
		c.nmark = make([]int64, c.n)
	}
	c.nmarkEpoch++
	e := c.nmarkEpoch
	for _, v := range newlyActive {
		c.nmark[v] = e
	}
	var stale []int32
	for id := int32(0); id < int32(c.stored()); id++ {
		hit := false
		for _, v := range c.Set(id) {
			if c.nmark[v] == e {
				hit = true
				break
			}
		}
		if hit || (alsoStale != nil && alsoStale(id, c.rootK[id])) {
			stale = append(stale, id)
		}
	}
	return stale
}

// ArgmaxCoverage returns the node with maximum Λ_R(v) restricted to the
// candidate list (nil = all nodes), and its coverage. Ties break toward
// the smaller node id for determinism (candidate lists are expected in
// ascending order, as adaptive.State.Inactive always is).
//
//asm:hotpath
func (c *Collection) ArgmaxCoverage(candidates []int32) (best int32, cov int64) {
	best = -1
	if candidates == nil {
		for v := int32(0); v < c.n; v++ {
			if c.cov[v] > cov || best < 0 {
				best, cov = v, c.cov[v]
			}
		}
		return best, cov
	}
	for _, v := range candidates {
		if best < 0 || c.cov[v] > cov {
			best, cov = v, c.cov[v]
		}
	}
	return best, cov
}

// heapEntry is one (cached marginal gain, node) pair of the lazy greedy.
type heapEntry struct {
	gain int64
	node int32
}

// before orders the lazy-greedy heap: larger gain first, smaller node id
// on ties — matching ArgmaxCoverage's tie-break, so selections stay
// deterministic and independent of heap internals.
func (a heapEntry) before(b heapEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.node < b.node
}

// heapPush sifts e up into the lazy-gain heap.
//
//asm:hotpath
func (c *Collection) heapPush(e heapEntry) {
	c.heap = append(c.heap, e)
	i := len(c.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !c.heap[i].before(c.heap[p]) {
			break
		}
		c.heap[i], c.heap[p] = c.heap[p], c.heap[i]
		i = p
	}
}

// heapPop removes and returns the heap maximum.
//
//asm:hotpath
func (c *Collection) heapPop() heapEntry {
	top := c.heap[0]
	last := len(c.heap) - 1
	c.heap[0] = c.heap[last]
	c.heap = c.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && c.heap[l].before(c.heap[best]) {
			best = l
		}
		if r < last && c.heap[r].before(c.heap[best]) {
			best = r
		}
		if best == i {
			break
		}
		c.heap[i], c.heap[best] = c.heap[best], c.heap[i]
		i = best
	}
	return top
}

// GreedyMaxCoverage selects up to b nodes greedily maximizing marginal
// set coverage (the classic (1-(1-1/b)^b)-approximate max-coverage greedy
// the paper uses in TRIM-B, Line 8). It returns the selected nodes and the
// number of sets they jointly cover. Coverage state in the Collection is
// not modified.
//
// The walk is a CELF-style lazy greedy over the inverted index: a max-heap
// caches each candidate's last evaluated marginal gain (initially Λ_R(v),
// exact). Because gains only shrink as sets get covered, a cached entry is
// an upper bound — the popped maximum is re-evaluated by counting its
// uncovered sets, and selected only if the fresh value still tops the
// heap. This replaces the previous O(candidates) re-scan per pick with a
// handful of index-degree-sized evaluations, and selects the exact same
// nodes (gain descending, node id ascending on ties). Scratch (heap, epoch
// marks) is reused, so repeated calls do not allocate after warm-up.
//
// candidates restricts selection (nil = all nodes) and must not contain
// duplicates. Selection stops early once every remaining set is covered.
//
//asm:hotpath
func (c *Collection) GreedyMaxCoverage(b int, candidates []int32) (seeds []int32, covered int64) {
	if b <= 0 {
		return nil, 0
	}
	c.buildIndex()
	epoch := c.nextEpoch() // marks[id] == epoch ⇔ set id already covered
	c.heap = c.heap[:0]
	if candidates == nil {
		for v := int32(0); v < c.n; v++ {
			if c.cov[v] > 0 {
				c.heapPush(heapEntry{gain: c.cov[v], node: v})
			}
		}
	} else {
		for _, v := range candidates {
			if c.cov[v] > 0 {
				c.heapPush(heapEntry{gain: c.cov[v], node: v})
			}
		}
	}
	for len(seeds) < b && len(c.heap) > 0 {
		top := c.heapPop()
		// Re-evaluate: count sets containing top that are still uncovered.
		var fresh int64
		for _, id := range c.IndexOf(top.node) {
			if c.marks[id] != epoch {
				fresh++
			}
		}
		if fresh == 0 {
			continue // fully covered; drop (and everything below may follow)
		}
		if fresh == top.gain {
			// Cached bound was exact ⇒ top beats every other upper bound.
			seeds = append(seeds, top.node)
			covered += fresh
			for _, id := range c.IndexOf(top.node) {
				c.marks[id] = epoch
			}
			continue
		}
		c.heapPush(heapEntry{gain: fresh, node: top.node})
	}
	return seeds, covered
}

// CoverageOf returns the number of stored sets intersecting the node set S.
// It reuses the epoch-stamped per-set marks, so it allocates nothing after
// the marks have grown to the pool size.
//
//asm:hotpath
func (c *Collection) CoverageOf(S []int32) int64 {
	c.buildIndex()
	epoch := c.nextEpoch()
	var seen int64
	for _, v := range S {
		for _, id := range c.IndexOf(v) {
			if c.marks[id] != epoch {
				c.marks[id] = epoch
				seen++
			}
		}
	}
	return seen
}

// Reset drops all sets in O(touched) — only the coverage counters that
// were actually incremented since the last Reset are zeroed — and keeps
// every allocated buffer for reuse by the next round.
func (c *Collection) Reset() {
	for _, v := range c.touched {
		c.cov[v] = 0
		c.inTouched[v] = false
	}
	c.touched = c.touched[:0]
	c.setPos = c.setPos[:0]
	c.setLen = c.setLen[:0]
	c.rootK = c.rootK[:0]
	c.data.reset()
	c.dead = 0
	c.idxBuilt = -1
	c.count = 0
	c.nodes = 0
}
