// The TopK result cache: a hot subject's answer outlives every post that
// cannot change it.
//
// Why a stored answer survives a post: TopK scores x against subject s as
// dot(s, x) / (‖s‖·‖x‖), which reads the counts of s and x only. A post to
// r ≠ s changes r's counts alone, so it moves score(s, r) — dot(s, r) by
// the subject's weights on the post's tags, ‖r‖ by the post — and no
// score(s, x) for x ≠ r. The answer is the first k under the strict order
// (score desc, id asc), zero-overlap resources ranking at score 0 (the
// padding). So it stands after a window of posts to resources other than
// s iff no touched r is in it and no touched r now ranks at or above its
// kth entry, padding included: everyone else kept score and place.
//
// Why a rerank is bit-identical to a miss: every dot is a sum of products
// of integers far below 2^53, exact in float64 in any order, so a row
// accumulated from the posting lists and folded post by post (a post adds
// the subject's weight on each of its tags) holds the bits a miss's
// scratch row would; both are built by the one accumulate and ranked by
// the one rank (kernel.go).
//
// What is kept: a write log of the last logSlots posts, each slot stamped
// with its epoch so an overwritten one is detected; per queried subject,
// its last answer, k and epoch; and, once it is queried again within
// logSlots posts, a dot row over the corpus plus its (tag,
// weight) support, lifted once so a cold subject stays cold. A repeat at
// an unchanged epoch is served before the view is taken; any other query
// folds the logged posts into the row, then serves, reranks, or rebuilds
// the row when the subject itself was posted to or the log fell short.
package ir

import (
	"maps"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"incentivetag/internal/tags"
)

const (
	logSlots   = 1024    // posts the write log remembers
	slotTags   = 15      // tags a slot holds; a longer post forces a rebuild
	rowBytes   = 2 << 20 // dot cells per index, in bytes (id lists add ≤ half)
	maxEntries = 4096    // subjects with a stored answer
)

// logSlot is one post of the write log. mu serializes writers a lap
// apart; readers hold the all-shards view, under which no writer runs.
type logSlot struct {
	mu       sync.Mutex
	epoch    uint64
	resource int32
	n        int32 // the post's length; above slotTags its tags did not fit
	tags     [slotTags]tags.Tag
}

// logPost records the post that moved the index to epoch (shard locked).
func (c *topkCache) logPost(epoch uint64, resource int, p tags.Post) {
	sl := &c.log[epoch%logSlots]
	sl.mu.Lock()
	sl.epoch, sl.resource, sl.n = epoch, int32(resource), int32(len(p))
	copy(sl.tags[:], p)
	sl.mu.Unlock()
}

// topkEntry is one subject's cached state, guarded by mu: res answers k
// at epoch, and a hot entry's row and weights are exact at epoch too. row
// changes hands only in grant, under mu and the cache's mu, so either
// lock reads whether the entry holds one (row.dot != nil).
type topkEntry struct {
	mu      sync.Mutex
	subject int
	k       int
	epoch   uint64
	res     []Scored
	row     dotRow
	weights weightTable
	heap    scoredHeap
}

// weightTable is a subject's (tag, weight) support, open-addressed so a
// fold looks a tag up in O(1). Keys hold tag+1: a miss reads weight 0.
type weightTable struct {
	keys  []tags.Tag
	w     []float64
	shift uint32
}

// reset gives the table empty storage, at most half full for size tags.
func (h *weightTable) reset(size int) {
	b := max(bits.Len(uint(2*size)), 3)
	h.keys, h.w, h.shift = make([]tags.Tag, 1<<b), make([]float64, 1<<b), uint32(32-b)
}

// slot probes for t: its slot, or the empty one it would take.
func (h *weightTable) slot(t tags.Tag) int {
	i := int(uint32(t) * 0x9E3779B1 >> h.shift)
	for h.keys[i] != t+1 && h.keys[i] != 0 {
		i = (i + 1) & (len(h.keys) - 1)
	}
	return i
}

// topkCache is the index's one result cache and its write log. mu guards
// entries and rows, and takes an entry's mu only with TryLock. An entry
// holding a row is never evicted, so a row lives as long as its entry.
type topkCache struct {
	log     [logSlots]logSlot
	mu      sync.Mutex
	entries map[int]*topkEntry
	rows    []*topkEntry // the entries holding a row
	maxRows int

	serves, reranks, rebuilds, executed atomic.Uint64
}

// entry returns subject's entry, creating it; a full table forgets every
// entry without a row (rows are far fewer than maxEntries).
func (c *topkCache) entry(subject int) *topkEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[subject]
	if e == nil {
		if len(c.entries) >= maxEntries {
			maps.DeleteFunc(c.entries, func(_ int, v *topkEntry) bool { return v.row.dot == nil })
		}
		e = &topkEntry{subject: subject}
		c.entries[subject] = e
	}
	return e
}

// grant gives e a row of n cells: a new one while the budget lasts, else
// one whose owner the log no longer reaches at epoch. An entry evicted
// since its query found it gets none. Caller holds e.mu.
func (c *topkCache) grant(e *topkEntry, n int, epoch uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.subject] != e {
		return false
	}
	if len(c.rows) < c.maxRows {
		e.row = dotRow{dot: make([]float64, n)}
		c.rows = append(c.rows, e)
		return true
	}
	for i, v := range c.rows {
		if v.mu.TryLock() {
			if v.epoch+logSlots < epoch {
				e.row, v.row, c.rows[i] = v.row, dotRow{}, e
				v.mu.Unlock()
				return true
			}
			v.mu.Unlock()
		}
	}
	return false
}

// cachedTopK serves, reranks or (re)builds e's answer at epoch, or returns
// nil when only a scratch row can. Caller holds e.mu under the full view.
func (ix *OnlineIndex) cachedTopK(e *topkEntry, k int, epoch uint64) []Scored {
	c := &ix.cache
	switch {
	case e.row.dot != nil:
		if stands, ok := ix.fold(e, epoch); ok {
			if stands && e.k == k {
				c.serves.Add(1)
				return e.res
			}
			c.reranks.Add(1)
			return ix.rerank(e, k)
		}
	case e.res == nil || epoch-e.epoch > logSlots || !c.grant(e, ix.n, epoch):
		return nil
	}
	c.rebuilds.Add(1)
	ix.rebuild(e)
	return ix.rerank(e, k)
}

// fold brings e's row from e.epoch to epoch through the write log; ok is
// false when the log cannot (the subject was posted to, a slot was
// overwritten or overflowed). stands reports that no touched resource is
// in the stored answer or ranks at or above its kth entry.
func (ix *OnlineIndex) fold(e *topkEntry, epoch uint64) (stands, ok bool) {
	for x := e.epoch + 1; x <= epoch; x++ {
		sl := &ix.cache.log[x%logSlots]
		r := int(sl.resource)
		if sl.epoch != x || sl.n > slotTags || r == e.subject {
			return false, false
		}
		for _, t := range sl.tags[:sl.n] {
			if w := e.weights.w[e.weights.slot(t)]; w != 0 {
				e.row.add(int32(r), w)
			}
		}
	}
	if len(e.res) < e.k {
		return false, true // the answer holds every other resource
	}
	kth, subjNorm := e.res[len(e.res)-1], math.Sqrt(ix.norm2[e.subject])
	for x := e.epoch + 1; x <= epoch; x++ {
		r := int(ix.cache.log[x%logSlots].resource)
		score := 0.0
		if d := e.row.dot[r]; d != 0 {
			score = topkScore(d, subjNorm, ix.norm2[r])
		}
		if score > kth.Score || (score == kth.Score && r < kth.ID) || slices.ContainsFunc(e.res, func(s Scored) bool { return s.ID == r }) {
			return false, true
		}
	}
	return true, true
}

// rebuild lifts the subject's support, as a miss does, into its weight
// table and recomputes its row from the posting lists.
func (ix *OnlineIndex) rebuild(e *topkEntry) {
	sc := ix.getScratch()
	ix.lift(sc, e.subject)
	e.weights.reset(len(sc.query))
	for _, wt := range sc.query {
		j := e.weights.slot(wt.Tag)
		e.weights.keys[j], e.weights.w[j] = wt.Tag+1, float64(wt.Count)
	}
	e.row.reset()
	ix.accumulate(&e.row, sc.query)
	ix.putScratch(sc)
}

// rerank ranks e's row for k and stores the answer.
func (ix *OnlineIndex) rerank(e *topkEntry, k int) []Scored {
	e.res, e.k = ix.rank(&e.row, e.subject, ix.norm2[e.subject], false, k, &e.heap), k
	return e.res
}
