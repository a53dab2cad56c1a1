// Block-max posting lists and the pruned query executor — the online
// index's query execution engine.
//
// Each (shard, tag) posting list keeps its entries sorted by count
// descending and carved into fixed-size blocks. Every entry carries an
// "impact": an upper bound on count/‖resource‖, the largest cosine
// contribution the entry can make to any query through this tag. Each
// block carries the max impact of its entries, the list carries the
// list max, and the tag's directory row carries the max across every
// shard's list, so a query can bound a whole block — or a whole tag, or
// every remaining tag — without touching a single posting.
//
// A query executes shard by shard against one shared top-k selector, in
// two phases per shard (exact MaxScore, term-at-a-time):
//
//  1. Accumulate: query tags in decreasing bound order. While a tag's
//     suffix bound can still beat the current kth score the tag is
//     ESSENTIAL — its entries add their exact integer contribution to a
//     pooled dense accumulator and found new candidates, except blocks
//     whose own bound cannot reach the threshold, which are set aside
//     unscanned. Once the suffix bound falls below the threshold no
//     later tag can introduce a viable candidate: long lists are
//     DEFERRED outright (survivors re-add them with one lookup each)
//     and short lists are scanned visited-only — existing candidates
//     stay exact, nobody new is admitted. Finally the set-aside blocks
//     are reconciled against the visited set, which restores every
//     known candidate's accumulator to exact while still never
//     admitting anyone from a skipped block.
//  2. Select: each candidate is first tested with a sqrt-free squared
//     comparison against the kth score (plus the deferred-tag bounds
//     its accumulator may lack), and only the ones that could still
//     matter pay for the exact rescore. An index with an owned set (see
//     cluster.go) has postings for owned resources only, so every
//     candidate is owned and selection needs no ownership test.
//
// From the second shard on the selector is already hot, so the cuts in
// phase 1 bite immediately; shard order is what powers the pruning.
//
// # Why the bounds stay valid under ingest
//
// Counts only ever grow (+1 per bump) and a resource's norm only grows
// with it, so an entry's stored impact — computed from the count and
// norm at its last bump — can only go stale HIGH: the true
// count/‖resource‖ of an untouched entry shrinks as other tags fatten
// the norm. Block, list and directory-row maxima are maintained as
// ratchets (they never decrease), which keeps every bound an upper
// bound at all times without rescanning. Bounds that are loose cost
// speed, never correctness.
//
// # How the order is maintained under ingest
//
// A +1 bump moves one entry: it swaps with the head of its run of equal
// counts and is bumped there, so the list stays count-descending with
// only two positions changed. The list carries no side structure for
// that — the entry is found by scanning for its id and the run head by
// binary search over the sorted prefix — because posting lists are
// short where ingest lands (see bmList for the census); a list that
// outgrows one block gets an id→slot index at that moment, so a scan
// never exceeds blockSize entries. Queries read none of this: they see
// entries, block maxima and the list max only.
//
// # Why pruning is bit-identical to the exhaustive path
//
// Pruning only ever decides which candidates NOT to score. Survivors
// are rescored with the exact float expressions of the exhaustive path:
// every dot is a sum of products of integers far below 2^53, hence
// exact and order-independent, and the score division/clamp repeats the
// exhaustive code rounding step for rounding step. A candidate is
// skipped only when an upper bound on its score — inflated by
// impactSlack at construction and boundSlack at comparison, many orders
// of magnitude beyond the few-ulp rounding of the bound arithmetic
// itself — is strictly below the current kth score. A skipped candidate
// therefore scores strictly below the threshold and could not have
// entered the top-k heap even on the id tiebreak; exact ties at the
// threshold are never skipped. Pruning activates only once the heap
// holds k entries, so the candidates-short-of-k regime (including
// TopK's zero-padding) degenerates to the exhaustive behaviour.
package ir

import (
	"math"
	"sort"
	"sync/atomic"

	"incentivetag/internal/tags"
)

// blockSize is the posting-block width: small enough that one skipped
// block avoids real accumulation work, large enough that the per-block
// bound check is amortized over a meaningful run of entries. It doubles
// as the defer cutoff: a list at least this long is worth ruling out of
// the scan entirely.
const blockSize = 128

const (
	// impactSlack inflates every stored impact so the two rounding steps
	// that produce it (sqrt, divide — each correctly rounded, ≤ one ulp)
	// can never round an impact BELOW the true count/‖resource‖. It also
	// pads the squared fast-reject comparison, whose operands are exact
	// integers with at most a few ulps of product rounding.
	impactSlack = 1 + 1e-12
	// boundSlack inflates every pruning comparison so the float
	// summation of per-tag bounds, the denominator rounding of the
	// exact score expression, and the algebraic rearrangements of the
	// skip conditions (a handful of ulps each) can never push a bound
	// below a score it must dominate. 1e-9 dwarfs the ~1e-16-relative
	// error of summing even millions of terms while costing nothing
	// measurable in pruning power.
	boundSlack = 1 + 1e-9
)

// bmEntry is one posting of a block-max list — deliberately 8 bytes, so
// the accumulation scans stream the narrowest possible working set. The
// entry's impact bound is not stored: it lives aggregated in the block
// and list ratchets and is recomputed from the dense norm cache on the
// rare occasions a single entry's bound is needed (a cross-block swap
// in bumpOne). A count is int32: overflowing it would take 2^31 posts
// of one tag on one resource, which the guard below turns into a loud
// failure instead of silent score corruption.
type bmEntry struct {
	id    int32
	count int32
}

// checkCount guards the int32 narrowing of posting counts.
func checkCount(count int64) int32 {
	if count <= 0 || count > math.MaxInt32 {
		panic("ir: posting count outside int32 range")
	}
	return int32(count)
}

// rowSlot is one shard's cell of a directory row: the shard's posting
// list and its entry count, colocated so a query can rule out an empty
// or absent shard without chasing the list pointer. n is maintained by
// the owning shard's writer under that shard's lock.
type rowSlot struct {
	pl *bmList
	n  int32
}

// dirRow is one tag's row of the index-wide tag directory: the tag's
// posting list in every shard (nil where the shard has none) and the
// max impact across all of them, so a query bounds the tag with one
// atomic load instead of a walk over the shard lists. The max is a
// ratchet; writers on different shards CAS it up concurrently.
type dirRow struct {
	maxBits atomic.Uint64 // float64 bits of the row-wide max impact
	slots   []rowSlot     // indexed by shard; pl written under censusMu
}

// ratchet raises the row max to at least imp.
func (r *dirRow) ratchet(imp float64) {
	bits := math.Float64bits(imp)
	for {
		old := r.maxBits.Load()
		if math.Float64frombits(old) >= imp {
			return
		}
		if r.maxBits.CompareAndSwap(old, bits) {
			return
		}
	}
}

// maxImpact reads the row-wide impact bound.
func (r *dirRow) maxImpact() float64 { return math.Float64frombits(r.maxBits.Load()) }

// bmList is one tag's shard-local posting list: entries sorted by count
// descending (ties in arrival order) plus the block/list impact
// ratchets. A +1 bump needs two positions — the entry's own and the head
// of its run of equal counts — and finds both from the entries alone: the
// entry by scanning for its id, the run head by binary search over the
// count-descending prefix before it. That is the cheapest thing to do for
// the lists ingest actually hits (at Figure-6 scale: 110 763 lists, p50 1
// / p99 5 / max 79 entries, 84 % of bumps in lists of ≤ 8 entries, none
// past one block — the scan stays inside a cache line or two, where a
// side map costs an allocation per list and a cache-missing probe per
// bump). Only a list that outgrows its first block gets an id→slot index,
// so the scan is bounded by blockSize whatever the data does. Field order
// keeps entries and maxImpact on the leading cache line: a single-block
// list (the overwhelmingly common shape) is scanned and bounded without
// touching the rest of the struct.
type bmList struct {
	entries   []bmEntry
	maxImpact float64 // whole-list max entry impact (ratchet)
	row       *dirRow // directory row this list belongs to (nil in unit tests)
	shard     int32   // this list's shard index within the row
	// slot maps id → index into entries. nil while the list fits one
	// block (len(entries) ≤ blockSize); built when the list outgrows it
	// (by the bump that appends entry blockSize+1, or by finalize) and
	// kept exact by every swap and append from then on.
	slot        map[int32]int32
	blockImpact []float64 // per-block max entry impact (ratchet)
}

// impactBound returns the stored upper bound on count/‖resource‖.
func impactBound(count int64, norm2 float64) float64 {
	if norm2 <= 0 {
		return 0 // unreachable: a posted count implies a positive norm
	}
	return float64(count) / math.Sqrt(norm2) * impactSlack
}

// seedAppend adds one entry during construction; finalize must run
// before the list serves queries or bumps.
func (pl *bmList) seedAppend(id int32, count int64) {
	pl.entries = append(pl.entries, bmEntry{id: id, count: checkCount(count)})
	pl.noteLen()
}

// noteLen mirrors the entry count into the directory row's slot so
// queries can size the list up without dereferencing it. Called under
// the owning shard's write lock.
func (pl *bmList) noteLen() {
	if pl.row != nil {
		pl.row.slots[pl.shard].n = int32(len(pl.entries))
	}
}

// finalize sorts the seeded entries into block-max form. norm2 resolves
// a resource id to its current squared norm.
func (pl *bmList) finalize(norm2 func(id int32) float64) {
	es := pl.entries
	sort.Slice(es, func(a, b int) bool {
		if es[a].count != es[b].count {
			return es[a].count > es[b].count
		}
		return es[a].id < es[b].id
	})
	pl.blockImpact = make([]float64, (len(es)+blockSize-1)/blockSize)
	for i := range es {
		e := &es[i]
		pl.bound(i/blockSize, impactBound(int64(e.count), norm2(e.id)))
	}
	if len(es) > blockSize {
		pl.indexSlots()
	}
}

// indexSlots builds the id→slot index of a list that has outgrown one
// block.
func (pl *bmList) indexSlots() {
	pl.slot = make(map[int32]int32, 2*len(pl.entries))
	for i, e := range pl.entries {
		pl.slot[e.id] = int32(i)
	}
}

// find returns the index of id's entry, or -1: one map probe when the
// list is indexed, otherwise a scan of its single block.
func (pl *bmList) find(id int32) int32 {
	if pl.slot != nil {
		if idx, ok := pl.slot[id]; ok {
			return idx
		}
		return -1
	}
	for i := range pl.entries {
		if pl.entries[i].id == id {
			return int32(i)
		}
	}
	return -1
}

// bound ratchets the block, list and directory-row impact maxima.
func (pl *bmList) bound(b int, imp float64) {
	if imp > pl.blockImpact[b] {
		pl.blockImpact[b] = imp
	}
	if imp > pl.maxImpact {
		pl.maxImpact = imp
		if pl.row != nil {
			pl.row.ratchet(imp)
		}
	}
}

// bumpOne adds one to the resource's posting (appending on first touch)
// while preserving the count-descending order: the entry swaps with the
// head of its equal-count run — the only two positions whose order
// changes — and is bumped there, which shrinks its old run by one from
// the left and extends (or founds) the count+1 run by one on the right.
// The run head is the first entry of the sorted prefix whose count is
// not above the entry's own. norm2After is the resource's squared norm
// with the post already applied and norms is the index's dense norm
// cache (used to re-derive the displaced run head's impact bound — its
// current norm only shrinks its true impact, so the fresh bound is
// valid, in fact tighter than the one it was stored under). The old,
// now-stale block maxima remain valid upper bounds. Reports whether a
// new entry was appended.
func (pl *bmList) bumpOne(id int32, norm2After float64, norms []float64) (appended bool) {
	if idx := pl.find(id); idx >= 0 {
		es := pl.entries
		c := es[idx].count
		if c == math.MaxInt32 {
			panic("ir: posting count outside int32 range")
		}
		j, hi := int32(0), idx
		for j < hi {
			if mid := (j + hi) >> 1; es[mid].count > c {
				j = mid + 1
			} else {
				hi = mid
			}
		}
		if j != idx {
			es[idx], es[j] = es[j], es[idx]
			if pl.slot != nil {
				pl.slot[es[idx].id] = idx
				pl.slot[id] = j
			}
			// The displaced run head moved into the bumped entry's block;
			// its impact must be covered there too.
			if bi, bj := int(idx)/blockSize, int(j)/blockSize; bi != bj {
				d := es[idx]
				if imp := impactBound(int64(d.count), norms[d.id]); imp > pl.blockImpact[bi] {
					pl.blockImpact[bi] = imp
				}
			}
		}
		es[j].count = c + 1
		pl.bound(int(j)/blockSize, impactBound(int64(c+1), norm2After))
		return false
	}
	// First touch: a count of 1 is ≤ every live count, so appending at
	// the tail preserves the descending order.
	j := int32(len(pl.entries))
	pl.entries = append(pl.entries, bmEntry{id: id, count: 1})
	if pl.slot != nil {
		pl.slot[id] = j
	} else if len(pl.entries) > blockSize {
		pl.indexSlots()
	}
	if int(j)%blockSize == 0 {
		pl.blockImpact = append(pl.blockImpact, 0)
	}
	pl.bound(int(j)/blockSize, impactBound(1, norm2After))
	pl.noteLen()
	return true
}

// planTag is one query tag's slice of the execution plan, built once
// per query: the tag's directory row and global score bound.
type planTag struct {
	row    *dirRow
	t      tags.Tag
	weight float64 // subject's count for the tag (1 for Search)
	bound  float64 // weight · max impact across shards / query norm
}

// deferredTag is a tag ruled out of the scan; survivors re-add its
// contribution with one Get.
type deferredTag struct {
	t      tags.Tag
	weight float64
}

// skipRange is a posting block set aside by the bound check, reconciled
// against the visited set at the end of the shard's accumulation.
type skipRange struct {
	ents   []bmEntry
	weight float64
}

// accCell is one resource's slot of the pooled accumulator: acc is the
// candidate's accumulated dot, valid only while gen matches the query's
// generation — one cache line per candidate touch, never cleared.
type accCell struct {
	gen uint32
	acc float64
}

// boundKey is the sort key of one plan entry: its bound and its index
// into the unsorted plan. Sorting these 16-byte keys instead of the
// plan entries themselves keeps the per-query sort cheap.
type boundKey struct {
	b float64
	i int32
}

// queryScratch is the pooled per-query state that makes the serving
// read path allocation-free: the generation-stamped accumulator cells
// sized to the corpus (doubling as the zero-padding exclusion set), the
// candidate list, the tag plan with its sort keys and suffix-bound
// table, the deferred/skipped work lists, and the selector's heap
// backing.
type queryScratch struct {
	cells    []accCell
	gen      uint32
	cands    []int32
	support  []tags.Tag
	weights  []float64
	plan     []planTag
	keys     []boundKey
	deferred []deferredTag
	skips    []skipRange
	suffix   []float64
	heap     scoredHeap
}

// addWeight appends one (tag, count) of the query subject to the lifted
// support and weights.
func (sc *queryScratch) addWeight(t tags.Tag, n int64) {
	sc.support = append(sc.support, t)
	sc.weights = append(sc.weights, float64(n))
}

// getScratch checks a scratch out of the pool and opens a fresh visited
// generation.
func (ix *OnlineIndex) getScratch() *queryScratch {
	sc, _ := ix.scratchPool.Get().(*queryScratch)
	if sc == nil {
		sc = &queryScratch{cells: make([]accCell, ix.n)}
	}
	sc.gen++
	if sc.gen == 0 { // generation counter wrapped: restamp from scratch
		clear(sc.cells)
		sc.gen = 1
	}
	return sc
}

func (ix *OnlineIndex) putScratch(sc *queryScratch) { ix.scratchPool.Put(sc) }

// prunedQuery carries one query's immutable facts across the per-shard
// executors.
type prunedQuery struct {
	subject  int // global id to exclude from candidates; -1 for Search
	tags     []tags.Tag
	weights  []float64 // parallel to tags: the subject's counts (nil for Search)
	subjNorm float64   // TopK: ‖subject‖ (hoisted once)
	qNorm2   float64   // Search: |query| after dedup
	search   bool
}

// pruneStats accumulates one query's pruning counters locally; they are
// folded into the index's atomics once at the end of the query.
type pruneStats struct {
	blocksSkipped uint64
	tagsDeferred  uint64
	scored        uint64
}

// runPruned executes the block-max pruned query and finalizes the
// ranking. The plan (directory row, global bound and suffix table per
// query tag) is built once; the shards then execute in order against
// ONE shared selector under the same all-shards read view. That order
// is what powers the pruning: the first shard's selection phase fills
// the heap, so every later shard starts with a hot kth-score threshold
// and can defer whole tags and skip whole blocks outright — and the
// per-shard partial top-k heaps of the design collapse into the shared
// selector, making the final merge free. pad controls the
// zero-similarity padding of TopK semantics (Search never pads).
func (ix *OnlineIndex) runPruned(pq *prunedQuery, k int, sc *queryScratch, pad bool) []Scored {
	sel := topKSelector{k: k, h: sc.heap[:0]}
	var ps pruneStats
	qnorm := pq.subjNorm
	if pq.search {
		qnorm = math.Sqrt(pq.qNorm2)
	}
	invQ := 1 / qnorm
	// Plan: one directory lookup and one atomic bound load per query
	// tag. The directory is safe to read lock-free here: every write to
	// it happens under a shard write lock, and the caller holds every
	// shard's read lock.
	plan := sc.plan[:0]
	for i, t := range pq.tags {
		row := ix.dir[t]
		if row == nil {
			continue
		}
		gmax := row.maxImpact()
		if gmax == 0 {
			continue
		}
		w := 1.0
		if !pq.search {
			w = pq.weights[i]
		}
		plan = append(plan, planTag{row: row, t: t, weight: w, bound: w * gmax * invQ})
	}
	sc.plan = plan
	if len(plan) > 0 {
		// Most promising tags first. The sort moves 16-byte keys, not
		// plan entries, and must not allocate (insertion sort: plans are
		// small); the sorted order is then written back by one gather
		// pass through the keys.
		keys := sc.keys[:0]
		for i := range plan {
			keys = append(keys, boundKey{b: plan[i].bound, i: int32(i)})
		}
		sc.keys = keys
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j].b > keys[j-1].b; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		suffix := sc.suffix
		if cap(suffix) < len(plan)+1 {
			suffix = make([]float64, len(plan)+1)
		}
		suffix = suffix[:len(plan)+1]
		sc.suffix = suffix
		suffix[len(plan)] = 0
		for i := len(plan) - 1; i >= 0; i-- {
			suffix[i] = suffix[i+1] + keys[i].b
		}
		for s := range ix.shards {
			ix.pruneShard(s, pq, qnorm, &sel, sc, &ps)
		}
	}
	if pad && sel.len() < k {
		// Short of k candidates means the heap never filled, so nothing
		// was ever pruned: every overlapping candidate is in the visited
		// set, exactly the exclusion set the exhaustive padding uses.
		for id := 0; id < ix.n && sel.len() < k; id++ {
			if id == pq.subject || sc.cells[id].gen == sc.gen || !ix.owns(id) {
				continue
			}
			sel.push(id, 0)
		}
	}
	ix.blocksSkipped.Add(ps.blocksSkipped)
	ix.tagsDeferred.Add(ps.tagsDeferred)
	ix.candidatesScored.Add(ps.scored)
	res := sel.results()
	sc.heap = sel.h
	return res
}

// pruneShard runs one shard's two-phase MaxScore scan (see the package
// header): exact term-at-a-time accumulation with tag-defer, block-skip
// and visited-only pruning, then selection with a sqrt-free fast-reject
// and exact rescoring of the survivors. The global per-tag bounds of
// the shared plan over-estimate any single shard's lists, so every cut
// below remains an upper-bound comparison; shard-resident candidates
// owe contributions only to shard-resident lists, which keeps the
// missing-mass bookkeeping shard-local.
func (ix *OnlineIndex) pruneShard(s int, pq *prunedQuery, qnorm float64, sel *topKSelector, sc *queryScratch, ps *pruneStats) {
	plan, suffix := sc.plan, sc.suffix
	// The threshold cannot move during accumulation (nothing is pushed
	// until selection), so it is hoisted out of every pruning check,
	// along with its slack-discounted form used by the rearranged
	// per-block condition.
	th, full := sel.threshold()
	thDiv := th / boundSlack

	// The subject is excluded during the scan; it can only appear in the
	// shard that owns it, so the other shards run the checkless loop.
	subj := int32(-1)
	if pq.subject >= 0 && pq.subject%len(ix.shards) == s {
		subj = int32(pq.subject)
	}

	// Phase 1 — accumulate. missing collects the per-candidate mass any
	// NOT-YET-VISITED resource may have foregone so far (the largest
	// skipped-block bound per tag, plus every deferred or visited-only
	// tag's whole bound via the suffix at the essential/non-essential
	// boundary); the skip conditions compare against it so nobody
	// unvisited can beat the threshold. Visited candidates end the phase
	// EXACT except for deferred tags: set-aside blocks are reconciled
	// below, and visited-only scans apply to them in full — so the
	// selection phase only carries deferBound, the deferred tags' sum.
	cands := sc.cands[:0]
	deferred := sc.deferred[:0]
	skips := sc.skips[:0]
	cells := sc.cells
	gen := sc.gen
	keys := sc.keys
	missing, deferBound := 0.0, 0.0
	for i := range keys {
		e := &plan[keys[i].i]
		sl := &e.row.slots[s]
		if sl.n == 0 {
			continue
		}
		entries := sl.pl.entries
		w := e.weight
		if full && (missing+suffix[i])*boundSlack < th {
			// Non-essential: no candidate first discovered here or later
			// can reach the heap; the remaining lists only owe
			// contributions to already known candidates. A long list is
			// DEFERRED — never scanned, survivors re-add it with one Get
			// (posting-list skew makes these the popular, dense-id tags) —
			// while a short list is cheaper to scan visited-only than to
			// complete lookup by lookup. Both count as a deferred tag:
			// the MaxScore condition ruled the whole list out of
			// candidate discovery.
			ps.tagsDeferred++
			if len(entries) >= blockSize {
				deferred = append(deferred, deferredTag{t: e.t, weight: w})
				missing += e.bound
				deferBound += e.bound
				continue
			}
			for _, en := range entries {
				if c := &cells[en.id]; c.gen == gen {
					c.acc += w * float64(en.count)
				}
			}
			continue
		}
		// Essential: full scan, founding candidates, except blocks the
		// bound check sets aside. The per-block condition
		// (missing+blk+suffix)·boundSlack < th is rearranged into a
		// division-free per-tag limit on weight·blockImpact; the
		// rearrangement's few ulps live inside boundSlack's margin.
		blkLimit := 0.0 // weight·impact is positive, so 0 disables skips
		if full {
			blkLimit = (thDiv - missing - suffix[i+1]) * qnorm
		}
		if len(entries) <= blockSize {
			// Single block: its bound is the list max, already on the
			// cache line the entries header lives on.
			if wbi := w * sl.pl.maxImpact; wbi < blkLimit {
				ps.blocksSkipped++
				skips = append(skips, skipRange{ents: entries, weight: w})
				missing += wbi / qnorm
				continue
			}
			if subj < 0 {
				for _, en := range entries {
					if c := &cells[en.id]; c.gen == gen {
						c.acc += w * float64(en.count)
					} else {
						c.gen = gen
						c.acc = w * float64(en.count)
						cands = append(cands, en.id)
					}
				}
			} else {
				for _, en := range entries {
					if en.id == subj {
						continue
					}
					if c := &cells[en.id]; c.gen == gen {
						c.acc += w * float64(en.count)
					} else {
						c.gen = gen
						c.acc = w * float64(en.count)
						cands = append(cands, en.id)
					}
				}
			}
			continue
		}
		tagSkipMax := 0.0
		for lo := 0; lo < len(entries); lo += blockSize {
			hi := lo + blockSize
			if hi > len(entries) {
				hi = len(entries)
			}
			if wbi := w * sl.pl.blockImpact[lo/blockSize]; wbi < blkLimit {
				// Set the block aside: it cannot found a viable candidate,
				// and its contributions to already-found ones are
				// reconciled after the tag loop.
				ps.blocksSkipped++
				if blk := wbi / qnorm; blk > tagSkipMax {
					tagSkipMax = blk
				}
				skips = append(skips, skipRange{ents: entries[lo:hi], weight: w})
				continue
			}
			if subj < 0 {
				for _, en := range entries[lo:hi] {
					if c := &cells[en.id]; c.gen == gen {
						c.acc += w * float64(en.count)
					} else {
						c.gen = gen
						c.acc = w * float64(en.count)
						cands = append(cands, en.id)
					}
				}
			} else {
				for _, en := range entries[lo:hi] {
					if en.id == subj {
						continue
					}
					if c := &cells[en.id]; c.gen == gen {
						c.acc += w * float64(en.count)
					} else {
						c.gen = gen
						c.acc = w * float64(en.count)
						cands = append(cands, en.id)
					}
				}
			}
		}
		if tagSkipMax > 0 {
			missing += tagSkipMax
		}
	}
	// Reconcile the set-aside blocks: visited candidates regain their
	// exact contribution (an entry appears at most once per list, so
	// nothing double-counts); unvisited resources stay out, covered by
	// the skip conditions above. The subject is never visited, so it
	// needs no check here.
	for _, sr := range skips {
		w := sr.weight
		for _, en := range sr.ents {
			if c := &cells[en.id]; c.gen == gen {
				c.acc += w * float64(en.count)
			}
		}
	}
	sc.cands, sc.deferred, sc.skips = cands, deferred, skips
	if len(cands) == 0 {
		return
	}

	// Phase 2 — select. Every candidate's accumulator is exact except
	// for the deferred tags, so deferBound is all the fast-reject must
	// allow for; gate is the reject constant, refreshed only when the
	// threshold moves.
	denom2 := pq.qNorm2
	if !pq.search {
		denom2 = pq.subjNorm * pq.subjNorm
	}
	// Fast reject without a sqrt: a candidate's score is at most
	// acc/(qnorm·√n2) + deferBound, so with q := th/boundSlack −
	// deferBound it cannot reach the heap when acc² < q²·qnorm²·n2
	// (compared with slack; borderline candidates fall through to the
	// exact path, so ties at the threshold are never lost).
	gate := 0.0
	if full {
		if q := thDiv - deferBound; q > 0 {
			gate = q * q * denom2
		}
	}
	norms := ix.norm2
	for _, id32 := range cands {
		id := int(id32)
		n2 := norms[id]
		if n2 == 0 { // no posts or zero norm: the exhaustive paths skip these too
			continue
		}
		a := cells[id].acc
		if gate > 0 && a*a*impactSlack < gate*n2 {
			continue
		}
		// Exact rescore: every dot below is a sum of products of integers
		// far below 2^53 — exact, order-independent, and therefore
		// bit-identical to the exhaustive path's posting accumulation —
		// and the score expression repeats the exhaustive one rounding
		// step for rounding step.
		dot := a
		if len(deferred) > 0 {
			// A cold survivor reads its deferred mass off its record,
			// transiently: it stays cold.
			if o := ix.vecs.ViewCounts(id); o != nil {
				for j := range deferred {
					if c := o.Get(deferred[j].t); c != 0 {
						dot += deferred[j].weight * float64(c)
					}
				}
			} else {
				dot += ix.coldDeferredDot(id, deferred)
			}
		}
		var sv float64
		if pq.search {
			sv = dot / math.Sqrt(pq.qNorm2*n2)
		} else {
			sv = dot / (pq.subjNorm * math.Sqrt(n2))
		}
		if sv > 1 {
			sv = 1
		}
		sel.push(id, sv)
		ps.scored++
		if nth, nfull := sel.threshold(); nfull && (!full || nth != th) {
			th, full = nth, nfull
			thDiv = th / boundSlack
			gate = 0
			if q := thDiv - deferBound; q > 0 {
				gate = q * q * denom2
			}
		}
	}
}

// coldDeferredDot is the deferred-tag rescue for a COLD candidate: the
// deferred tags' contribution streamed off its record in one pass, with
// no rehydration. Each term is an exact integer product, so the record
// order sums bit-identically to the hot path's deferred-order Get loop.
// It is out of line because its callback captures the sum: inside
// pruneShard, that capture would move the hot path's dot to the heap for
// every candidate.
func (ix *OnlineIndex) coldDeferredDot(id int, deferred []deferredTag) float64 {
	dot := 0.0
	ix.vecs.ViewEntries(id, func(t tags.Tag, n int64) {
		for j := range deferred {
			if deferred[j].t == t {
				dot += deferred[j].weight * float64(n)
				return
			}
		}
	})
	return dot
}
