// Plain posting lists and the one scoring kernel of the online index.
//
// Each (shard, tag) posting list holds (id, count) pairs in arrival
// order. A post bumps one count per tag, or appends a pair on the
// resource's first use of the tag; nothing is ordered, bounded or
// blocked. Every ranking the index serves is two steps over those lists:
//
//  1. accumulate adds a query's (tag, weight) support into a dense dot
//     row: row[r] gains weight·count for every posting of every query
//     tag, so it ends as the exact dot product of the query with r's
//     counts (zero exactly when r shares no query tag). The row also
//     lists its non-zero cells, so ranking and clearing it cost the
//     candidates, not the corpus.
//  2. rank turns a row into the answer: the shared score expression
//     (topkScore, or Search's dot/√(q·n2)), the shared selector, a
//     sqrt-free fast reject against the running kth score, and TopK's
//     zero-similarity padding (padTopK).
//
// A TopK miss, TopKWeighted, SubjectTopK and Search build their row in a
// pooled scratch row and clear it after ranking; the result cache builds
// a row it keeps and folds later posts into (topkcache.go). Both read
// only posting lists and the dense norm² cache, so a cold candidate is
// scored without touching its record; only a cold subject's support is
// read off its record, transiently.
//
// # Why there is no pruning
//
// A block-max MaxScore executor served these queries before: lists kept
// count-descending in blocks with impact upper bounds, whole tags and
// blocks skipped against the kth score. Measured with the cache bypassed
// (top-10, 2 vCPU), it lost to this plain scan at the served corpus size
// — 40–46 µs against 30–33 µs at n = 2 000 — and won only at ten times
// that corpus (177–224 µs against 251–275 µs at n = 20 000), while every
// post paid to keep its order and bounds. n = 20 000 is the scale at
// which to revisit it.
//
// # Why every path is bit-identical to BuildInverted
//
// Every dot is a sum of products of integers far below 2^53, hence exact
// in float64 and independent of the order the lists are walked in, and
// every path scores it with the one expression the oracle uses. The fast
// reject drops a candidate only when its score is provably strictly below
// the kth score (see rejectGate); exact ties at the threshold fall through
// to the exact score and the id tiebreak.
package ir

import (
	"math"

	"incentivetag/internal/tags"
)

// scanMax is the longest posting list whose id lookup is a scan; a
// longer list keeps an id→slot index. At Figure-6 scale (110 763 lists,
// p50 1 / p99 5 / max 79 entries) no list reaches it, and a scan inside
// a cache line or two beats a map probe. On ingest-http's steady state
// a bump scans ~5 entries on average, 0.9 % of bumps append, and no
// shard list passes scanMax.
const scanMax = 128

// rejectSlack pads the fast reject's squared comparison, whose operands
// are exact integers or carry at most a few ulps of product rounding, so
// it never rejects a candidate whose computed score reaches the kth.
const rejectSlack = 1 + 1e-9

// listEntry is one posting of an online list — 8 bytes, so accumulation
// streams the narrowest working set. A count is int32: overflowing it
// would take 2^31 posts of one tag on one resource, which checkCount
// turns into a loud failure instead of silent score corruption.
type listEntry struct {
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

// postingList is one tag's shard-local posting list, in arrival order.
// slot maps id → index into entries once the list is longer than
// scanMax, and is nil until then.
type postingList struct {
	entries []listEntry
	slot    map[int32]int32
}

// find returns the index of id's entry, or -1.
func (pl *postingList) find(id int32) int {
	if pl.slot != nil {
		if i, ok := pl.slot[id]; ok {
			return int(i)
		}
		return -1
	}
	for i := range pl.entries {
		if pl.entries[i].id == id {
			return i
		}
	}
	return -1
}

// add appends id's first posting with the given count.
func (pl *postingList) add(id int32, count int64) {
	pl.entries = append(pl.entries, listEntry{id: id, count: checkCount(count)})
	if pl.slot != nil {
		pl.slot[id] = int32(len(pl.entries) - 1)
	} else if len(pl.entries) > scanMax {
		pl.slot = make(map[int32]int32, 2*len(pl.entries))
		for i, e := range pl.entries {
			pl.slot[e.id] = int32(i)
		}
	}
}

// bump adds one to id's posting, appending it on id's first use of the
// tag, and reports whether it appended.
func (pl *postingList) bump(id int32) (appended bool) {
	if i := pl.find(id); i >= 0 {
		pl.entries[i].count = checkCount(int64(pl.entries[i].count) + 1)
		return false
	}
	pl.add(id, 1)
	return true
}

// dotRow is a dense dot row over the corpus plus the ids of its non-zero
// cells, in first-touch order. Weights and counts are positive, so a
// cell only grows and ids never lists one twice.
type dotRow struct {
	dot []float64
	ids []int32
}

// add adds x > 0 to id's cell.
func (r *dotRow) add(id int32, x float64) {
	if r.dot[id] == 0 {
		r.ids = append(r.ids, id)
	}
	r.dot[id] += x
}

// reset zeroes the row's non-zero cells.
func (r *dotRow) reset() {
	for _, id := range r.ids {
		r.dot[id] = 0
	}
	r.ids = r.ids[:0]
}

// queryScratch is the pooled per-query state that keeps the read path
// allocation-free apart from its result: a dot row sized to the corpus
// (all zero between queries), the lifted query support, and the
// selector's heap backing.
type queryScratch struct {
	row   dotRow
	query []WeightedTag
	heap  scoredHeap
}

// addTag appends one (tag, count) of a subject's support to the query.
func (sc *queryScratch) addTag(t tags.Tag, n int64) {
	sc.query = append(sc.query, WeightedTag{Tag: t, Count: n})
}

func (ix *OnlineIndex) getScratch() *queryScratch {
	sc, _ := ix.scratchPool.Get().(*queryScratch)
	if sc == nil {
		sc = &queryScratch{row: dotRow{dot: make([]float64, ix.n)}}
	}
	sc.query = sc.query[:0]
	return sc
}

func (ix *OnlineIndex) putScratch(sc *queryScratch) { ix.scratchPool.Put(sc) }

// lift loads the subject's support into the scratch query, under the
// caller's view. The exact-integer dots make every downstream sum
// order-independent, so the ascending order Support would give buys
// nothing here.
func (ix *OnlineIndex) lift(sc *queryScratch, subject int) {
	if c := ix.vecs.ViewCounts(subject); c != nil {
		c.ForEach(sc.addTag)
	} else {
		// A cold subject streams off its owner's record and stays cold;
		// only this branch pays for a callback escaping through Vectors.
		ix.vecs.ViewEntries(subject, sc.addTag)
	}
}

// accumulate adds q into the dot row: every posting of every query tag
// adds weight·count to its resource's cell. Caller holds the view.
func (ix *OnlineIndex) accumulate(r *dotRow, q []WeightedTag) {
	for _, wt := range q {
		w := float64(wt.Count)
		for _, pl := range ix.dir.get(wt.Tag).lists {
			for _, e := range pl.entries {
				r.add(e.id, w*float64(e.count))
			}
		}
	}
}

// rank ranks a dot row for k against a query of squared norm qNorm2:
// every resource but exclude with a non-zero dot and a non-zero norm is
// a candidate, scored by topkScore, or by Search's dot/√(q·n2) when
// search is set. A TopK ranking (search unset) is padded at score 0 with
// the resources the row does not overlap. h lends the selector its
// heap backing and gets it back.
func (ix *OnlineIndex) rank(r *dotRow, exclude int, qNorm2 float64, search bool, k int, h *scoredHeap) []Scored {
	sel := topKSelector{k: k, h: (*h)[:0]}
	qNorm := math.Sqrt(qNorm2)
	gate, scored := 0.0, uint64(0)
	for _, id32 := range r.ids {
		id := int(id32)
		if id == exclude {
			continue
		}
		d, n2 := r.dot[id], ix.norm2[id]
		if n2 == 0 || d*d*rejectSlack < gate*n2 {
			continue
		}
		var s float64
		if search {
			if s = d / math.Sqrt(qNorm2*n2); s > 1 {
				s = 1
			}
		} else {
			s = topkScore(d, qNorm, n2)
		}
		sel.push(id, s)
		scored++
		if th, full := sel.threshold(); full {
			gate = rejectGate(th, qNorm2)
		}
	}
	if !search {
		padTopK(&sel, ix.n, exclude, func(id int) bool { return r.dot[id] != 0 })
	}
	ix.candidatesScored.Add(scored)
	res := sel.results()
	*h = sel.h
	return res
}

// rejectGate is rank's sqrt-free fast reject for a kth score th: a
// candidate's score d/(√qNorm2·√n2) is below th when d² < th²·qNorm2·n2,
// so rank rejects when d²·rejectSlack < gate·n2. The slack dwarfs the few
// ulps of rounding on either side, so a candidate whose computed score
// ties th is never rejected.
func rejectGate(th, qNorm2 float64) float64 { return th * th * qNorm2 }

// execute scores q in the scratch row and ranks it (see rank), leaving
// the row clear. A zero-norm query scores nothing: a TopK ranking is then
// all padding.
func (ix *OnlineIndex) execute(sc *queryScratch, q []WeightedTag, exclude int, qNorm2 float64, search bool, k int) []Scored {
	if qNorm2 > 0 {
		ix.accumulate(&sc.row, q)
	}
	res := ix.rank(&sc.row, exclude, qNorm2, search, k, &sc.heap)
	sc.row.reset()
	return res
}
