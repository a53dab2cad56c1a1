// Cluster query surface: the node-side half of scatter-gather queries.
//
// A sharded cluster partitions resources across nodes by ownership (the
// gateway's consistent-hash ring). Each node holds full live state only
// for the resources it OWNS — every other resource sits at its primed
// boot state, because the gateway routed all of its live posts to its
// owner. A node answering a cluster query therefore must (a) score only
// owned resources and (b) accept the query vector from outside: for a
// gateway /topk the subject's count vector lives on the subject's owner
// node, which exports it beside its own partial ranking (SubjectTopK);
// the gateway ships it to every other node as an explicit
// integer-weighted query (TopKWeighted).
//
// Ownership reaches the index as data — a dense set with one entry per
// resource, materialised once at boot from the static shard map — and
// both queries run the same block-max pruned executor as TopK and
// Search (blockmax.go), with the set as a filter on which candidates
// may be selected or padded in.
//
// # Why filtering preserves the pruning bounds
//
// Every bound the executor cuts with (directory row, list, block,
// suffix sums) is an upper bound on what a posting can contribute to
// ANY resource's score. Restricting the candidates to a subset removes
// resources, never adds score, so each bound still dominates every
// remaining candidate; the kth-score threshold is taken from owned
// candidates only, so a cut made against it can only discard candidates
// that could not have entered the owned top-k. Survivors are rescored
// by the executor's one exact expression, which is why an owned query
// is bit-identical to an exhaustive scan of the owned resources
// (asserted against a test-only oracle) and, with a nil set and the
// subject's own vector, to TopK.
//
// # Why the merged answer is bit-identical to a single node
//
// Every quantity entering a score is an exact small integer in float64:
// posting counts, query weights (the subject's counts), and the dot
// products (sums of integer products stay exactly representable, so
// float addition is associative here and per-node partial accumulation
// is exact). A candidate's score computed on its owner node therefore
// has the same bits the single-node engine would produce. Ranking is a
// strict total order (score desc, id asc; ids unique), so merging
// per-node top-k lists under the same comparator and truncating to k
// reproduces the global top-k exactly. Zero-padding composes the same
// way: each node pads its own owned, non-overlapping resources
// smallest-id-first, so the union of per-node lists always contains the
// k globally smallest padding candidates a single node would have
// chosen.
package ir

import (
	"math"

	"incentivetag/internal/tags"
)

// WeightedTag is one (tag, count) component of an externally-supplied
// integer-weighted query vector — the wire form of a resource's rfd
// counts.
type WeightedTag struct {
	Tag   tags.Tag
	Count int64
}

// RFDEntries exports resource id's live count vector as weighted tags
// (ascending tag order) plus its squared norm, post count and the epoch
// of the consistent view it was read under — the query a TopKWeighted
// scatter ranks against. Returns nil entries for an out-of-range id.
func (ix *OnlineIndex) RFDEntries(id int) (entries []WeightedTag, norm2 float64, posts int, epoch uint64) {
	if id < 0 || id >= ix.n {
		return nil, 0, 0, ix.epoch.Load()
	}
	ix.rlockAll()
	defer ix.runlockAll()
	entries, norm2, posts = ix.rfdEntriesLocked(id)
	return entries, norm2, posts, ix.epoch.Load()
}

// rfdEntriesLocked is RFDEntries under the caller's read view.
func (ix *OnlineIndex) rfdEntriesLocked(id int) (entries []WeightedTag, norm2 float64, posts int) {
	sh, l := ix.locate(id)
	if c := sh.vecs[l]; c != nil {
		entries = make([]WeightedTag, 0, c.Len())
		for _, t := range c.Support() {
			entries = append(entries, WeightedTag{Tag: t, Count: c.Get(t)})
		}
		return entries, c.Norm2(), c.Posts()
	}
	// Cold resource: stream the frozen blob transiently — exporting a
	// subject's rfd does not make it hot. The squared norm is re-summed
	// from the same exact integers Norm2 accumulated, so the wire values
	// are bit-identical either way.
	entries = []WeightedTag{}
	posts = scanFrozenVec(sh.frozen[l], id, func(t tags.Tag, c int64) {
		entries = append(entries, WeightedTag{Tag: t, Count: c})
		norm2 += float64(c) * float64(c)
	})
	return entries, norm2, posts
}

// TopKWeighted runs a top-k similarity query against an explicit
// integer-weighted query vector, restricted to the resources owned
// admits (one entry per resource; nil admits all), excluding resource
// `exclude` (the subject, which must never rank against itself; pass a
// negative id to exclude nothing). qNorm2 is the query vector's exact
// squared norm (the subject's Norm2 on its owner node). Counts must be
// positive, as an rfd's are: the pruning bounds scale with them.
//
// For owned == nil, query == subject's own rfd and exclude == subject
// it is bit-identical to TopK at the same epoch, and a cluster's
// per-node partitions merge into exactly the single-node ranking.
func (ix *OnlineIndex) TopKWeighted(query []WeightedTag, qNorm2 float64, exclude, k int, owned []bool) ([]Scored, uint64) {
	ix.topkQueries.Add(1)
	if k <= 0 {
		return nil, ix.epoch.Load()
	}
	ix.rlockAll()
	epoch := ix.epoch.Load()
	return ix.topKWeightedLocked(query, qNorm2, exclude, k, owned), epoch
}

// topKWeightedLocked is TopKWeighted's body: it runs under the caller's
// read view and releases it.
func (ix *OnlineIndex) topKWeightedLocked(query []WeightedTag, qNorm2 float64, exclude, k int, owned []bool) []Scored {
	if exclude >= ix.n {
		exclude = -1 // names no indexed resource; keep it out of the int32 id space
	}
	sc := ix.getScratch()
	pq := prunedQuery{subject: exclude, subjNorm: math.Sqrt(qNorm2), owned: owned}
	if pq.subjNorm > 0 {
		// A zero-norm query keeps an empty plan and goes straight to
		// zero-similarity padding, like TopK's zero-norm subject.
		sc.support, sc.weights = sc.support[:0], sc.weights[:0]
		for _, wt := range query {
			sc.support = append(sc.support, wt.Tag)
			sc.weights = append(sc.weights, float64(wt.Count))
		}
		pq.tags, pq.weights = sc.support, sc.weights
	}
	res := ix.runPruned(&pq, k, sc, true)
	ix.endQuery(sc)
	return res
}

// SubjectTopK is the owner's leg of a scatter-gather /topk: under ONE
// read view it exports the subject's rfd (as RFDEntries does) and ranks
// the owned resources against it (as TopKWeighted does), so the vector
// every other node will rank against and the owner's own partial
// ranking are of the same epoch. Two calls cannot promise that: a post
// to the subject may land between them. Invalid subjects or k ≤ 0
// return nil entries.
func (ix *OnlineIndex) SubjectTopK(subject, k int, owned []bool) (entries []WeightedTag, norm2 float64, top []Scored, epoch uint64) {
	ix.topkQueries.Add(1)
	if k <= 0 || subject < 0 || subject >= ix.n {
		return nil, 0, nil, ix.epoch.Load()
	}
	ix.rlockAll()
	epoch = ix.epoch.Load()
	entries, norm2, _ = ix.rfdEntriesLocked(subject)
	return entries, norm2, ix.topKWeightedLocked(entries, norm2, subject, k, owned), epoch
}

// SearchOwned is Search restricted to the resources owned admits (nil
// admits all): the node-side half of a scatter-gather /search. Per-node
// answers merge into exactly the single-node ranking under the
// (score desc, id asc) comparator.
func (ix *OnlineIndex) SearchOwned(query tags.Post, k int, owned []bool) ([]Scored, uint64) {
	ix.searchQueries.Add(1)
	query = normalizeQuery(query)
	if k <= 0 || len(query) == 0 || ix.n == 0 {
		return nil, ix.epoch.Load()
	}
	ix.rlockAll()
	epoch := ix.epoch.Load()
	sc := ix.getScratch()
	// The query vector's squared norm is |query| exactly (unit counts
	// over distinct tags). The score expression mirrors
	// sparse.Counts.Cosine term for term (single sqrt of the norm
	// product, same clamping), so a Search score is bit-identical to
	// Cosine against a count vector holding the query.
	pq := prunedQuery{subject: -1, tags: query, qNorm2: float64(len(query)), search: true, owned: owned}
	res := ix.runPruned(&pq, k, sc, false)
	ix.endQuery(sc)
	return res, epoch
}
