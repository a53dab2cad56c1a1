// Cluster query surface: the node-side half of scatter-gather queries.
//
// A sharded cluster partitions resources across nodes by ownership (the
// gateway's consistent-hash ring). Each member's engine, and so its
// index, holds its OWNED resources only, under dense local slots given
// in ascending global id order; the public Service translates ids at
// its edge and nothing here knows the global ones. A node answering a
// cluster query ranks what it holds and must accept the query vector
// from outside: for a gateway /topk the subject's count vector lives on
// the subject's owner node, which exports it beside its own partial
// ranking (SubjectTopK); the gateway ships it to every other node as an
// explicit integer-weighted query (TopKWeighted).
//
// Every query a member serves (TopK, Search and the two below) runs the
// one kernel (kernel.go) over its own postings, padded with its own
// resources. Its index holds every posting of every resource it owns,
// so each cell of its row holds the exact dot a full index would; with
// the subject's own vector, TopKWeighted is TopK. Slots are monotone in
// global id, so the (score desc, id asc) order of a member's answer is
// the same in either id space.
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
// way: each node pads its own non-overlapping resources
// smallest-id-first, so the union of per-node lists always contains the
// k globally smallest padding candidates a single node would have
// chosen.
package ir

import "incentivetag/internal/tags"

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
	if c := ix.vecs.ViewCounts(id); c != nil {
		entries = make([]WeightedTag, 0, c.Len())
		for _, t := range c.Support() {
			entries = append(entries, WeightedTag{Tag: t, Count: c.Get(t)})
		}
		return entries, c.Norm2(), c.Posts()
	}
	return ix.coldEntries(id)
}

// coldEntries streams a cold resource's record transiently (ascending
// tags) — it stays cold. The squared norm is re-summed from the same
// exact integers Norm2 accumulated, so the wire values are bit-identical
// either way. It is out of line because its callback captures the
// results, which would otherwise move to the heap for hot subjects too.
func (ix *OnlineIndex) coldEntries(id int) (entries []WeightedTag, norm2 float64, posts int) {
	entries = []WeightedTag{}
	posts = ix.vecs.ViewEntries(id, func(t tags.Tag, c int64) {
		entries = append(entries, WeightedTag{Tag: t, Count: c})
		norm2 += float64(c) * float64(c)
	})
	return entries, norm2, posts
}

// TopKWeighted runs a top-k similarity query against an explicit
// integer-weighted query vector over every resource the index holds,
// excluding resource `exclude` (the
// subject, which must never rank against itself; pass a negative id to
// exclude nothing). qNorm2 is the query vector's exact squared norm (the
// subject's Norm2 on its owner node). Counts must be positive, as an
// rfd's are: the padding takes a zero dot for "no overlap", which a
// non-positive weight could fake. owned must be nil — it remains only
// for callers of the five-argument form, since an index ranks what it
// holds — and a non-nil set panics.
//
// For query == subject's own rfd and exclude == subject it is
// bit-identical to TopK on the same index at the same epoch, and a
// cluster's per-node partitions merge into exactly the single-node
// ranking.
func (ix *OnlineIndex) TopKWeighted(query []WeightedTag, qNorm2 float64, exclude, k int, owned []bool) ([]Scored, uint64) {
	if owned != nil {
		panic("ir: TopKWeighted ranks what the index holds; pass a nil owned set")
	}
	ix.topkQueries.Add(1)
	if k <= 0 {
		return nil, ix.epoch.Load()
	}
	ix.rlockAll()
	epoch := ix.epoch.Load()
	return ix.topKWeightedLocked(query, qNorm2, exclude, k), epoch
}

// topKWeightedLocked is TopKWeighted's body: it runs under the caller's
// read view and releases it.
func (ix *OnlineIndex) topKWeightedLocked(query []WeightedTag, qNorm2 float64, exclude, k int) []Scored {
	if exclude >= ix.n {
		exclude = -1 // names no indexed resource; keep it out of the int32 id space
	}
	sc := ix.getScratch()
	res := ix.execute(sc, query, exclude, qNorm2, false, k)
	ix.putScratch(sc)
	ix.runlockAll()
	return res
}

// SubjectTopK is the owner's leg of a scatter-gather /topk: under ONE
// read view it exports the subject's rfd (as RFDEntries does) and ranks
// the index's resources against it (as TopKWeighted does), so the vector
// every other node will rank against and the owner's own partial
// ranking are of the same epoch. Two calls cannot promise that: a post
// to the subject may land between them. Invalid subjects or k ≤ 0
// return nil entries.
func (ix *OnlineIndex) SubjectTopK(subject, k int) (entries []WeightedTag, norm2 float64, top []Scored, epoch uint64) {
	ix.topkQueries.Add(1)
	if k <= 0 || subject < 0 || subject >= ix.n {
		return nil, 0, nil, ix.epoch.Load()
	}
	ix.rlockAll()
	epoch = ix.epoch.Load()
	entries, norm2, _ = ix.rfdEntriesLocked(subject)
	return entries, norm2, ix.topKWeightedLocked(entries, norm2, subject, k), epoch
}
