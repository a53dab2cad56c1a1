package ir

import (
	"math"
	"sort"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// InvertedIndex is the immutable offline index over a set of rfd
// snapshots: the paper's case studies (Tables VI–VII, Figure 7) and the
// public SimilarityIndex run on it, and it is the one exhaustive oracle
// the serving paths are tested against. Tag→resource postings mean a
// query touches only resources sharing a tag with it, and every posting
// is scored. It accumulates into a map rather than the serving kernel's
// dense row, so the two share no accumulation code.
//
// TopK and Search score with the serving expressions, so OnlineIndex is
// bit-identical to BuildInverted over the same counts. The structure is
// immutable after Build.
type InvertedIndex struct {
	rfds     []*sparse.Counts
	postings map[tags.Tag][]posting
}

// posting is one (resource, count) pair of a tag's posting list.
type posting struct {
	id    int32
	count int64
}

// BuildInverted indexes the given rfd snapshots.
func BuildInverted(rfds []*sparse.Counts) *InvertedIndex {
	ix := &InvertedIndex{
		rfds:     rfds,
		postings: make(map[tags.Tag][]posting),
	}
	for id, c := range rfds {
		for _, t := range c.Support() {
			ix.postings[t] = append(ix.postings[t], posting{id: int32(id), count: c.Get(t)})
		}
	}
	return ix
}

// N returns the number of indexed resources.
func (ix *InvertedIndex) N() int { return len(ix.rfds) }

// RFDs exposes the indexed snapshot slice (shared, do not mutate).
func (ix *InvertedIndex) RFDs() []*sparse.Counts { return ix.rfds }

// Similarity returns the cosine similarity of resources a and b
// (Equation 16).
func (ix *InvertedIndex) Similarity(a, b int) float64 {
	return ix.rfds[a].Cosine(ix.rfds[b])
}

// PairSimilarities evaluates Similarity on each pair.
func (ix *InvertedIndex) PairSimilarities(pairs []Pair) []float64 {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = ix.Similarity(p.A, p.B)
	}
	return out
}

// TopK returns the k resources most similar to subject (excluding the
// subject itself), score-descending with ties toward smaller ids — the
// paper's "Top-10 Similar Resources" query (§V-C.1). Only candidates
// sharing a tag with the subject are scored. Resources with zero overlap
// have cosine 0 and pad the tail (smallest id first) when fewer than k
// candidates exist. Invalid subjects or k ≤ 0 return nil.
func (ix *InvertedIndex) TopK(subject, k int) []Scored {
	if k <= 0 || subject < 0 || subject >= len(ix.rfds) {
		return nil
	}
	subj := ix.rfds[subject]
	subjNorm := math.Sqrt(subj.Norm2())
	// Accumulate dot products over the subject's postings; a zero-norm
	// subject has none, and every resource pads in at cosine 0.
	dots := make(map[int32]float64)
	for _, t := range subj.Support() {
		sc := float64(subj.Get(t))
		for _, p := range ix.postings[t] {
			if int(p.id) != subject {
				dots[p.id] += sc * float64(p.count)
			}
		}
	}
	sel := newTopKSelector(k)
	for id, dot := range dots {
		if n2 := ix.norm2At(id); n2 != 0 {
			sel.push(int(id), topkScore(dot, subjNorm, n2))
		}
	}
	padTopK(sel, len(ix.rfds), subject, func(id int) bool {
		_, overlapped := dots[int32(id)]
		return overlapped
	})
	return sel.results()
}

// Search ranks resources by cosine similarity between the query tag set
// (a unit-count vector over its distinct tags) and every rfd, with the
// same query dedup and score expression as OnlineIndex.Search. Only
// resources sharing a query tag are ranked; zero-overlap resources are
// not padded in.
func (ix *InvertedIndex) Search(query tags.Post, k int) []Scored {
	query = normalizeQuery(query)
	if k <= 0 || len(query) == 0 {
		return nil
	}
	dots := make(map[int32]float64)
	for _, t := range query {
		for _, p := range ix.postings[t] {
			dots[p.id] += float64(p.count)
		}
	}
	qNorm2 := float64(len(query))
	sel := newTopKSelector(k)
	for id, dot := range dots {
		n2 := ix.norm2At(id)
		if n2 == 0 {
			continue
		}
		s := dot / math.Sqrt(qNorm2*n2)
		if s > 1 {
			s = 1
		}
		sel.push(int(id), s)
	}
	return sel.results()
}

// norm2At resolves a resource's scoring norm: 0 when it cannot score
// (the Posts/Norm2 guard folded into one value).
func (ix *InvertedIndex) norm2At(id int32) float64 {
	c := ix.rfds[id]
	if c.Posts() == 0 {
		return 0
	}
	return c.Norm2()
}

// topKSelector keeps the best k answers incrementally: a bounded
// min-heap whose tiebreak (equal scores prefer the smaller id) makes
// the kept set deterministic under any push order, finalized into a
// score-descending, ties-toward-smaller-id ranking. Shared by every
// top-k query path (offline, online, weighted, search) so
// the selection semantics can never drift between them.
type topKSelector struct {
	k int
	h scoredHeap
}

func newTopKSelector(k int) *topKSelector {
	return &topKSelector{k: k, h: make(scoredHeap, 0, k)}
}

// push offers a candidate, keeping the best k under the heap's
// comparator. The sift loops are inlined rather than delegated to
// container/heap because heap.Push/Pop box every Scored into an
// interface — an allocation per candidate on the hottest loop of every
// query path. The kept set is a pure function of the offered
// (id, score) pairs (the comparator is a strict total order — ids are
// unique within a query), so the replacement is behaviour-identical.
func (s *topKSelector) push(id int, score float64) {
	h := s.h
	if len(h) < s.k {
		h = append(h, Scored{ID: id, Score: score})
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !h.Less(i, p) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		s.h = h
		return
	}
	if h[0].Score < score || (h[0].Score == score && h[0].ID > id) {
		h[0] = Scored{ID: id, Score: score}
		for i, n := 0, len(h); ; {
			m := 2*i + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && h.Less(r, m) {
				m = r
			}
			if !h.Less(m, i) {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
}

func (s *topKSelector) len() int { return len(s.h) }

// threshold returns the current kth-best score once the heap is full;
// before that full is false and nothing may be rejected (a candidate
// with any score — even 0 — still enters the heap).
func (s *topKSelector) threshold() (th float64, full bool) {
	if len(s.h) < s.k {
		return 0, false
	}
	return s.h[0].Score, true
}

// results drains the selector into the final ranking. Ids are unique
// within a query, so the (score desc, id asc) order is a strict total
// order and the sorted output is deterministic regardless of push order
// or heap layout.
func (s *topKSelector) results() []Scored {
	out := make([]Scored, len(s.h))
	copy(out, s.h)
	s.h = s.h[:0]
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// topkScore is the one TopK score expression, shared by every ranking
// against a subject: the cosine, clamped to 1, of a candidate with dot
// product dot and squared norm n2 > 0 against a subject of norm subjNorm.
func topkScore(dot, subjNorm, n2 float64) float64 {
	s := dot / (subjNorm * math.Sqrt(n2))
	if s > 1 {
		s = 1
	}
	return s
}

// padTopK is TopK's zero-similarity padding, shared likewise: while the
// selector is short of k it admits, at score 0 and smallest id first,
// every resource but the subject that overlaps nothing.
func padTopK(sel *topKSelector, n, subject int, overlaps func(id int) bool) {
	for id := 0; id < n && sel.len() < sel.k; id++ {
		if id != subject && !overlaps(id) {
			sel.push(id, 0)
		}
	}
}

// Posting is one (resource, count) pair of a posting list, exposed for
// diagnostics and the posting-for-posting equivalence tests between the
// immutable and online indexes.
type Posting struct {
	ID    int32
	Count int64
}

// PostingEntries returns tag t's posting list in ascending resource-id
// order (empty when the tag is unindexed).
func (ix *InvertedIndex) PostingEntries(t tags.Tag) []Posting {
	pl := ix.postings[t]
	if len(pl) == 0 {
		return nil
	}
	out := make([]Posting, len(pl))
	for i, p := range pl {
		out[i] = Posting{ID: p.id, Count: p.count}
	}
	return out // built in ascending id order
}

// Tags returns every tag with a non-empty posting list in ascending
// order.
func (ix *InvertedIndex) Tags() []tags.Tag {
	out := make([]tags.Tag, 0, len(ix.postings))
	for t := range ix.postings {
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
