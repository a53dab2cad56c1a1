package ir

import (
	"math"
	"sort"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// InvertedIndex accelerates top-k similarity queries with tag→resource
// postings: instead of scoring all n resources against the subject
// (O(n·s) for support size s), only resources sharing at least one tag
// with the subject are touched. On topically-clustered corpora — exactly
// what tagging data is — candidates are a small fraction of n.
//
// Scores are exact cosine similarities (Equation 16), identical to
// Index.TopK; only the candidate enumeration differs. The structure is
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

// PostingLen returns the posting-list length of tag t (diagnostics).
func (ix *InvertedIndex) PostingLen(t tags.Tag) int { return len(ix.postings[t]) }

// TopK returns the k most similar resources to subject, identical in
// content to Index.TopK but touching only candidates that share a tag
// with the subject. Resources with zero overlap have cosine 0 and can
// never outrank any overlapping candidate unless fewer than k candidates
// exist, in which case zero-scored resources pad the tail (smallest id
// first), matching the exhaustive implementation.
func (ix *InvertedIndex) TopK(subject, k int) []Scored {
	if k <= 0 || subject < 0 || subject >= len(ix.rfds) {
		return nil
	}
	subj := ix.rfds[subject]
	subjNorm := math.Sqrt(subj.Norm2())
	if subjNorm == 0 || subj.Posts() == 0 {
		// Zero-norm subject: every cosine is 0 by definition, so skip
		// candidate enumeration entirely and go straight to the
		// zero-similarity padding (smallest ids first, exactly what the
		// exhaustive index returns).
		return rankTopK(len(ix.rfds), subject, k, 0, nil, ix.norm2At, nil)
	}
	// Accumulate dot products over the subject's postings.
	dots := make(map[int32]float64)
	for _, t := range subj.Support() {
		sc := float64(subj.Get(t))
		for _, p := range ix.postings[t] {
			if int(p.id) == subject {
				continue
			}
			dots[p.id] += sc * float64(p.count)
		}
	}
	return rankTopK(len(ix.rfds), subject, k, subjNorm, dots, ix.norm2At, nil)
}

// norm2At resolves a resource's scoring norm for rankTopK: 0 when it
// cannot score (the Posts/Norm2 guard folded into one value).
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
// top-k query path (exhaustive-candidate, inverted, online, search) so
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
// before that full is false and nothing may be pruned (a candidate with
// any score — even 0 — still enters the heap).
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

// rankTopK finalizes a top-k similarity query shared by the immutable
// and online inverted indexes: it turns accumulated dot products into
// clamped cosine scores, pads with zero-similarity resources when the
// candidate set runs short of k (smallest id first), and returns the
// selector's ranking. The subject's norm is hoisted here once — a
// zero-norm subject (nil or empty dots) skips scoring entirely and
// pads directly. norm2 resolves a candidate id to its scoring norm,
// returning 0 for candidates that cannot score (no posts or zero norm)
// — which lets the online index score every candidate from its dense
// norm cache without reading the candidate's counts. owned, when
// non-nil, restricts the padding to the resources it admits.
func rankTopK(n, subject, k int, subjNorm float64, dots map[int32]float64, norm2 func(int32) float64, owned []bool) []Scored {
	sel := newTopKSelector(k)
	if subjNorm > 0 {
		for id, dot := range dots {
			n2 := norm2(id)
			if n2 == 0 {
				continue
			}
			s := dot / (subjNorm * math.Sqrt(n2))
			if s > 1 {
				s = 1
			}
			sel.push(int(id), s)
		}
	}
	// Pad with zero-similarity resources if the candidate set was small.
	if sel.len() < k {
		present := make(map[int]bool, sel.len())
		for _, s := range sel.h {
			present[s.ID] = true
		}
		for id := 0; id < n && sel.len() < k; id++ {
			if id == subject || present[id] || (owned != nil && !owned[id]) {
				continue
			}
			if _, overlapped := dots[int32(id)]; overlapped {
				continue
			}
			sel.push(id, 0)
		}
	}
	return sel.results()
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

// Stats summarizes index shape for diagnostics and tests.
type InvertedStats struct {
	Tags        int
	Postings    int
	MaxPostings int
}

// Stat computes posting-list statistics.
func (ix *InvertedIndex) Stat() InvertedStats {
	st := InvertedStats{Tags: len(ix.postings)}
	for _, pl := range ix.postings {
		st.Postings += len(pl)
		if len(pl) > st.MaxPostings {
			st.MaxPostings = len(pl)
		}
	}
	return st
}
