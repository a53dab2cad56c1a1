package ir

import (
	"slices"
	"sort"

	"incentivetag/internal/tags"
)

// The posting-for-posting equivalence surface between the immutable and
// the online index: TestOnlineMatchesBuildInverted and the cluster tests
// compare the two indexes list by list through these.

// Posting is one (resource, count) pair of a posting list.
type Posting struct {
	ID    int32
	Count int64
}

// postingEntries returns tag t's posting list in ascending resource-id
// order (empty when the tag is unindexed).
func (ix *InvertedIndex) postingEntries(t tags.Tag) []Posting {
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

// tags returns every tag with a non-empty posting list in ascending
// order.
func (ix *InvertedIndex) tags() []tags.Tag {
	out := make([]tags.Tag, 0, len(ix.postings))
	for t := range ix.postings {
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// postingEntries returns tag t's live postings in ascending resource-id
// order — the posting-for-posting equivalence surface against
// BuildInverted.
func (ix *OnlineIndex) postingEntries(t tags.Tag) []Posting {
	ix.rlockAll()
	defer ix.runlockAll()
	var out []Posting
	for _, pl := range ix.dir.get(t).lists {
		for _, p := range pl.entries {
			out = append(out, Posting{ID: p.id, Count: int64(p.count)})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// tags returns every tag with a non-empty posting list in ascending
// order.
func (ix *OnlineIndex) tags() []tags.Tag {
	ix.rlockAll()
	defer ix.runlockAll()
	out := make([]tags.Tag, 0, ix.dir.n)
	ix.dir.each(func(t tags.Tag, _ dirRow) { out = append(out, t) })
	slices.Sort(out)
	return out
}

// each visits every (tag, value) in slot order.
func (h *tagTable[V]) each(fn func(t tags.Tag, v V)) {
	for _, s := range h.slots {
		if s.key != 0 {
			fn(tags.Tag(s.key-1), s.val)
		}
	}
}
