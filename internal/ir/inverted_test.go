package ir

import (
	"math"
	"testing"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// The inverted index must return exactly what the exhaustive full-sort
// reference does, bit for bit, on random corpora.
func TestInvertedMatchesExhaustive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		assertMatchesFullSort(t, tSprintf("seed %d", seed), randomIndex(seed, 80, 30).rfds)
	}
}

// Sparse corpora exercise the zero-similarity padding path: disjoint
// supports mean fewer candidates than k.
func TestInvertedZeroPadding(t *testing.T) {
	rfds := make([]*sparse.Counts, 6)
	for i := range rfds {
		c := sparse.NewCounts()
		// Resources 0 and 1 share tag 100; the rest are disjoint.
		if i <= 1 {
			c.Add(tags.MustPost(100, tags.Tag(200+i)))
		} else {
			c.Add(tags.MustPost(tags.Tag(300 + 10*i)))
		}
		rfds[i] = c
	}
	got := BuildInverted(rfds).TopK(0, 4)
	// Only resource 1 overlaps; the padding is the smallest other ids.
	want := []Scored{{ID: 1, Score: 1 / (math.Sqrt(2) * math.Sqrt(2))}, {ID: 2}, {ID: 3}, {ID: 4}}
	assertIdentical(t, "zero padding", got, want)
}

func TestInvertedEdgeCases(t *testing.T) {
	inv := randomIndex(9, 10, 8)
	if inv.TopK(-1, 3) != nil || inv.TopK(99, 3) != nil || inv.TopK(0, 0) != nil {
		t.Error("invalid queries returned results")
	}
	if inv.search(nil, 3) != nil || inv.search(tags.Post{-1}, 3) != nil || inv.search(tags.MustPost(1), 0) != nil {
		t.Error("invalid searches returned results")
	}
	if inv.N() != 10 {
		t.Errorf("N = %d", inv.N())
	}
}
