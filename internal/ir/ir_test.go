package ir

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
	"incentivetag/internal/taxonomy"
)

// randomIndex indexes n random rfd snapshots over dim tags.
func randomIndex(seed int64, n, dim int) *InvertedIndex {
	rng := rand.New(rand.NewSource(seed))
	rfds := make([]*sparse.Counts, n)
	for i := range rfds {
		c := sparse.NewCounts()
		for k := 0; k < 5+rng.Intn(20); k++ {
			m := 1 + rng.Intn(3)
			ts := make([]tags.Tag, m)
			for j := range ts {
				ts[j] = tags.Tag(rng.Intn(dim))
			}
			p, err := tags.NewPost(ts...)
			if err != nil {
				panic(err)
			}
			c.Add(p)
		}
		rfds[i] = c
	}
	return BuildInverted(rfds)
}

// fullSortTopK is the brute-force reference for TopK: every other
// resource scored with Dot and the serving expression dot/(√n₁·√n₂)
// from Norm2 (0 without posts), fully sorted by (score desc, id asc) and
// cut at k.
func fullSortTopK(rfds []*sparse.Counts, subject, k int) []Scored {
	subj := rfds[subject]
	var all []Scored
	for i, c := range rfds {
		if i == subject {
			continue
		}
		var s float64
		if subj.Posts() > 0 && c.Posts() > 0 && subj.Norm2() > 0 && c.Norm2() > 0 {
			s = subj.Dot(c) / (math.Sqrt(subj.Norm2()) * math.Sqrt(c.Norm2()))
			if s > 1 {
				s = 1
			}
		}
		all = append(all, Scored{ID: i, Score: s})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score > all[b].Score
		}
		return all[a].ID < all[b].ID
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// assertMatchesFullSort checks BuildInverted(rfds).TopK against
// fullSortTopK bit for bit, for every subject and k cuts from 1 past n.
func assertMatchesFullSort(t *testing.T, name string, rfds []*sparse.Counts) {
	t.Helper()
	ix := BuildInverted(rfds)
	for subject := range rfds {
		for _, k := range []int{1, 5, 10, len(rfds) - 1, 2 * len(rfds)} {
			assertIdentical(t, tSprintf("%s subject %d k=%d", name, subject, k),
				ix.TopK(subject, k), fullSortTopK(rfds, subject, k))
		}
	}
}

// TopK must equal the brute-force full sort bit for bit on a corpus
// where a tie group of identical vectors (and a few empty resources)
// straddles every k cut.
func TestTopKMatchesFullSort(t *testing.T) {
	ties := make([]*sparse.Counts, 30)
	for i := range ties {
		ties[i] = sparse.NewCounts()
		switch {
		case i%3 == 0: // identical vectors
			ties[i].Add(tags.MustPost(3, 7, 11))
		case i%7 == 1: // empty
		default:
			ties[i].Add(tags.MustPost(3, tags.Tag(20+i)))
		}
	}
	assertMatchesFullSort(t, "ties", ties)
}

func TestTopKEdgeCases(t *testing.T) {
	ix := randomIndex(2, 5, 6)
	if got := ix.TopK(0, 0); got != nil {
		t.Error("k=0 returned results")
	}
	if got := ix.TopK(0, -1); got != nil {
		t.Error("negative k returned results")
	}
	got := ix.TopK(2, 10)
	if len(got) != 4 {
		t.Errorf("k beyond n returned %d results, want 4", len(got))
	}
	for _, s := range got {
		if s.ID == 2 {
			t.Error("subject included in its own top-k")
		}
	}
}

func TestAllPairs(t *testing.T) {
	ps := allPairs(4)
	if len(ps) != 6 {
		t.Fatalf("allPairs(4) has %d pairs", len(ps))
	}
	seen := map[Pair]bool{}
	for _, p := range ps {
		if p.A >= p.B {
			t.Fatalf("unordered pair %v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestSamplePairs(t *testing.T) {
	ps := SamplePairs(50, 100, 3)
	if len(ps) != 100 {
		t.Fatalf("sampled %d pairs, want 100", len(ps))
	}
	seen := map[Pair]bool{}
	for _, p := range ps {
		if p.A >= p.B || p.B >= 50 {
			t.Fatalf("bad pair %v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
	// Requesting ≥ C(n,2) falls back to all pairs.
	all := SamplePairs(10, 1000, 3)
	if len(all) != 45 {
		t.Errorf("oversample returned %d pairs, want 45", len(all))
	}
	// Determinism.
	ps2 := SamplePairs(50, 100, 3)
	for i := range ps {
		if ps[i] != ps2[i] {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestGroundTruthAndAccuracy(t *testing.T) {
	tax := taxonomy.BuildDefault(48)
	leaves := tax.Leaves()
	// Three resources: two in the same leaf, one far away.
	rl := []taxonomy.NodeID{leaves[0], leaves[0], leaves[len(leaves)-1]}
	pairs := allPairs(3)
	truth := GroundTruth(tax, rl, pairs)
	if len(truth) != 3 {
		t.Fatal("truth length wrong")
	}
	// Pair (0,1) same leaf → highest similarity.
	var p01, p02 float64
	for i, p := range pairs {
		if p == (Pair{0, 1}) {
			p01 = truth[i]
		}
		if p == (Pair{0, 2}) {
			p02 = truth[i]
		}
	}
	if !(p01 > p02) {
		t.Errorf("same-leaf truth %g not above far truth %g", p01, p02)
	}

	// RankingAccuracy: identical vectors → τ = 1.
	tau, err := RankingAccuracy(truth, truth)
	if err != nil || math.Abs(tau-1) > 1e-12 {
		t.Errorf("self accuracy τ=%g err=%v", tau, err)
	}
	if _, err := RankingAccuracy(truth, truth[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
}

// An index whose rfds mirror the taxonomy must score positive accuracy.
func TestAccuracyPositiveForAlignedIndex(t *testing.T) {
	tax := taxonomy.BuildDefault(48)
	leaves := tax.Leaves()
	n := 40
	rl := make([]taxonomy.NodeID, n)
	rfds := make([]*sparse.Counts, n)
	for i := 0; i < n; i++ {
		leaf := leaves[i%8]
		rl[i] = leaf
		c := sparse.NewCounts()
		// Tag id = leaf id: same-category resources share their tag.
		for k := 0; k < 10; k++ {
			c.Add(tags.MustPost(tags.Tag(leaf), tags.Tag(1000+i%3)))
		}
		rfds[i] = c
	}
	ix := BuildInverted(rfds)
	pairs := allPairs(n)
	tau, err := RankingAccuracy(ix.PairSimilarities(pairs), GroundTruth(tax, rl, pairs))
	if err != nil {
		t.Fatal(err)
	}
	// The construction only distinguishes same-leaf vs rest while the
	// truth has three levels, so τ-b sits well below 1 but must be
	// clearly positive.
	if tau <= 0.15 {
		t.Errorf("aligned index accuracy τ=%g, want clearly positive", tau)
	}
}

func TestPairSimilaritiesSymmetricBounds(t *testing.T) {
	ix := randomIndex(9, 20, 8)
	pairs := SamplePairs(20, 50, 1)
	vals := ix.PairSimilarities(pairs)
	for i, v := range vals {
		if v < 0 || v > 1 {
			t.Fatalf("similarity %g out of [0,1]", v)
		}
		if got := ix.similarity(pairs[i].B, pairs[i].A); math.Abs(got-v) > 1e-12 {
			t.Fatal("similarity not symmetric")
		}
	}
}
