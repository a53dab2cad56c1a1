// Package ir implements the tag-based information-retrieval layer of the
// paper's case studies (§V-C): resource–resource cosine similarity over
// rfd's, top-k similar-resource queries (Tables VI–VII), and all-pairs
// similarity rankings whose accuracy against taxonomy ground truth is
// measured with Kendall's τ (Figure 7).
//
// Two indexes serve them. BuildInverted is the immutable offline index:
// the case studies and the public SimilarityIndex run on it, and it is
// the exhaustive oracle every serving path is tested against. OnlineIndex
// is the mutable serving index: plain posting lists and one scoring
// kernel (kernel.go), bit-identical to BuildInverted over the same
// counts.
package ir

import (
	"fmt"
	"math/rand"
	"sort"

	"incentivetag/internal/stats"
	"incentivetag/internal/taxonomy"
)

// Scored is one ranked query answer.
type Scored struct {
	ID    int
	Score float64
}

// scoredHeap is a min-heap on Score (ties broken toward larger id so the
// final sorted output prefers smaller ids), used to keep the best k.
// topKSelector sifts it by hand with Less.
type scoredHeap []Scored

func (h scoredHeap) Less(a, b int) bool {
	if h[a].Score != h[b].Score {
		return h[a].Score < h[b].Score
	}
	return h[a].ID > h[b].ID
}

// Pair is an unordered resource pair (A < B).
type Pair struct{ A, B int }

// allPairs enumerates every unordered pair of [0, n).
func allPairs(n int) []Pair {
	out := make([]Pair, 0, n*(n-1)/2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			out = append(out, Pair{a, b})
		}
	}
	return out
}

// SamplePairs draws m distinct unordered pairs uniformly (with rejection)
// from [0, n); if m ≥ C(n,2) it returns allPairs(n). Pair sampling keeps
// the Figure 7 experiment tractable at paper scale (5,000 resources have
// 12.5M pairs).
func SamplePairs(n, m int, seed int64) []Pair {
	total := n * (n - 1) / 2
	if m >= total {
		return allPairs(n)
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[Pair]bool, m)
	out := make([]Pair, 0, m)
	for len(out) < m {
		a := rng.Intn(n)
		b := rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		p := Pair{a, b}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	// Deterministic order for reproducibility.
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// GroundTruth evaluates the taxonomy ground-truth similarity on each pair
// given every resource's leaf assignment (§V-C.2: similarity from
// hierarchy distance).
func GroundTruth(tax *taxonomy.Tree, leaves []taxonomy.NodeID, pairs []Pair) []float64 {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = tax.Similarity(leaves[p.A], leaves[p.B])
	}
	return out
}

// RankingAccuracy is the paper's Figure 7 measure: Kendall's τ between the
// tag-derived pair similarities and the ground-truth pair similarities.
func RankingAccuracy(simVals, truthVals []float64) (float64, error) {
	if len(simVals) != len(truthVals) {
		return 0, fmt.Errorf("ir: %d similarities vs %d truths", len(simVals), len(truthVals))
	}
	return stats.KendallTau(simVals, truthVals)
}
