// Package quality implements tagging quality (Definitions 9–10): the
// cosine similarity between a resource's current rfd and its
// practically-stable rfd, plus the replayed quality curves the DP optimal
// algorithm consumes.
package quality

import (
	"fmt"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// Reference is the practically-stable rfd φ̂_i of a resource, against
// which tagging quality is measured: a reference is its counts.
type Reference struct {
	counts *sparse.Counts
}

// NewReference wraps a stable rfd. The counts are cloned, so later
// mutation of the argument does not affect the reference.
func NewReference(stable *sparse.Counts) *Reference {
	if stable == nil {
		panic("quality: nil stable rfd")
	}
	return &Reference{counts: stable.Clone()}
}

// Counts exposes the reference rfd counts. Callers must not mutate them.
func (r *Reference) Counts() *sparse.Counts { return r.counts }

// Of returns q(k) = s(F(k), φ̂) (Definition 9) for the given current rfd.
func (r *Reference) Of(current *sparse.Counts) float64 {
	return current.Cosine(r.counts)
}

// Curve is the per-resource quality function x ↦ q_i(c_i + x) that the DP
// algorithm of Section III-D maximizes over. Curve[x] is the quality after
// x additional post tasks; len(Curve) − 1 is the maximum x for which
// future posts exist in the replay data.
type Curve []float64

// MaxX returns the largest allocatable x for this resource.
func (c Curve) MaxX() int { return len(c) - 1 }

// At returns q(c+x), clamping x to the available range. Clamping models
// the replay protocol: once a resource's recorded posts are exhausted no
// further quality change can be observed.
func (c Curve) At(x int) float64 {
	if x < 0 {
		x = 0
	}
	if x >= len(c) {
		x = len(c) - 1
	}
	return c[x]
}

// BuildCurve replays seq and returns the quality curve of one resource:
// entry x is q(c+x) = s(F(c+x), ref) for x in [0, maxX], where maxX is
// capped by both the requested budget bound and the number of future posts
// available (len(seq) − c).
func BuildCurve(seq tags.Seq, c int, budgetBound int, ref *Reference) (Curve, error) {
	if c < 0 || c > len(seq) {
		return nil, fmt.Errorf("quality: initial post count %d out of range [0,%d]", c, len(seq))
	}
	maxX := len(seq) - c
	if budgetBound >= 0 && budgetBound < maxX {
		maxX = budgetBound
	}
	counts := sparse.FromSeq(seq, c)
	curve := make(Curve, maxX+1)
	curve[0] = ref.Of(counts)
	for x := 1; x <= maxX; x++ {
		counts.Add(seq[c+x-1])
		curve[x] = ref.Of(counts)
	}
	return curve, nil
}
