// Package quality implements tagging quality (Definitions 9–10): the
// cosine similarity between a resource's current rfd and its
// practically-stable rfd, plus the quality curve type the DP optimal
// algorithm consumes (the replay tabulates the curves, see sim.Data.Curves).
package quality

import "incentivetag/internal/sparse"

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
