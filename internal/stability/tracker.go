// Package stability implements tagging-stability measurement: adjacent
// rfd similarity, the Moving-Average (MA) score of Definition 7, the
// practically-stable rfd of Definition 8, and stable/unstable point
// detection as used throughout Sections I, III and V of the paper.
package stability

import (
	"fmt"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// DefaultUnderTaggedThreshold is the paper's working definition of an
// under-tagged resource: one that has received at most 10 posts (§I and
// §V-B.3: "if we consider a resource to be under-tagged if it has received
// not more than 10 posts").
const DefaultUnderTaggedThreshold = 10

// Tracker consumes the post sequence of one resource and maintains, in
// O(|post|) per observation:
//
//   - the sparse count vector / rfd F(k),
//   - the adjacent similarity s(F(k−1), F(k)) at each step,
//   - the MA score m(k, ω) over the last ω−1 adjacent similarities,
//     using the sliding-window recurrence of Appendix C.4:
//     (ω−1)·m(k,ω) = (ω−1)·m(k−1,ω) + s(F(k−1),F(k)) − s(F(k−ω),F(k−ω+1)).
//
// A Tracker with ω < 2 is invalid (Definition 7 requires ω ≥ 2). It
// holds its count vector by value, so a tracker is two allocations
// beyond its table: the struct and the ring.
type Tracker struct {
	omega  int
	counts sparse.Counts

	// ring holds the most recent ω−1 adjacent similarities
	// s(F(j−1), F(j)) for j = k−ω+2 .. k; sum is their running total.
	ring []float64
	head int // next write position in ring
	fill int // number of valid entries in ring (≤ ω−1)
	sum  float64
}

// NewTracker returns a Tracker with MA window parameter omega (ω ≥ 2).
func NewTracker(omega int) *Tracker {
	if omega < 2 {
		panic(fmt.Sprintf("stability: omega must be ≥ 2, got %d", omega))
	}
	return &Tracker{omega: omega, ring: make([]float64, omega-1)}
}

// NewTrackerSized returns NewTracker(omega): a tracker's count vector
// is a sparse table that grows with its support, so a tag-universe bound
// has nothing to size.
func NewTrackerSized(omega, universe int) *Tracker { return NewTracker(omega) }

// RestoreTracker rebuilds a tracker from exported state: the count
// vector plus the MA window internals (ring of the last ω−1 adjacent
// similarities, its write head, fill level, and the incrementally
// maintained running sum). The sum must be the exported value, not a
// fresh Σring — the sliding-window recurrence accumulates its own
// rounding history, and restoring anything else would break bit-exact
// equivalence with the tracker that was exported. Both counts and ring
// are adopted, not copied: the tracker takes over counts' table and the
// ring slice, and the caller must use neither afterwards.
func RestoreTracker(omega int, counts *sparse.Counts, ring []float64, head, fill int, sum float64) (*Tracker, error) {
	if omega < 2 {
		return nil, fmt.Errorf("stability: omega must be ≥ 2, got %d", omega)
	}
	if counts == nil {
		return nil, fmt.Errorf("stability: nil counts")
	}
	if len(ring) != omega-1 {
		return nil, fmt.Errorf("stability: ring has %d entries for omega %d", len(ring), omega)
	}
	if head < 0 || head >= len(ring) || fill < 0 || fill > len(ring) {
		return nil, fmt.Errorf("stability: ring head %d / fill %d out of range for omega %d", head, fill, omega)
	}
	return &Tracker{omega: omega, counts: *counts, ring: ring, head: head, fill: fill, sum: sum}, nil
}

// ExportRing returns the MA window internals — the counterpart of
// RestoreTracker. The ring is the tracker's own: read it, never mutate
// or retain it.
func (tr *Tracker) ExportRing() (ring []float64, head, fill int, sum float64) {
	return tr.ring, tr.head, tr.fill, tr.sum
}

// Posts returns k, the number of posts observed.
func (tr *Tracker) Posts() int { return tr.counts.Posts() }

// Counts exposes the underlying count vector (the un-normalized rfd),
// which lives inside the tracker. Callers must not mutate it.
func (tr *Tracker) Counts() *sparse.Counts { return &tr.counts }

// Observe consumes the next post of the sequence and returns the adjacent
// similarity s(F(k−1), F(k)) at the new k.
func (tr *Tracker) Observe(p tags.Post) float64 {
	adj := tr.counts.AddWithAdjacent(p)
	if tr.fill == len(tr.ring) {
		// Window full: slide, dropping the oldest adjacent similarity.
		tr.sum -= tr.ring[tr.head]
	} else {
		tr.fill++
	}
	tr.ring[tr.head] = adj
	tr.sum += adj
	tr.head++
	if tr.head == len(tr.ring) {
		tr.head = 0
	}
	return adj
}

// MA returns the Moving-Average score m(k, ω) of Definition 7. The second
// result is false while k < ω, where the MA score is undefined.
func (tr *Tracker) MA() (float64, bool) {
	if tr.counts.Posts() < tr.omega {
		return 0, false
	}
	ma := tr.sum / float64(tr.omega-1)
	// Clamp floating-point drift: each term is in [0,1].
	if ma > 1 {
		ma = 1
	}
	if ma < 0 {
		ma = 0
	}
	return ma, true
}

// Snapshot returns an independent copy of the current rfd counts F(k).
func (tr *Tracker) Snapshot() *sparse.Counts { return tr.counts.Clone() }

// StablePointResult describes the outcome of a practically-stable rfd
// search (Definition 8) over a finite post sequence.
type StablePointResult struct {
	// K is the smallest k with m(k, ω) > τ and k ≥ ω (Equation 6).
	K int
	// RFD is F(K), the practically-stable rfd φ̂(ω, τ).
	RFD *sparse.Counts
	// Found is false when no prefix of the sequence satisfies Equation 6;
	// then K is 0 and RFD is nil. In the paper's terms the resource never
	// reached its stable point within the observed data.
	Found bool
}

// StablePoint scans seq and returns the practically-stable rfd φ̂(ω, τ)
// per Definition 8. This is the procedure the paper uses with ω_s = 20 and
// τ_s = 0.9999 to select the 5,000-resource experimental subset (§V-A).
func StablePoint(seq tags.Seq, omega int, tau float64) StablePointResult {
	tr := NewTracker(omega)
	for k := 1; k <= len(seq); k++ {
		tr.Observe(seq[k-1])
		if ma, ok := tr.MA(); ok && ma > tau {
			return StablePointResult{K: k, RFD: tr.Snapshot(), Found: true}
		}
	}
	return StablePointResult{}
}

// MASeries replays seq and returns, for each k in [1, len(seq)], the
// adjacent similarity s(F(k−1),F(k)) and the MA score m(k, ω) (NaN-free:
// entries with k < ω are reported as 0 with ok=false via the defined
// slice). It backs Figure 3.
type MASeries struct {
	Adjacent []float64 // adjacent similarity at post k (index k−1)
	MA       []float64 // m(k, ω) where defined, else 0
	Defined  []bool    // whether m(k, ω) is defined at post k
}

// Series computes the full adjacent-similarity and MA-score series for a
// sequence, for plotting and figure reproduction.
func Series(seq tags.Seq, omega int) MASeries {
	tr := NewTracker(omega)
	out := MASeries{
		Adjacent: make([]float64, len(seq)),
		MA:       make([]float64, len(seq)),
		Defined:  make([]bool, len(seq)),
	}
	for k := 1; k <= len(seq); k++ {
		out.Adjacent[k-1] = tr.Observe(seq[k-1])
		if ma, ok := tr.MA(); ok {
			out.MA[k-1] = ma
			out.Defined[k-1] = true
		}
	}
	return out
}

// NaiveMA recomputes m(k, ω) from scratch by replaying the first k posts
// of seq and averaging the last ω−1 adjacent similarities with dense
// cosine computations of dimension dim. It exists only as the reference
// implementation for the incremental-vs-naive ablation
// (BenchmarkAblation*MA) and for cross-checking tests.
func NaiveMA(seq tags.Seq, k, omega, dim int) (float64, bool) {
	if k < omega || k > len(seq) {
		return 0, false
	}
	// Build dense rfds F(j) for j in [k-ω+1, k] and F(j−1) as needed.
	var sum float64
	for j := k - omega + 2; j <= k; j++ {
		prev := sparse.FromSeq(seq, j-1).Dense(dim)
		cur := sparse.FromSeq(seq, j).Dense(dim)
		sum += sparse.DenseCosine(prev, cur)
	}
	return sum / float64(omega-1), true
}
