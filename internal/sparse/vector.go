// Package sparse implements sparse tag-frequency vectors and the cosine
// similarity of Appendix A (Equation 16).
//
// The paper's rfd F_i(k) (Definition 5) is the tag-frequency vector h_i(·,k)
// normalized by total tag occurrences (Definition 4). Because cosine
// similarity is invariant under positive scaling, s(F_i(k), F_j(k')) equals
// the cosine of the raw count vectors; this package therefore stores raw
// counts and exposes both views. Keeping counts, not frequencies, is what
// enables the O(|post|) incremental adjacent-similarity update used by the
// MU strategy (Appendix C.4): adding one post perturbs only |post| entries.
//
// # Hybrid representation
//
// Counts has two backing representations with identical observable
// behaviour:
//
//   - the map form (NewCounts) — the reference implementation, compact for
//     arbitrary tag universes;
//   - the hybrid form (NewHybridCounts) — a dense []int32 indexed directly
//     by tag id for ids below DenseTagCap, with a spill map above it. Real
//     tag streams concentrate on a small active vocabulary (topical pool
//     tags get small, early-interned ids), so the dense base turns the hot
//     Add/Get path into array indexing with zero map traffic and zero
//     steady-state allocation, while the spill map keeps rare large ids
//     (never-repeating typo tags) correct without an O(|T|) array.
//
// Both forms maintain norm², mass and the Add overlap with the exact same
// integer arithmetic, so every derived quantity (cosine, adjacent
// similarity, quality) is bit-identical between them; tests assert this.
package sparse

import (
	"fmt"
	"math"
	"sort"

	"incentivetag/internal/tags"
)

// DenseTagCap is the hybrid form's dense-base bound: tag ids below it are
// stored in the dense array, ids at or above it fall back to the spill
// map. 4096 comfortably covers the early-interned topical pools of the
// synthetic corpora (≈3k ids) while bounding the dense base at 16 KiB per
// vector; the heavy tail of never-repeating typo ids spills to the map.
const DenseTagCap = 4096

// Counts is a sparse non-negative integer vector over tag ids. It tracks
// the squared Euclidean norm and the L1 mass incrementally so cosine
// similarity and relative frequencies never require a full scan beyond the
// non-zero support.
//
// The zero value is NOT ready to use; call NewCounts or NewHybridCounts.
type Counts struct {
	// m holds every entry in map form; in hybrid form it is the lazily
	// allocated spill for tag ids ≥ len(d) that exceed DenseTagCap.
	m map[tags.Tag]int64
	// d is the hybrid dense base (nil in map form): d[t] is the count of
	// tag id t. It grows geometrically on demand, never past DenseTagCap.
	d []int32
	// dn is the number of non-zero entries in d.
	dn     int
	hybrid bool

	norm2 float64 // sum of squares of entries
	mass  int64   // sum of entries (duplicate-counted tag occurrences)
	posts int     // number of posts accumulated (k in the paper)
}

// NewCounts returns an empty map-form count vector (k = 0 posts) — the
// reference implementation.
func NewCounts() *Counts {
	return &Counts{m: make(map[tags.Tag]int64)}
}

// NewHybridCounts returns an empty hybrid count vector. universe is a
// sizing hint (|T| when known): a universe within DenseTagCap pre-sizes
// the dense base so the vector never allocates again; a larger (or zero)
// universe lets the base grow on demand up to DenseTagCap, with larger
// ids spilling to a map.
func NewHybridCounts(universe int) *Counts {
	c := &Counts{hybrid: true}
	if universe > 0 && universe <= DenseTagCap {
		c.d = make([]int32, universe)
	}
	return c
}

// Hybrid reports whether c uses the dense/map hybrid representation.
func (c *Counts) Hybrid() bool { return c.hybrid }

// grow extends the dense base to cover tag id t (caller guarantees
// t < DenseTagCap). Geometric growth keeps the amortized cost O(1).
func (c *Counts) grow(t int) {
	n := 2 * len(c.d)
	if n < t+1 {
		n = t + 1
	}
	if n < 64 {
		n = 64
	}
	if n > DenseTagCap {
		n = DenseTagCap
	}
	nd := make([]int32, n)
	copy(nd, c.d)
	c.d = nd
}

// Posts returns k, the number of posts accumulated so far.
func (c *Counts) Posts() int { return c.posts }

// Mass returns the total number of tag occurrences, the denominator of
// Definition 4.
func (c *Counts) Mass() int64 { return c.mass }

// Norm2 returns the squared Euclidean norm of the count vector.
func (c *Counts) Norm2() float64 { return c.norm2 }

// Len returns the number of distinct tags with non-zero count.
func (c *Counts) Len() int { return c.dn + len(c.m) }

// MemBytes estimates the retained heap of the vector: the dense base
// (4 bytes per slot, allocated whether or not occupied — the
// space-for-time trade of the hybrid form), the spill map at a measured
// ~48 bytes per entry, and the struct plus headers. It is the sizing
// input of the residency tier's resident-bytes budget — an estimate for
// relative pressure, not an accounting.
func (c *Counts) MemBytes() int {
	b := 96 // struct, slice header, map header
	b += 4 * cap(c.d)
	b += 48 * len(c.m)
	return b
}

// Get returns h(t, k): the number of accumulated posts containing t
// (Definition 3; each post contains a tag at most once).
func (c *Counts) Get(t tags.Tag) int64 {
	if c.hybrid {
		if ti := int(t); ti >= 0 && ti < len(c.d) {
			return int64(c.d[ti])
		}
	}
	return c.m[t]
}

// RelFreq returns f(t, k) (Definition 4): the count of t divided by total
// tag occurrences, or 0 when no posts have been received.
func (c *Counts) RelFreq(t tags.Tag) float64 {
	if c.mass == 0 {
		return 0
	}
	return float64(c.Get(t)) / float64(c.mass)
}

// Add accumulates one post: every tag in p has its count incremented by
// one, and k advances by one. It returns the overlap sum S = Σ_{t∈p} h(t)
// measured BEFORE the increment, which is exactly the quantity needed by
// AdjacentCosine.
func (c *Counts) Add(p tags.Post) (overlap int64) {
	if c.hybrid {
		for _, t := range p {
			var old int64
			// Out-of-range ids (negative, or ≥ the cap) take the spill
			// map, mirroring what the map form does with any id.
			if ti := int(t); ti >= 0 && ti < DenseTagCap {
				if ti >= len(c.d) {
					c.grow(ti)
				}
				o := c.d[ti]
				if o == math.MaxInt32 {
					panic(fmt.Sprintf("sparse: count overflow for tag %d", t))
				}
				if o == 0 {
					c.dn++
				}
				c.d[ti] = o + 1
				old = int64(o)
			} else {
				if c.m == nil {
					c.m = make(map[tags.Tag]int64)
				}
				old = c.m[t]
				c.m[t] = old + 1
			}
			overlap += old
			// norm² gains (old+1)² − old² = 2·old + 1.
			c.norm2 += float64(2*old + 1)
		}
		c.mass += int64(len(p))
		c.posts++
		return overlap
	}
	for _, t := range p {
		old := c.m[t]
		overlap += old
		c.m[t] = old + 1
		c.norm2 += float64(2*old + 1)
	}
	c.mass += int64(len(p))
	c.posts++
	return overlap
}

// Remove subtracts one previously-added post. It is the exact inverse of
// Add and panics if any tag of p has zero count (which would indicate the
// post was never added). Used by rollback-style simulations and tests.
func (c *Counts) Remove(p tags.Post) {
	for _, t := range p {
		var old int64
		if ti := int(t); c.hybrid && ti >= 0 && ti < len(c.d) {
			old = int64(c.d[ti])
			if old <= 0 {
				panic(fmt.Sprintf("sparse: Remove of tag %d with count %d", t, old))
			}
			c.d[ti] = int32(old - 1)
			if old == 1 {
				c.dn--
			}
		} else {
			old = c.m[t]
			if old <= 0 {
				panic(fmt.Sprintf("sparse: Remove of tag %d with count %d", t, old))
			}
			if old == 1 {
				delete(c.m, t)
			} else {
				c.m[t] = old - 1
			}
		}
		c.norm2 -= float64(2*old - 1)
	}
	c.mass -= int64(len(p))
	c.posts--
}

// Reset returns the vector to its empty state (k = 0) while retaining its
// backing storage, so a scratch vector can be reused across replays
// without reallocating.
func (c *Counts) Reset() {
	if c.hybrid {
		clear(c.d)
		c.dn = 0
		clear(c.m)
	} else {
		clear(c.m)
	}
	c.norm2, c.mass, c.posts = 0, 0, 0
}

// Clone returns an independent deep copy (same representation).
func (c *Counts) Clone() *Counts {
	out := &Counts{
		hybrid: c.hybrid,
		dn:     c.dn,
		norm2:  c.norm2,
		mass:   c.mass,
		posts:  c.posts,
	}
	if c.d != nil {
		out.d = make([]int32, len(c.d))
		copy(out.d, c.d)
	}
	if c.m != nil {
		out.m = make(map[tags.Tag]int64, len(c.m))
		for t, n := range c.m {
			out.m[t] = n
		}
	} else if !c.hybrid {
		out.m = make(map[tags.Tag]int64)
	}
	return out
}

// forEach visits every non-zero entry.
func (c *Counts) forEach(fn func(t tags.Tag, n int64)) {
	for ti, n := range c.d {
		if n != 0 {
			fn(tags.Tag(ti), int64(n))
		}
	}
	for t, n := range c.m {
		fn(t, n)
	}
}

// ForEach visits every non-zero (tag, count) entry in unspecified
// order, without allocating. The query engine uses it to lift a
// subject's support and weights in one pass; callers needing ascending
// order should use AppendSupport instead.
func (c *Counts) ForEach(fn func(t tags.Tag, n int64)) { c.forEach(fn) }

// Support returns the non-zero tag ids in ascending order.
func (c *Counts) Support() []tags.Tag {
	return c.AppendSupport(make([]tags.Tag, 0, c.Len()))
}

// AppendSupport appends the non-zero tag ids to dst in ascending order
// and returns the extended slice. It is the allocation-free counterpart
// of Support for callers that pool their scratch (the query engine's
// per-query tag plan): when dst has capacity and the vector is dense-only
// the call performs no allocation at all.
func (c *Counts) AppendSupport(dst []tags.Tag) []tags.Tag {
	start := len(dst)
	c.forEach(func(t tags.Tag, _ int64) { dst = append(dst, t) })
	// The dense base is visited in ascending id order already; only map
	// entries (map form, or the hybrid spill) arrive unordered.
	if len(c.m) > 0 {
		sort.Sort(tagSlice(dst[start:]))
	}
	return dst
}

// tagSlice orders tag ids ascending without the closure allocation of
// sort.Slice.
type tagSlice []tags.Tag

func (s tagSlice) Len() int           { return len(s) }
func (s tagSlice) Less(i, j int) bool { return s[i] < s[j] }
func (s tagSlice) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Dot returns the inner product of two count vectors, iterating over the
// smaller support. Every term is a product of integers and the sum stays
// far below 2^53, so the result is exact (and order-independent) in
// float64 regardless of representation.
func (c *Counts) Dot(o *Counts) float64 {
	a, b := c, o
	if b.Len() < a.Len() {
		a, b = b, a
	}
	var dot float64
	a.forEach(func(t tags.Tag, n int64) {
		if m := b.Get(t); m != 0 {
			dot += float64(n) * float64(m)
		}
	})
	return dot
}

// Cosine returns s(F_a, F_b) per Equation 16: the cosine of the two rfd
// vectors, which equals the cosine of the raw count vectors. If either
// vector has received no posts (k = 0), the similarity is 0 by definition.
func (c *Counts) Cosine(o *Counts) float64 {
	if c.posts == 0 || o.posts == 0 {
		return 0
	}
	if c.norm2 == 0 || o.norm2 == 0 {
		return 0
	}
	s := c.Dot(o) / math.Sqrt(c.norm2*o.norm2)
	// Guard against floating-point drift pushing us out of [0, 1]; counts
	// are non-negative so the true cosine is never negative.
	if s > 1 {
		s = 1
	}
	if s < 0 {
		s = 0
	}
	return s
}

// AdjacentCosine returns s(F(k−1), F(k)) — the adjacent similarity at the
// k-th post (Definition 7) — in O(|post|) given the state BEFORE the post
// is applied.
//
// Derivation: let h be the count vector before the post and h' = h + 1_p
// after. Then
//
//	dot(h, h')   = ‖h‖² + S            where S = Σ_{t∈p} h(t)
//	‖h'‖²        = ‖h‖² + 2S + |p|
//	cos(h, h')   = (‖h‖² + S) / (‖h‖·√(‖h‖² + 2S + |p|))
//
// By Equation 16 the similarity is 0 when k−1 = 0 (the previous rfd is the
// zero vector).
func AdjacentCosine(norm2Before float64, overlap int64, postLen int) float64 {
	if norm2Before == 0 {
		return 0
	}
	num := norm2Before + float64(overlap)
	den := math.Sqrt(norm2Before) * math.Sqrt(norm2Before+2*float64(overlap)+float64(postLen))
	s := num / den
	if s > 1 {
		s = 1
	}
	if s < 0 {
		s = 0
	}
	return s
}

// AddWithAdjacent accumulates post p and returns the adjacent similarity
// s(F(k−1), F(k)) where k is the post count after the addition. This is
// the hot path of the stability tracker.
func (c *Counts) AddWithAdjacent(p tags.Post) float64 {
	norm2Before := c.norm2
	overlap := c.Add(p)
	return AdjacentCosine(norm2Before, overlap, len(p))
}

// FromEntries rebuilds a count vector from its non-zero support — the
// snapshot-restore path. ts/ns are parallel (tag, count) pairs; posts is
// the accumulated post count k. universe > 0 selects the hybrid
// representation sized as NewHybridCounts would (the serving engine's
// choice); 0 selects the map form. The derived invariants (norm², mass,
// dense/spill placement) are sums and products of integers far below
// 2⁵³, so the rebuilt vector is bit-identical to the one that was
// exported, regardless of entry order.
func FromEntries(universe int, ts []tags.Tag, ns []int64, posts int) (*Counts, error) {
	if len(ts) != len(ns) {
		return nil, fmt.Errorf("sparse: %d tags for %d counts", len(ts), len(ns))
	}
	var c *Counts
	if universe > 0 {
		c = NewHybridCounts(universe)
	} else {
		// Pre-sized: the support is known, so the map never grows or
		// rehashes while it is filled.
		c = &Counts{m: make(map[tags.Tag]int64, len(ts))}
	}
	for i, t := range ts {
		n := ns[i]
		if n <= 0 || n > int64(posts) {
			return nil, fmt.Errorf("sparse: tag %d count %d outside (0,%d]", t, n, posts)
		}
		if c.hybrid {
			if ti := int(t); ti >= 0 && ti < DenseTagCap {
				if n > math.MaxInt32 {
					return nil, fmt.Errorf("sparse: tag %d count %d overflows the dense base", t, n)
				}
				if ti >= len(c.d) {
					c.grow(ti)
				}
				if c.d[ti] != 0 {
					return nil, fmt.Errorf("sparse: duplicate entry for tag %d", t)
				}
				c.d[ti] = int32(n)
				c.dn++
			} else {
				if c.m == nil {
					c.m = make(map[tags.Tag]int64)
				}
				if _, dup := c.m[t]; dup {
					return nil, fmt.Errorf("sparse: duplicate entry for tag %d", t)
				}
				c.m[t] = n
			}
		} else {
			if _, dup := c.m[t]; dup {
				return nil, fmt.Errorf("sparse: duplicate entry for tag %d", t)
			}
			c.m[t] = n
		}
		c.norm2 += float64(n) * float64(n)
		c.mass += n
	}
	c.posts = posts
	return c, nil
}

// Entries appends the non-zero (tag, count) support to the given slices
// in ascending tag order — the export counterpart of FromEntries.
func (c *Counts) Entries(ts []tags.Tag, ns []int64) ([]tags.Tag, []int64) {
	start := len(ts)
	c.forEach(func(t tags.Tag, n int64) {
		ts = append(ts, t)
		ns = append(ns, n)
	})
	added := ts[start:]
	addedNs := ns[start:]
	sort.Sort(&entrySorter{ts: added, ns: addedNs})
	return ts, ns
}

type entrySorter struct {
	ts []tags.Tag
	ns []int64
}

func (e *entrySorter) Len() int           { return len(e.ts) }
func (e *entrySorter) Less(i, j int) bool { return e.ts[i] < e.ts[j] }
func (e *entrySorter) Swap(i, j int) {
	e.ts[i], e.ts[j] = e.ts[j], e.ts[i]
	e.ns[i], e.ns[j] = e.ns[j], e.ns[i]
}

// FromSeq builds counts by accumulating the first k posts of seq.
// It panics if k exceeds len(seq).
func FromSeq(seq tags.Seq, k int) *Counts {
	c := NewCounts()
	for i := 0; i < k; i++ {
		c.Add(seq[i])
	}
	return c
}

// Dense materializes the rfd as a dense []float64 of the given dimension
// (|T|). Entries outside the support are zero. Intended for tests, the
// dense-vs-sparse ablation, and tiny worked examples; production paths stay
// sparse.
func (c *Counts) Dense(dim int) []float64 {
	out := make([]float64, dim)
	if c.mass == 0 {
		return out
	}
	c.forEach(func(t tags.Tag, n int64) {
		if int(t) < dim {
			out[t] = float64(n) / float64(c.mass)
		}
	})
	return out
}

// DenseCosine computes Equation 16 directly on dense vectors. It exists to
// cross-check the sparse implementation (and for the ablation benchmark);
// both must agree to float tolerance.
func DenseCosine(a, b []float64) float64 {
	var dot, na, nb float64
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
	}
	for _, x := range a {
		na += x * x
	}
	for _, x := range b {
		nb += x * x
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
