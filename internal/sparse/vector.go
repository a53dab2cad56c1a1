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
// # Representation
//
// Counts is one open-addressed table of (tag int32, count int32) slots:
// a power-of-two length, at most ¾ full, probed linearly from a
// Fibonacci hash of the tag mixed with a per-process seed (tag ids come
// from clients, and a fixed hash would let them build long probe
// chains). A count of 0 marks an empty slot; an entry is never
// deleted, so the table holds no tombstones. A vector costs 8 bytes
// per slot whatever its tag ids are: a reference of 44 tags is a
// 64-slot table (512 B), where a dense base indexed by tag id would
// spend tens of kilobytes on zeros. The replay simulator, the serving
// engine and every stable reference share this one form.
//
// norm², mass and the Add overlap are sums and products of integers far
// below 2⁵³, so every derived quantity (cosine, adjacent similarity,
// quality) is exact and independent of the table's slot order — which
// the seed makes differ from process to process.
package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"unsafe"

	"incentivetag/internal/tags"
)

// hashSeed is mixed into every slot's home position, once per process.
var hashSeed = rand.Uint64()

// slot is one table entry; n == 0 marks it empty.
type slot struct {
	t tags.Tag
	n int32
}

// Counts is a sparse non-negative integer vector over tag ids. It tracks
// the squared Euclidean norm and the L1 mass incrementally so cosine
// similarity and relative frequencies never require a full scan beyond the
// non-zero support. The zero value is an empty vector (k = 0).
type Counts struct {
	slots []slot // nil, or a power-of-two table at most ¾ full
	n     int    // occupied slots: the support size
	shift uint8  // 64 − log₂ len(slots)

	norm2 float64 // sum of squares of entries
	mass  int64   // sum of entries (duplicate-counted tag occurrences)
	posts int     // number of posts accumulated (k in the paper)
}

// NewCounts returns an empty count vector (k = 0 posts).
func NewCounts() *Counts { return &Counts{} }

// tableLen is the table length that holds size entries at most ¾ full.
func tableLen(size int) int {
	l := 8
	for 3*l < 4*size {
		l *= 2
	}
	return l
}

// home is t's first probe position.
func (c *Counts) home(t tags.Tag) int {
	return int((uint64(uint32(t)) ^ hashSeed) * 0x9E3779B97F4A7C15 >> c.shift)
}

// find probes for t: its slot, or the empty one it would take. The table
// must be non-empty; the ¾ bound guarantees an empty slot ends the probe.
func (c *Counts) find(t tags.Tag) int {
	mask := len(c.slots) - 1
	i := c.home(t)
	for c.slots[i].n != 0 && c.slots[i].t != t {
		i = (i + 1) & mask
	}
	return i
}

// resize rebuilds the table at length l (a power of two ≥ 8).
func (c *Counts) resize(l int) {
	old := c.slots
	c.slots = make([]slot, l)
	c.shift = uint8(64 - bits.TrailingZeros(uint(l)))
	for _, s := range old {
		if s.n != 0 {
			c.slots[c.find(s.t)] = s
		}
	}
}

// claim returns t's slot, taking an empty one for it (count still 0)
// when t is absent and growing the table first if that would pass ¾.
func (c *Counts) claim(t tags.Tag) int {
	if len(c.slots) > 0 {
		i := c.find(t)
		if c.slots[i].n != 0 {
			return i
		}
		if 4*(c.n+1) <= 3*len(c.slots) {
			c.slots[i].t = t
			c.n++
			return i
		}
	}
	c.resize(tableLen(c.n + 1))
	i := c.find(t)
	c.slots[i].t = t
	c.n++
	return i
}

// Posts returns k, the number of posts accumulated so far.
func (c *Counts) Posts() int { return c.posts }

// Mass returns the total number of tag occurrences, the denominator of
// Definition 4.
func (c *Counts) Mass() int64 { return c.mass }

// Norm2 returns the squared Euclidean norm of the count vector.
func (c *Counts) Norm2() float64 { return c.norm2 }

// Len returns the number of distinct tags with non-zero count.
func (c *Counts) Len() int { return c.n }

// MemBytes is the retained heap of the vector: the Counts struct plus 8
// bytes per table slot. Both are power-of-two allocations that the
// runtime's size classes hold exactly. It sizes the residency tier's
// resident-bytes budget.
func (c *Counts) MemBytes() int {
	return int(unsafe.Sizeof(*c) + uintptr(len(c.slots))*unsafe.Sizeof(slot{}))
}

// Get returns h(t, k): the number of accumulated posts containing t
// (Definition 3; each post contains a tag at most once).
func (c *Counts) Get(t tags.Tag) int64 {
	if c.n == 0 {
		return 0
	}
	return int64(c.slots[c.find(t)].n)
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
// adjacentCosine.
func (c *Counts) Add(p tags.Post) (overlap int64) {
	for _, t := range p {
		i := c.claim(t)
		old := c.slots[i].n
		if old == math.MaxInt32 {
			panic(fmt.Sprintf("sparse: count overflow for tag %d", t))
		}
		c.slots[i].n = old + 1
		overlap += int64(old)
		// norm² gains (old+1)² − old² = 2·old + 1.
		c.norm2 += float64(2*int64(old) + 1)
	}
	c.mass += int64(len(p))
	c.posts++
	return overlap
}

// Reset returns the vector to its empty state (k = 0) while retaining its
// table, so a scratch vector can be reused across replays without
// reallocating.
func (c *Counts) Reset() {
	clear(c.slots)
	c.n, c.norm2, c.mass, c.posts = 0, 0, 0, 0
}

// Clone returns an independent deep copy.
func (c *Counts) Clone() *Counts {
	out := *c
	out.slots = slices.Clone(c.slots)
	return &out
}

// ForEach visits every non-zero (tag, count) entry in unspecified
// order, without allocating. The query engine uses it to lift a
// subject's support and weights in one pass; callers needing ascending
// order should use Support instead.
func (c *Counts) ForEach(fn func(t tags.Tag, n int64)) {
	for _, s := range c.slots {
		if s.n != 0 {
			fn(s.t, int64(s.n))
		}
	}
}

// Support returns the non-zero tag ids in ascending order.
func (c *Counts) Support() []tags.Tag {
	return c.appendSupport(make([]tags.Tag, 0, c.Len()))
}

// appendSupport appends the non-zero tag ids to dst in ascending order
// and returns the extended slice. It is the allocation-free counterpart
// of Support for callers that pool their scratch (the query engine's
// per-query tag plan): when dst has capacity the call allocates nothing.
func (c *Counts) appendSupport(dst []tags.Tag) []tags.Tag {
	start := len(dst)
	for _, s := range c.slots {
		if s.n != 0 {
			dst = append(dst, s.t)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// Dot returns the inner product of two count vectors, iterating over the
// smaller support. Every term is a product of integers and the sum stays
// far below 2^53, so the result is exact (and order-independent) in
// float64.
func (c *Counts) Dot(o *Counts) float64 {
	a, b := c, o
	if b.Len() < a.Len() {
		a, b = b, a
	}
	var dot float64
	for _, s := range a.slots {
		if s.n != 0 {
			dot += float64(s.n) * float64(b.Get(s.t))
		}
	}
	return dot
}

// Cosine returns s(F_a, F_b) per Equation 16: the cosine of the two rfd
// vectors, which equals the cosine of the raw count vectors. If either
// vector has received no posts (k = 0), the similarity is 0 by definition.
func (c *Counts) Cosine(o *Counts) float64 {
	return CosineOf(c.Dot(o), c.norm2, c.posts, o.norm2, o.posts)
}

// CosineOf is Cosine over its operands: the exact dot product of two
// count vectors and each one's squared norm and post count. It is the
// one copy of the expression, so a caller that maintains the dot
// incrementally (the engine, the replay tape) gets Cosine's result bit
// for bit: same guards, same operand order, same clamping.
func CosineOf(dot, norm2A float64, postsA int, norm2B float64, postsB int) float64 {
	if postsA == 0 || postsB == 0 {
		return 0
	}
	if norm2A == 0 || norm2B == 0 {
		return 0
	}
	s := dot / math.Sqrt(norm2A*norm2B)
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

// adjacentCosine returns s(F(k−1), F(k)) — the adjacent similarity at the
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
func adjacentCosine(norm2Before float64, overlap int64, postLen int) float64 {
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
	return adjacentCosine(norm2Before, overlap, len(p))
}

// Presize empties c for a rebuild from a snapshot's support — posts
// accumulated posts over size distinct tags — with a table that holds
// size entries without growing. Insert then adds the entries, in any
// order: norm² and mass are sums and products of integers far below
// 2⁵³, so the rebuilt vector is bit-identical to the one exported.
func (c *Counts) Presize(posts, size int) {
	*c = Counts{posts: posts}
	if size > 0 {
		c.resize(tableLen(size))
	}
}

// Insert adds the entry (t, n) to a vector being rebuilt (see Presize),
// refusing a count outside (0, posts], one past int32 and a tag already
// present. A refused entry leaves c as it was.
func (c *Counts) Insert(t tags.Tag, n int64) error {
	if n <= 0 || n > int64(c.posts) {
		return fmt.Errorf("sparse: tag %d count %d outside (0,%d]", t, n, c.posts)
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("sparse: tag %d count %d overflows int32", t, n)
	}
	i := c.claim(t)
	if c.slots[i].n != 0 {
		return fmt.Errorf("sparse: duplicate entry for tag %d", t)
	}
	c.slots[i].n = int32(n)
	c.norm2 += float64(n) * float64(n)
	c.mass += n
	return nil
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
	for _, s := range c.slots {
		if s.n != 0 && s.t >= 0 && int(s.t) < dim {
			out[s.t] = float64(s.n) / float64(c.mass)
		}
	}
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
