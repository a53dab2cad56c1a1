// Package fenwick implements a Fenwick (binary indexed) tree over float64
// weights with O(log n) point update and O(log n) weighted sampling by
// prefix-sum search. The Free Choice strategy uses it to draw resources
// proportionally to their remaining organic popularity as weights decay
// one post at a time.
package fenwick

import "fmt"

// Tree is a Fenwick tree over n float64 weights, indexed 0..n−1.
type Tree struct {
	n    int
	bit  []float64 // 1-based internal array
	vals []float64 // current weight per index, for Get and validation
}

// newTree returns a tree of n zero weights.
func newTree(n int) *Tree {
	if n < 0 {
		panic(fmt.Sprintf("fenwick: negative size %d", n))
	}
	return &Tree{n: n, bit: make([]float64, n+1), vals: make([]float64, n)}
}

// FromWeights builds a tree initialized to ws in O(n).
func FromWeights(ws []float64) *Tree {
	t := newTree(len(ws))
	copy(t.vals, ws)
	for i, w := range ws {
		if w < 0 {
			panic(fmt.Sprintf("fenwick: negative weight %g at %d", w, i))
		}
		t.bit[i+1] += w
		if j := i + 1 + ((i + 1) & -(i + 1)); j <= t.n {
			t.bit[j] += t.bit[i+1]
		}
	}
	return t
}

// Set assigns weight w ≥ 0 to index i.
func (t *Tree) Set(i int, w float64) {
	if w < 0 {
		panic(fmt.Sprintf("fenwick: negative weight %g", w))
	}
	delta := w - t.vals[i]
	t.vals[i] = w
	for j := i + 1; j <= t.n; j += j & -j {
		t.bit[j] += delta
	}
}

// Add adds delta to the weight at i (the result must stay ≥ 0 up to float
// tolerance; small negative residue is clamped).
func (t *Tree) Add(i int, delta float64) {
	w := t.vals[i] + delta
	if w < 0 {
		w = 0
	}
	t.Set(i, w)
}

// Total returns the sum of all weights.
func (t *Tree) Total() float64 {
	var s float64
	// Sum of prefix up to n.
	for j := t.n; j > 0; j -= j & -j {
		s += t.bit[j]
	}
	return s
}

// Search returns the smallest index i such that the weights in [0, i]
// sum past x. For sampling, draw x uniform in [0, Total()) and call
// Search; indices are returned with probability proportional to weight.
// Returns −1 when x ≥ Total() (e.g. all weights zero).
func (t *Tree) Search(x float64) int {
	if x < 0 {
		return -1
	}
	idx := 0
	// Largest power of two ≤ n.
	mask := 1
	for mask<<1 <= t.n {
		mask <<= 1
	}
	rem := x
	for ; mask > 0; mask >>= 1 {
		next := idx + mask
		if next <= t.n && t.bit[next] <= rem {
			// Skipping a subtree whose total weight is ≤ remaining x.
			// Use < for strict "Prefix > x": weight-zero slots must not
			// absorb the draw, so advance on equality only when the
			// subtree total is strictly positive and equal-to-rem edge
			// cases resolve to later slots.
			rem -= t.bit[next]
			idx = next
		}
	}
	if idx >= t.n {
		return -1
	}
	return idx
}
