package fenwick

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// prefix is the tree's sum of weights in [0, i], read off the Fenwick
// array the way Search walks it.
func prefix(t *Tree, i int) float64 {
	var s float64
	for j := i + 1; j > 0; j -= j & -j {
		s += t.bit[j]
	}
	return s
}

func TestBasicOps(t *testing.T) {
	tr := newTree(5)
	if tr.n != 5 || tr.Total() != 0 {
		t.Fatal("fresh tree not empty")
	}
	tr.Set(0, 2)
	tr.Set(3, 5)
	if got := tr.Total(); math.Abs(got-7) > 1e-12 {
		t.Errorf("Total = %g", got)
	}
	if got := prefix(tr, 2); math.Abs(got-2) > 1e-12 {
		t.Errorf("prefix(2) = %g", got)
	}
	if got := prefix(tr, 3); math.Abs(got-7) > 1e-12 {
		t.Errorf("prefix(3) = %g", got)
	}
	tr.Add(3, -2)
	if got := tr.vals[3]; math.Abs(got-3) > 1e-12 {
		t.Errorf("weight after Add = %g", got)
	}
	tr.Add(3, -10) // clamps at 0
	if tr.vals[3] != 0 {
		t.Errorf("Add below zero not clamped: %g", tr.vals[3])
	}
}

func TestFromWeightsMatchesSets(t *testing.T) {
	ws := []float64{1, 0, 3, 2.5, 0, 4}
	a := FromWeights(ws)
	b := newTree(len(ws))
	for i, w := range ws {
		b.Set(i, w)
	}
	for i := range ws {
		if math.Abs(prefix(a, i)-prefix(b, i)) > 1e-12 {
			t.Fatalf("prefix(%d): %g vs %g", i, prefix(a, i), prefix(b, i))
		}
	}
}

func TestSearchBoundaries(t *testing.T) {
	tr := FromWeights([]float64{2, 0, 3})
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {1.999, 0},
		{2, 2}, // zero-weight slot 1 must be skipped
		{4.999, 2},
	}
	for _, tc := range cases {
		if got := tr.Search(tc.x); got != tc.want {
			t.Errorf("Search(%g) = %d, want %d", tc.x, got, tc.want)
		}
	}
	if got := tr.Search(5); got != -1 {
		t.Errorf("Search(total) = %d, want -1", got)
	}
	if got := tr.Search(-0.5); got != -1 {
		t.Errorf("Search(negative) = %d, want -1", got)
	}
}

func TestSearchNeverReturnsZeroWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ws := make([]float64, 40)
	for i := range ws {
		if i%3 == 0 {
			ws[i] = float64(1 + rng.Intn(5))
		}
	}
	tr := FromWeights(ws)
	for trial := 0; trial < 2000; trial++ {
		i := tr.Search(rng.Float64() * tr.Total())
		if i < 0 || ws[i] == 0 {
			t.Fatalf("Search landed on zero-weight slot %d", i)
		}
	}
}

// Sampling frequencies approach the weight distribution.
func TestSamplingDistribution(t *testing.T) {
	ws := []float64{1, 2, 3, 4}
	tr := FromWeights(ws)
	rng := rand.New(rand.NewSource(11))
	counts := make([]int, 4)
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[tr.Search(rng.Float64()*tr.Total())]++
	}
	for i, w := range ws {
		want := w / 10 * trials
		if math.Abs(float64(counts[i])-want) > want*0.1 {
			t.Errorf("slot %d: %d draws, want ≈%.0f", i, counts[i], want)
		}
	}
}

func TestNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Set accepted")
		}
	}()
	newTree(3).Set(0, -1)
}

func TestFromWeightsNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative FromWeights accepted")
		}
	}()
	FromWeights([]float64{1, -2})
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative size accepted")
		}
	}()
	newTree(-1)
}

// Property: the Fenwick array's prefix sums match a naive running sum
// after arbitrary updates, and Search(x) returns the smallest i whose
// prefix sum exceeds x.
func TestPrefixSearchProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		m := int(n%32) + 1
		r := rand.New(rand.NewSource(seed))
		tr := newTree(m)
		ws := make([]float64, m)
		for op := 0; op < 3*m; op++ {
			i := r.Intn(m)
			w := float64(r.Intn(6))
			tr.Set(i, w)
			ws[i] = w
		}
		sum := 0.0
		for i, w := range ws {
			sum += w
			if math.Abs(prefix(tr, i)-sum) > 1e-9 {
				return false
			}
		}
		if sum == 0 {
			return tr.Search(0) == -1
		}
		for trial := 0; trial < 10; trial++ {
			x := r.Float64() * sum
			got := tr.Search(x)
			want := -1
			acc := 0.0
			for i, w := range ws {
				acc += w
				if acc > x {
					want = i
					break
				}
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}
