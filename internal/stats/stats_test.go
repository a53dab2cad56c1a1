package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := mean(xs); math.Abs(m-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", m)
	}
	// Sample std with n−1 denominator: variance 32/7.
	if s := stdDev(xs); math.Abs(s-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("stdDev = %g", s)
	}
	if mean(nil) != 0 || stdDev(nil) != 0 || stdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs mishandled")
	}
}

func TestPearsonKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect positive: r=%g err=%v", r, err)
	}
	ys2 := []float64{10, 8, 6, 4, 2}
	r2, _ := Pearson(xs, ys2)
	if math.Abs(r2+1) > 1e-12 {
		t.Errorf("perfect negative: r=%g", r2)
	}
	if _, err := Pearson(xs, ys[:3]); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero variance accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("single sample accepted")
	}
}

func TestKendallKnown(t *testing.T) {
	// Identical rankings → 1; reversed → −1 (§V-C.2's interpretation).
	xs := []float64{1, 2, 3, 4}
	tau, err := KendallTau(xs, []float64{10, 20, 30, 40})
	if err != nil || math.Abs(tau-1) > 1e-12 {
		t.Errorf("identical ranking: τ=%g err=%v", tau, err)
	}
	tau, _ = KendallTau(xs, []float64{4, 3, 2, 1})
	if math.Abs(tau+1) > 1e-12 {
		t.Errorf("opposite ranking: τ=%g", tau)
	}
	// One swap among 4: C−D = 5−1 = 4 over 6 pairs → 2/3.
	tau, _ = KendallTau(xs, []float64{1, 2, 4, 3})
	if math.Abs(tau-2.0/3) > 1e-12 {
		t.Errorf("single swap: τ=%g, want 2/3", tau)
	}
}

func TestKendallErrors(t *testing.T) {
	if _, err := KendallTau([]float64{1}, []float64{1}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := KendallTau([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := KendallTau([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("all-tied side accepted")
	}
}

// The O(n log n) implementation must match the O(n²) reference, ties
// included.
func TestKendallMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, n uint8) bool {
		m := int(n%40) + 2
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, m)
		ys := make([]float64, m)
		for i := range xs {
			// Coarse values force many ties.
			xs[i] = float64(r.Intn(6))
			ys[i] = float64(r.Intn(6))
		}
		fast, errF := KendallTau(xs, ys)
		slow, errS := kendallTauNaive(xs, ys)
		if (errF == nil) != (errS == nil) {
			return false
		}
		if errF != nil {
			return true
		}
		return math.Abs(fast-slow) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestSummarizeQuantile(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Errorf("quartiles: %g %g", s.P25, s.P75)
	}
	if got := quantile([]float64{1, 2}, 0.5); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("interpolated median = %g", got)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile != 0")
	}
	if quantile([]float64{7}, 0) != 7 || quantile([]float64{7}, 1) != 7 {
		t.Error("edge quantiles wrong")
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Error("empty summary N != 0")
	}
}

func TestLogHistogram(t *testing.T) {
	values := []int{1, 5, 9, 10, 99, 100, 1000, 0, -3}
	bins := LogHistogram(values, 10)
	// Bins: [1,10) [10,100) [100,1000) [1000,10000).
	if len(bins) != 4 {
		t.Fatalf("got %d bins", len(bins))
	}
	wantCounts := []int{3, 2, 1, 1}
	for i, want := range wantCounts {
		if bins[i].Count != want {
			t.Errorf("bin %d count = %d, want %d", i, bins[i].Count, want)
		}
	}
	if bins[0].Lo != 1 || bins[0].Hi != 10 || bins[3].Lo != 1000 {
		t.Errorf("bin bounds wrong: %+v", bins)
	}
	if LogHistogram([]int{0}, 10) != nil {
		t.Error("all-sub-1 histogram should be nil")
	}
}

func TestLogHistogramPanicsOnBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("base 1 accepted")
		}
	}()
	LogHistogram([]int{1}, 1)
}

// Property: τ is symmetric under exchanging the two rankings and
// anti-symmetric under negating one side (no ties case).
func TestKendallSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(30)
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		a, _ := KendallTau(xs, ys)
		b, _ := KendallTau(ys, xs)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("asymmetric: %g vs %g", a, b)
		}
		neg := make([]float64, n)
		for i := range ys {
			neg[i] = -ys[i]
		}
		c, _ := KendallTau(xs, neg)
		if math.Abs(a+c) > 1e-12 {
			t.Fatalf("negation not anti-symmetric: %g vs %g", a, c)
		}
	}
}
