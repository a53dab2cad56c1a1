package optimal

import (
	"math"
	"math/rand"
	"testing"

	"incentivetag/internal/quality"
)

// randCurves builds random monotone-ish quality curves; maxX per resource
// is at least B so exact spending is always feasible.
func randCurves(rng *rand.Rand, n, minLen int) []quality.Curve {
	curves := make([]quality.Curve, n)
	for i := range curves {
		l := minLen + rng.Intn(4)
		c := make(quality.Curve, l+1)
		v := rng.Float64() * 0.5
		for x := 0; x <= l; x++ {
			c[x] = v
			// Mostly increasing, occasionally dipping (quality is not
			// guaranteed monotone in the paper either).
			v += rng.Float64()*0.1 - 0.01
			if v > 1 {
				v = 1
			}
			if v < 0 {
				v = 0
			}
		}
		curves[i] = c
	}
	return curves
}

// DP must equal exhaustive enumeration on small instances.
func TestDPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(3)
		B := rng.Intn(6)
		curves := randCurves(rng, n, B)
		res, err := Solve(curves, B, Options{Bounded: true})
		if err != nil {
			t.Fatal(err)
		}
		bfVal, bfX := bruteForce(curves, B, nil)
		if math.Abs(res.Values[B]-bfVal) > 1e-9 {
			t.Fatalf("trial %d (n=%d B=%d): DP %.9f vs brute force %.9f (bf x=%v)",
				trial, n, B, res.Values[B], bfVal, bfX)
		}
		// The backtracked assignment achieves the optimal value and
		// spends exactly B.
		x, err := res.AssignmentAt(B)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		spent := 0
		for i, xi := range x {
			total += curves[i].At(xi)
			spent += xi
		}
		if math.Abs(total-bfVal) > 1e-9 {
			t.Fatalf("trial %d: assignment value %.9f != optimum %.9f", trial, total, bfVal)
		}
		if spent != B {
			t.Fatalf("trial %d: assignment spends %d, budget %d", trial, spent, B)
		}
	}
}

// Values[b] must be optimal for EVERY b, not just B (one solve yields the
// whole Figure 6(a) DP curve).
func TestDPPerBudgetValues(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	curves := randCurves(rng, 3, 6)
	B := 6
	res, err := Solve(curves, B, Options{Bounded: true})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b <= B; b++ {
		bfVal, _ := bruteForce(curves, b, nil)
		if math.Abs(res.Values[b]-bfVal) > 1e-9 {
			t.Fatalf("b=%d: DP %.9f vs brute %.9f", b, res.Values[b], bfVal)
		}
		x, err := res.AssignmentAt(b)
		if err != nil {
			t.Fatal(err)
		}
		spent := 0
		for _, xi := range x {
			spent += xi
		}
		if spent != b {
			t.Fatalf("b=%d: backtracked spend %d", b, spent)
		}
	}
}

// Bounded and unbounded solves agree whenever curves cover the budget.
func TestBoundedMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	curves := randCurves(rng, 4, 8)
	for _, B := range []int{0, 3, 8} {
		a, err := Solve(curves, B, Options{Bounded: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(curves, B, Options{Bounded: false})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Values[B]-b.Values[B]) > 1e-12 {
			t.Errorf("B=%d: bounded %.12f vs unbounded %.12f", B, a.Values[B], b.Values[B])
		}
	}
}

// The paper's Table IV instance: DP must pick x = (1,1).
func TestDPTableIV(t *testing.T) {
	curves := []quality.Curve{
		{0.953, 0.990, 0.943},
		{0.894, 0.990, 0.992},
	}
	res, err := Solve(curves, 2, Options{Bounded: true})
	if err != nil {
		t.Fatal(err)
	}
	x, err := res.AssignmentAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 1 || x[1] != 1 {
		t.Errorf("DP chose %v, paper's optimum is (1,1)", x)
	}
	if math.Abs(res.MeanQualityAt(2)-0.990) > 1e-9 {
		t.Errorf("optimal mean quality %.4f, want 0.990", res.MeanQualityAt(2))
	}
}

// Variable-cost extension: DP with costs must match cost-aware brute
// force.
func TestDPWithCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(2)
		B := 2 + rng.Intn(5)
		curves := randCurves(rng, n, B)
		costs := make([]int, n)
		for i := range costs {
			costs[i] = 1 + rng.Intn(3)
		}
		res, err := Solve(curves, B, Options{Bounded: true, Costs: costs})
		if err != nil {
			t.Fatal(err)
		}
		// Brute force requires exact spend; DP allows slack cells. Compare
		// against the max over b ≤ B of exact-spend optima.
		best := math.Inf(-1)
		for b := 0; b <= B; b++ {
			if v, x := bruteForce(curves, b, costs); x != nil && v > best {
				best = v
			}
		}
		// DP's Values[B] allows not spending leftover units only via
		// x_i = 0 allocations, so it may fall below `best` only when no
		// exact assignment exists; with x=0 always feasible, Values[B]
		// must be ≥ the b=B optimum and ≤ best overall.
		vB, _ := bruteForce(curves, B, costs)
		if res.Values[B]+1e-9 < vB {
			t.Fatalf("trial %d: DP %.9f below exact-spend optimum %.9f", trial, res.Values[B], vB)
		}
		if res.Values[B] > best+1e-9 {
			t.Fatalf("trial %d: DP %.9f above any feasible optimum %.9f", trial, res.Values[B], best)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(nil, 3, Options{}); err == nil {
		t.Error("empty instance accepted")
	}
	if _, err := Solve(randCurves(rand.New(rand.NewSource(1)), 2, 2), -1, Options{}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := Solve(randCurves(rand.New(rand.NewSource(1)), 2, 2), 1, Options{Costs: []int{1}}); err == nil {
		t.Error("cost length mismatch accepted")
	}
	res, err := Solve(randCurves(rand.New(rand.NewSource(2)), 2, 3), 3, Options{Bounded: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.AssignmentAt(4); err == nil {
		t.Error("AssignmentAt beyond solved budget accepted")
	}
	if _, err := res.AssignmentAt(-1); err == nil {
		t.Error("AssignmentAt(-1) accepted")
	}
}

// MeanQualityAt clamps to the solved range.
func TestMeanQualityClamp(t *testing.T) {
	curves := []quality.Curve{{0.5, 0.6}}
	res, err := Solve(curves, 1, Options{Bounded: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanQualityAt(-5) != res.MeanQualityAt(0) {
		t.Error("negative budget not clamped")
	}
	if res.MeanQualityAt(100) != res.MeanQualityAt(1) {
		t.Error("excess budget not clamped")
	}
}
