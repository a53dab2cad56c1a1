// Package optimal implements the theoretically optimal offline solution of
// Section III-D / Appendix B: a dynamic program over resources and budget
// that maximizes Σ_i q_i(c_i + x_i) subject to Σ_i x_i = B.
//
// DP is offline: it needs every future post of every resource (to evaluate
// the quality curves) and each resource's stable rfd. It therefore serves
// only as the reference upper bound the practical strategies are compared
// against (§III-D: "DP is of theoretical interest").
//
// The recurrence (Equation 14/17):
//
//	Q(b, 1) = q_1(c_1 + b)
//	Q(b, l) = max_{0 ≤ x_l ≤ b} Q(b − x_l, l−1) + q_l(c_l + x_l)
//
// Time O(n·B²) table operations (each q lookup is O(1) after curve
// precomputation, improving on the paper's O(n|T|B²) bound), space
// O(nB) for the backtracking table.
package optimal

import (
	"fmt"
	"math"

	"incentivetag/internal/core"
	"incentivetag/internal/quality"
)

// Options tune the solver.
type Options struct {
	// Bounded caps each x_l at the resource's replayable post count
	// (curve length). This prunes the inner maximization without changing
	// the optimum whenever allocating past the recorded data cannot be
	// observed anyway; disabling it reproduces the paper's literal
	// 0 ≤ x_l ≤ b inner loop (the ablation baseline).
	Bounded bool
	// Costs, when non-nil, gives per-task reward cost per resource
	// (variable-cost extension; nil means unit costs).
	Costs []int
}

// Result holds the solved DP.
type Result struct {
	// Values[b] is the optimal TOTAL quality Σ_i q_i (Equation 13) when
	// the budget is exactly b, for every b in [0, B]. Divide by n for the
	// mean quality of Equation 10. A single solve therefore yields the
	// whole quality-vs-budget curve of Figure 6(a).
	Values []float64
	// n and the choice table for backtracking.
	n      int
	curves []quality.Curve
	costs  []int
	choice [][]int32 // choice[l][b] = x chosen for resource l at budget b
}

// Solve runs the DP for budget B over the given quality curves.
func Solve(curves []quality.Curve, B int, opts Options) (*Result, error) {
	n := len(curves)
	if n == 0 {
		return nil, fmt.Errorf("optimal: no resources")
	}
	if B < 0 {
		return nil, fmt.Errorf("optimal: negative budget %d", B)
	}
	costs := opts.Costs
	if costs != nil && len(costs) != n {
		return nil, fmt.Errorf("optimal: %d costs for %d resources", len(costs), n)
	}
	costOf := func(i int) int {
		if costs == nil {
			return 1
		}
		return costs[i]
	}

	res := &Result{
		n:      n,
		curves: curves,
		costs:  costs,
		choice: make([][]int32, n),
	}

	// Row for l = 1 (resource 0): Q(b, 1) = q_1(c_1 + floor(b/w_1)).
	prev := make([]float64, B+1)
	row0 := make([]int32, B+1)
	for b := 0; b <= B; b++ {
		x := b / costOf(0)
		if opts.Bounded && x > curves[0].MaxX() {
			x = curves[0].MaxX()
		}
		prev[b] = curves[0].At(x)
		row0[b] = int32(x)
	}
	res.choice[0] = row0

	cur := make([]float64, B+1)
	for l := 1; l < n; l++ {
		rowChoice := make([]int32, B+1)
		w := costOf(l)
		curve := curves[l]
		for b := 0; b <= B; b++ {
			best := math.Inf(-1)
			bestX := 0
			xMax := b / w
			if opts.Bounded && xMax > curve.MaxX() {
				xMax = curve.MaxX()
			}
			for x := 0; x <= xMax; x++ {
				v := prev[b-x*w] + curve.At(x)
				if v > best {
					best = v
					bestX = x
				}
			}
			cur[b] = best
			rowChoice[b] = int32(bestX)
		}
		res.choice[l] = rowChoice
		prev, cur = cur, prev
	}
	res.Values = append([]float64(nil), prev[:B+1]...)
	return res, nil
}

// AssignmentAt backtracks the optimal assignment for budget b ≤ B.
func (r *Result) AssignmentAt(b int) (core.Assignment, error) {
	if b < 0 || b >= len(r.Values) {
		return nil, fmt.Errorf("optimal: budget %d outside solved range [0,%d]", b, len(r.Values)-1)
	}
	x := make(core.Assignment, r.n)
	rem := b
	for l := r.n - 1; l >= 0; l-- {
		xi := int(r.choice[l][rem])
		x[l] = xi
		w := 1
		if r.costs != nil {
			w = r.costs[l]
		}
		rem -= xi * w
		if rem < 0 {
			return nil, fmt.Errorf("optimal: backtracking underflow at resource %d", l)
		}
	}
	return x, nil
}

// MeanQualityAt returns the optimal mean quality q(R, c+x) at budget b.
func (r *Result) MeanQualityAt(b int) float64 {
	if b < 0 {
		b = 0
	}
	if b >= len(r.Values) {
		b = len(r.Values) - 1
	}
	return r.Values[b] / float64(r.n)
}

// bruteForce enumerates every feasible assignment and returns the optimal
// total quality and one argmax. Exponential; exists solely to validate the
// DP on tiny instances (Table IV is a 2-resource, B=2 case).
func bruteForce(curves []quality.Curve, B int, costs []int) (float64, core.Assignment) {
	n := len(curves)
	best := math.Inf(-1)
	var bestX core.Assignment
	x := make(core.Assignment, n)
	costOf := func(i int) int {
		if costs == nil {
			return 1
		}
		return costs[i]
	}
	var rec func(i, rem int, acc float64)
	rec = func(i, rem int, acc float64) {
		if i == n-1 {
			xi := rem / costOf(i)
			if xi*costOf(i) != rem {
				return // cannot spend the budget exactly
			}
			x[i] = xi
			total := acc + curves[i].At(xi)
			if total > best {
				best = total
				bestX = x.Clone()
			}
			return
		}
		for xi := 0; xi*costOf(i) <= rem; xi++ {
			x[i] = xi
			rec(i+1, rem-xi*costOf(i), acc+curves[i].At(xi))
		}
	}
	rec(0, B, 0)
	return best, bestX
}
