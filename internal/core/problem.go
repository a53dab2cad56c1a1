// Package core names the decision variable of the incentive-based
// tagging problem P(B, R) (Definition 11, Equations 9–13): given n
// resources with initial post counts c and a budget of B reward units,
// the assignment x (Σ x_i·cost_i ≤ B, x_i ∈ ℤ*) maximizing the tagging
// quality q(R, c+x) after all tasks complete. The strategies, the
// replay simulator and the offline solvers all report their answer as
// an Assignment.
package core

// Assignment is x = (x_1, ..., x_n): the number of post tasks allocated to
// each resource.
type Assignment []int

// Clone returns an independent copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	copy(out, a)
	return out
}
