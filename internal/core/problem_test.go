package core

import "testing"

func TestAssignmentClone(t *testing.T) {
	x := Assignment{1, 2}
	y := x.Clone()
	y[0] = 9
	if x[0] != 1 {
		t.Error("Clone shares backing array")
	}
}
