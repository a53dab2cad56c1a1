package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"incentivetag/internal/optimal"
	"incentivetag/internal/sim"
)

func tinyCtx(t *testing.T) *Context {
	t.Helper()
	ctx, err := NewContext(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestBudgetCheckpoints(t *testing.T) {
	cps := budgetCheckpoints(100, 4)
	want := []int{0, 25, 50, 75, 100}
	if len(cps) != len(want) {
		t.Fatalf("checkpoints %v", cps)
	}
	for i := range want {
		if cps[i] != want[i] {
			t.Fatalf("checkpoints %v, want %v", cps, want)
		}
	}
	// Tiny budgets deduplicate.
	cps = budgetCheckpoints(2, 10)
	for i := 1; i < len(cps); i++ {
		if cps[i] <= cps[i-1] {
			t.Fatalf("duplicate checkpoints %v", cps)
		}
	}
	if cps[0] != 0 || cps[len(cps)-1] != 2 {
		t.Fatalf("endpoints wrong: %v", cps)
	}
	// Degenerate steps.
	if got := budgetCheckpoints(10, 0); got[len(got)-1] != 10 {
		t.Fatalf("steps=0: %v", got)
	}
}

// The DP sweep's structural metrics must be consistent with replaying its
// per-budget assignments, and its quality must dominate every strategy at
// every checkpoint.
func TestDPSweepConsistency(t *testing.T) {
	ctx := tinyCtx(t)
	dp, err := ctx.sweep("DP")
	if err != nil {
		t.Fatal(err)
	}
	res, bcap, err := ctx.solveDP()
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range dp {
		if cp.Budget > bcap {
			t.Fatalf("DP checkpoint beyond cap: %d > %d", cp.Budget, bcap)
		}
		x, err := res.AssignmentAt(cp.Budget)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := sim.ApplyAssignment(ctx.Data, x)
		if err != nil {
			t.Fatal(err)
		}
		// The DP's value table and the independent replay must agree.
		if math.Abs(replayed.MeanQuality-cp.MeanQuality) > 1e-9 {
			t.Fatalf("budget %d: DP table %.9f vs replay %.9f", cp.Budget, cp.MeanQuality, replayed.MeanQuality)
		}
		if replayed.OverTagged != cp.OverTagged || replayed.WastedPosts != cp.WastedPosts {
			t.Fatalf("budget %d: structural metrics diverge", cp.Budget)
		}
	}
	// Dominance at matching checkpoints.
	for _, name := range []string{"FP", "FC", "RR", "MU", "FP-MU"} {
		cps, err := ctx.sweep(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cp := range cps {
			if cp.Budget > bcap {
				continue
			}
			if cp.MeanQuality > res.MeanQualityAt(cp.Budget)+1e-9 {
				t.Fatalf("%s at budget %d (%.6f) beat DP (%.6f)",
					name, cp.Budget, cp.MeanQuality, res.MeanQualityAt(cp.Budget))
			}
		}
	}
}

// The greedy oracle must sit between the best online strategy and the DP.
func TestGreedyOracleGap(t *testing.T) {
	ctx := tinyCtx(t)
	curves, err := ctx.Curves()
	if err != nil {
		t.Fatal(err)
	}
	B := ctx.Scale.Budget
	_, gv, err := optimal.SolveGreedy(curves, B, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, bcap, err := ctx.solveDP()
	if err != nil {
		t.Fatal(err)
	}
	if B > bcap {
		B = bcap
	}
	dpv := res.Values[B]
	if gv > dpv+1e-9 {
		t.Fatalf("greedy %.9f beat DP %.9f", gv, dpv)
	}
	// Near-optimal: within 1% of the DP's total quality.
	if gv < dpv*0.99 {
		t.Errorf("greedy %.6f more than 1%% below DP %.6f", gv, dpv)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "Demo",
		Headers: []string{"a", "bb"},
	}
	tb.addRow("1", "x")
	tb.addRow("1234", "y")
	tb.note("n=%d", 2)
	var buf bytes.Buffer
	if err := tb.fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== Demo ==", "a     bb", "1234  y", "note: n=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestNewStrategyUnknown(t *testing.T) {
	if _, err := NewStrategy("ZZ", 5); err == nil {
		t.Error("unknown strategy accepted")
	}
	for _, name := range []string{"FC", "RR", "FP", "MU", "FP-MU"} {
		s, err := NewStrategy(name, 5)
		if err != nil || s.Name() != name {
			t.Errorf("NewStrategy(%q) = %v, %v", name, s, err)
		}
	}
}

func TestSubsetData(t *testing.T) {
	ctx := tinyCtx(t)
	d := ctx.subsetData(10)
	if d.N() != 10 {
		t.Errorf("subset N = %d", d.N())
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}
