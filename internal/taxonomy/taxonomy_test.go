package taxonomy

import (
	"math"
	"strings"
	"testing"
)

// buildSmall constructs:
//
//	Top ── A ── A1, A2
//	    └─ B ── B1
func buildSmall() (*Tree, map[string]NodeID) {
	b := newBuilder()
	a := b.addChild(b.root(), "A")
	bb := b.addChild(b.root(), "B")
	a1 := b.addChild(a, "A1")
	a2 := b.addChild(a, "A2")
	b1 := b.addChild(bb, "B1")
	t := b.build()
	return t, map[string]NodeID{"A": a, "B": bb, "A1": a1, "A2": a2, "B1": b1}
}

func TestTreeStructure(t *testing.T) {
	tr, ids := buildSmall()
	if len(tr.parent) != 6 {
		t.Errorf("%d nodes, want 6", len(tr.parent))
	}
	if tr.depth[ids["A1"]] != 2 || tr.depth[ids["A"]] != 1 || tr.depth[0] != 0 {
		t.Error("depths wrong")
	}
	if tr.Parent(ids["A1"]) != ids["A"] {
		t.Error("parent wrong")
	}
	leaves := tr.Leaves()
	if len(leaves) != 3 {
		t.Errorf("leaves = %v", leaves)
	}
	if tr.Name(ids["A1"]) != "A1" || tr.Name(tr.Parent(ids["A1"])) != "A" || tr.Name(0) != "Top" {
		t.Errorf("names = %q, %q, %q", tr.Name(ids["A1"]), tr.Name(tr.Parent(ids["A1"])), tr.Name(0))
	}
}

func TestLCADist(t *testing.T) {
	tr, ids := buildSmall()
	cases := []struct {
		a, b string
		lca  string
		dist int
	}{
		{"A1", "A2", "A", 2},
		{"A1", "B1", "", 4}, // LCA is root
		{"A1", "A1", "A1", 0},
		{"A", "A1", "A", 1},
	}
	for _, tc := range cases {
		lca := tr.lca(ids[tc.a], ids[tc.b])
		if tc.lca == "" {
			if lca != 0 {
				t.Errorf("LCA(%s,%s) = %d, want root", tc.a, tc.b, lca)
			}
		} else if lca != ids[tc.lca] {
			t.Errorf("LCA(%s,%s) wrong", tc.a, tc.b)
		}
		if d := tr.dist(ids[tc.a], ids[tc.b]); d != tc.dist {
			t.Errorf("Dist(%s,%s) = %d, want %d", tc.a, tc.b, d, tc.dist)
		}
	}
}

func TestSimilarityMonotone(t *testing.T) {
	tr, ids := buildSmall()
	same := tr.Similarity(ids["A1"], ids["A1"])
	sib := tr.Similarity(ids["A1"], ids["A2"])
	far := tr.Similarity(ids["A1"], ids["B1"])
	if !(same > sib && sib > far) {
		t.Errorf("similarity not monotone in distance: %g %g %g", same, sib, far)
	}
	if math.Abs(same-1) > 1e-12 {
		t.Errorf("self similarity = %g", same)
	}
}

func TestBuildDefault(t *testing.T) {
	tr := BuildDefault(48)
	if got := len(tr.Leaves()); got < 48 {
		t.Errorf("leaves = %d, want ≥ 48", got)
	}
	// Themed leaves present.
	for _, name := range []string{"Physics", "Java", "VideoEditing", "Architecture", "Football"} {
		if tr.FindLeaf(name) < 0 {
			t.Errorf("leaf %q missing", name)
		}
	}
	if tr.FindLeaf("Nonexistent") != -1 {
		t.Error("FindLeaf invented a leaf")
	}
	// Every leaf has depth 2 (top/sub).
	for _, l := range tr.Leaves() {
		if tr.depth[l] != 2 {
			t.Errorf("leaf %s depth %d", tr.Name(l), tr.depth[l])
		}
	}
}

func TestBuildDefaultExtraLeaves(t *testing.T) {
	tr := BuildDefault(100)
	if got := len(tr.Leaves()); got < 100 {
		t.Errorf("leaves = %d, want ≥ 100", got)
	}
	found := false
	for _, l := range tr.Leaves() {
		if strings.HasPrefix(tr.Name(l), "Sub") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no synthetic leaves generated for large request")
	}
}

func TestAddChildPanicsOnUnknownParent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown parent accepted")
		}
	}()
	newBuilder().addChild(99, "X")
}
