package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunAllTiny executes every registered experiment at tiny scale,
// checking they complete and emit their table titles.
func TestRunAllTiny(t *testing.T) {
	ctx, err := NewContext(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunAll(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 1(a)", "Figure 1(b)", "Figure 3", "Figure 5",
		"Figure 6(a)", "Figure 6(b)", "Figure 6(c)", "Figure 6(d)",
		"Figure 6(e)", "Figure 6(f)", "Figure 6(g)", "Figure 6(h)",
		"Table VI", "Table VII", "Figure 7(a)", "Figure 7(b)",
		"Dataset census", residentNote,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if testing.Verbose() {
		t.Log("\n" + out)
	}
}

// TestLookup checks registry coverage of DESIGN.md's experiment index.
func TestLookup(t *testing.T) {
	for _, id := range []string{"fig1a", "fig1b", "fig3", "fig5", "fig6a", "fig6b",
		"fig6c", "fig6d", "fig6e", "fig6f", "fig6g", "fig6h", "table6", "table7",
		"fig7a", "fig7b", "stats"} {
		if _, err := Lookup(id); err != nil {
			t.Errorf("Lookup(%q): %v", id, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup of unknown id should fail")
	}
}
