package experiments

import (
	"fmt"
	"io"

	"incentivetag/internal/ir"
	"incentivetag/internal/sim"
	"incentivetag/internal/sparse"
)

// caseSnapshots builds the four rfd indexes of the case studies
// (§V-C.1): the initial "Jan 31" state, FC and FP after the case budget,
// and the ideal "Dec 31" state with every recorded post applied.
func caseSnapshots(ctx *Context) (map[string]*ir.InvertedIndex, error) {
	out := make(map[string]*ir.InvertedIndex, 4)

	// Jan 31: initial counts only.
	jan := make([]*sparse.Counts, ctx.Data.N())
	for i := range jan {
		jan[i] = sparse.FromSeq(ctx.Data.Seqs[i], ctx.Data.Initial[i])
	}
	out["Jan 31"] = ir.BuildInverted(jan)

	// Dec 31: full sequences.
	dec := make([]*sparse.Counts, ctx.Data.N())
	for i := range dec {
		dec[i] = sparse.FromSeq(ctx.Data.Seqs[i], len(ctx.Data.Seqs[i]))
	}
	out["Dec 31"] = ir.BuildInverted(dec)

	for _, name := range []string{"FC", "FP"} {
		s, err := NewStrategy(name, ctx.Scale.Omega)
		if err != nil {
			return nil, err
		}
		st := sim.NewState(ctx.Data, ctx.Scale.Omega, ctx.Scale.Seed)
		if _, err := st.Run(s, ctx.Scale.CaseBudget, nil); err != nil {
			return nil, err
		}
		out[name] = ir.BuildInverted(st.SnapshotRFDs())
	}
	return out, nil
}

// caseColumns is the presentation order of the case-study tables.
var caseColumns = []string{"Jan 31", "FC", "FP", "Dec 31"}

// table6 reproduces Table VI: the top-k most similar resources to the
// physics case-study site under the four snapshots. At "Jan 31" the
// subject's rfd is dominated by its early Java-centric posts, so the list
// is Java sites; FP repairs it to match the ideal physics-dominated
// "Dec 31" list far better than FC does.
func table6(ctx *Context, w io.Writer) error {
	subjectName := "www.myphysicslab.example"
	subject, ok := ctx.DS.ByName(subjectName)
	if !ok {
		return fmt.Errorf("experiments: case-study resource %q missing (drift specs disabled?)", subjectName)
	}
	snaps, err := caseSnapshots(ctx)
	if err != nil {
		return err
	}
	k := ctx.Scale.TopK
	t := &Table{
		Title:   fmt.Sprintf("Table VI: top-%d similar resources of %s (B=%d)", k, subjectName, ctx.Scale.CaseBudget),
		Headers: append([]string{"rank"}, caseColumns...),
	}
	lists := make(map[string][]ir.Scored, len(caseColumns))
	for _, col := range caseColumns {
		lists[col] = snaps[col].TopK(subject, k)
	}
	for r := 0; r < k; r++ {
		row := []string{d(r + 1)}
		for _, col := range caseColumns {
			if r < len(lists[col]) {
				row = append(row, ctx.DS.Resources[lists[col][r].ID].Name)
			} else {
				row = append(row, "-")
			}
		}
		t.addRow(row...)
	}
	// Category census + overlap with the ideal list.
	trueLeaf := ctx.DS.Resources[subject].Leaf
	ideal := make(map[int]bool, k)
	for _, s := range lists["Dec 31"] {
		ideal[s.ID] = true
	}
	for _, col := range caseColumns {
		inLeaf, inIdeal := 0, 0
		for _, s := range lists[col] {
			if ctx.DS.Resources[s.ID].Leaf == trueLeaf {
				inLeaf++
			}
			if ideal[s.ID] {
				inIdeal++
			}
		}
		t.note("%-7s %d/%d in true category (%s), %d/%d matching the ideal Dec-31 list",
			col, inLeaf, k, ctx.DS.Tax.Name(trueLeaf), inIdeal, k)
	}
	return t.fprint(w)
}

// table7 reproduces Table VII: per-snapshot category composition of the
// top-k lists of the remaining case-study resources.
func table7(ctx *Context, w io.Writer) error {
	snaps, err := caseSnapshots(ctx)
	if err != nil {
		return err
	}
	k := ctx.Scale.TopK
	t := &Table{
		Title:   fmt.Sprintf("Table VII: top-%d category composition (B=%d)", k, ctx.Scale.CaseBudget),
		Headers: append([]string{"resource", "category"}, caseColumns...),
	}
	for _, spec := range ctx.DS.Cfg.Drift {
		if spec.Name == "www.myphysicslab.example" {
			continue // covered by Table VI
		}
		subject, ok := ctx.DS.ByName(spec.Name)
		if !ok {
			continue
		}
		trueLeaf := ctx.DS.Resources[subject].Leaf
		earlyLeaf := ctx.DS.Tax.FindLeaf(spec.EarlyLeaf)
		rows := map[string][]int{} // category label -> counts per column
		label := func(leafName string) string { return leafName }
		for ci, col := range caseColumns {
			for _, s := range snaps[col].TopK(subject, k) {
				leaf := ctx.DS.Resources[s.ID].Leaf
				var lab string
				switch {
				case leaf == trueLeaf:
					lab = label(ctx.DS.Tax.Name(trueLeaf))
				case earlyLeaf >= 0 && leaf == earlyLeaf:
					lab = label(ctx.DS.Tax.Name(earlyLeaf))
				default:
					lab = "other"
				}
				if rows[lab] == nil {
					rows[lab] = make([]int, len(caseColumns))
				}
				rows[lab][ci]++
			}
		}
		order := []string{ctx.DS.Tax.Name(trueLeaf)}
		if earlyLeaf >= 0 {
			order = append(order, ctx.DS.Tax.Name(earlyLeaf))
		}
		order = append(order, "other")
		seen := map[string]bool{}
		for _, lab := range order {
			if seen[lab] || rows[lab] == nil {
				continue
			}
			seen[lab] = true
			row := []string{spec.Name, lab}
			for ci := range caseColumns {
				row = append(row, d(rows[lab][ci]))
			}
			t.addRow(row...)
		}
	}
	t.note("cells: members of the top-%d list per category; ideal column is Dec 31", k)
	return t.fprint(w)
}
