package experiments

import (
	"errors"
	"fmt"
	"io"

	"incentivetag/internal/ir"
	"incentivetag/internal/sim"
	"incentivetag/internal/sparse"
	"incentivetag/internal/stats"
	"incentivetag/internal/taxonomy"
)

// tauPoint is one (budget, strategy) observation of the Figure 7
// experiments: the mean tagging quality and the Kendall-τ ranking
// accuracy after spending the budget.
type tauPoint struct {
	Strategy string
	Budget   int
	Quality  float64
	Tau      float64
}

// rankingSetup prepares the shared pair sample and ground truth.
func rankingSetup(ctx *Context) ([]ir.Pair, []float64) {
	n := ctx.Data.N()
	pairs := ir.SamplePairs(n, ctx.Scale.PairSample, ctx.Scale.Seed+99)
	leaves := make([]taxonomy.NodeID, n)
	for i := 0; i < n; i++ {
		leaves[i] = ctx.DS.Resources[i].Leaf
	}
	truth := ir.GroundTruth(ctx.DS.Tax, leaves, pairs)
	return pairs, truth
}

// tauOf computes the ranking accuracy of an rfd snapshot.
func tauOf(ix *ir.InvertedIndex, pairs []ir.Pair, truth []float64) (float64, error) {
	return ir.RankingAccuracy(ix.PairSimilarities(pairs), truth)
}

// collectTauPoints runs every strategy at every τ-budget and records
// (quality, τ) pairs; DP uses its per-budget optimal assignments.
func collectTauPoints(ctx *Context) ([]tauPoint, error) {
	pairs, truth := rankingSetup(ctx)
	var points []tauPoint

	for _, name := range StrategyNames {
		for _, b := range ctx.Scale.TauBudgets {
			var rfds []*sparse.Counts
			var qual float64
			if name == "DP" {
				res, bcap, err := ctx.solveDP()
				if errors.Is(err, errDPCapped) {
					continue
				}
				if err != nil {
					return nil, err
				}
				if b > bcap {
					continue
				}
				x, err := res.AssignmentAt(b)
				if err != nil {
					return nil, err
				}
				rfds = make([]*sparse.Counts, ctx.Data.N())
				for i := range rfds {
					rfds[i] = sparse.FromSeq(ctx.Data.Seqs[i], ctx.Data.Initial[i]+x[i])
				}
				qual = res.MeanQualityAt(b)
			} else {
				s, err := NewStrategy(name, ctx.Scale.Omega)
				if err != nil {
					return nil, err
				}
				st := sim.NewState(ctx.Data, ctx.Scale.Omega, ctx.Scale.Seed)
				if _, err := st.Run(s, b, nil); err != nil {
					return nil, err
				}
				rfds = st.SnapshotRFDs()
				qual = st.Quality()
			}
			tau, err := tauOf(ir.BuildInverted(rfds), pairs, truth)
			if err != nil {
				return nil, err
			}
			points = append(points, tauPoint{Strategy: name, Budget: b, Quality: qual, Tau: tau})
		}
	}
	return points, nil
}

// fig7a prints Kendall's τ ranking accuracy vs budget per strategy
// (Figure 7(a)); its shape mirrors Figure 6(a).
func fig7a(ctx *Context, w io.Writer) error {
	points, err := collectTauPoints(ctx)
	if err != nil {
		return err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 7(a): Kendall τ ranking accuracy vs budget (%d sampled pairs)", ctx.Scale.PairSample),
		Headers: append([]string{"budget"}, StrategyNames...),
	}
	for _, b := range ctx.Scale.TauBudgets {
		row := []string{d(b)}
		for _, name := range StrategyNames {
			cell := "-"
			for _, p := range points {
				if p.Strategy == name && p.Budget == b {
					cell = f4(p.Tau)
				}
			}
			row = append(row, cell)
		}
		t.addRow(row...)
	}
	// Improvement note (paper: FP-MU +7.6%, FP +7.1% at B=5000).
	base := 0.0
	for _, p := range points {
		if p.Strategy == "FC" && p.Budget == 0 {
			base = p.Tau
		}
	}
	if base != 0 {
		for _, name := range []string{"FP-MU", "FP", "FC"} {
			best := base
			for _, p := range points {
				if p.Strategy == name && p.Tau > best {
					best = p.Tau
				}
			}
			t.note("%s max accuracy improvement: %+.1f%%", name, 100*(best-base)/base)
		}
	}
	return t.fprint(w)
}

// fig7b prints the quality-vs-accuracy scatter and its Pearson
// correlation (Figure 7(b); paper reports correlation above 98%).
func fig7b(ctx *Context, w io.Writer) error {
	points, err := collectTauPoints(ctx)
	if err != nil {
		return err
	}
	t := &Table{
		Title:   "Figure 7(b): ranking accuracy vs tagging quality",
		Headers: []string{"strategy", "budget", "quality", "kendall-τ"},
	}
	xs := make([]float64, 0, len(points))
	ys := make([]float64, 0, len(points))
	for _, p := range points {
		t.addRow(p.Strategy, d(p.Budget), f4(p.Quality), f4(p.Tau))
		xs = append(xs, p.Quality)
		ys = append(ys, p.Tau)
	}
	if corr, err := stats.Pearson(xs, ys); err == nil {
		t.note("Pearson correlation between tagging quality and ranking accuracy: %.1f%% (paper: >98%%)", 100*corr)
	} else {
		t.note("correlation undefined: %v", err)
	}
	return t.fprint(w)
}
