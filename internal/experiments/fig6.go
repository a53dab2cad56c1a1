package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"incentivetag/internal/optimal"
	"incentivetag/internal/sim"
)

// sweepTable builds a budget-indexed table with one column per strategy,
// extracting one metric from the memoized sweeps.
func sweepTable(ctx *Context, title string, metric func(sim.Checkpoint) string) (*Table, error) {
	t := &Table{Title: title, Headers: []string{"budget"}}
	t.Headers = append(t.Headers, StrategyNames...)
	budgets := budgetCheckpoints(ctx.Scale.Budget, ctx.Scale.Steps)
	series := make(map[string][]sim.Checkpoint)
	for _, name := range StrategyNames {
		cps, err := ctx.sweep(name)
		if errors.Is(err, errDPCapped) {
			t.note("DP omitted: %v", err)
			continue
		}
		if err != nil {
			return nil, err
		}
		series[name] = cps
	}
	for _, b := range budgets {
		row := []string{d(b)}
		for _, name := range StrategyNames {
			cell := "-"
			// Find the checkpoint at or nearest below b.
			for _, cp := range series[name] {
				if cp.Budget <= b {
					cell = metric(cp)
				} else {
					break
				}
			}
			if series[name] == nil {
				cell = "capped"
			}
			row = append(row, cell)
		}
		t.addRow(row...)
	}
	return t, nil
}

// fig6a prints tagging quality vs budget for all six strategies
// (Figure 6(a)). The expected shape: DP on top, FP-MU ≈ FP just below,
// RR intermediate, MU limited (it ignores <ω-post resources), FC flat.
func fig6a(ctx *Context, w io.Writer) error {
	t, err := sweepTable(ctx, "Figure 6(a): quality vs budget",
		func(cp sim.Checkpoint) string { return f4(cp.MeanQuality) })
	if err != nil {
		return err
	}
	addGainNote(ctx, t)
	return t.fprint(w)
}

// addGainNote annotates the FC-vs-DP improvement the paper calls out
// ("FC ... increased by a mere 0.4% ... DP ... improves the quality by
// 9.1%").
func addGainNote(ctx *Context, t *Table) {
	base := 0.0
	if cps, err := ctx.sweep("FC"); err == nil && len(cps) > 0 {
		base = cps[0].MeanQuality
		final := cps[len(cps)-1].MeanQuality
		t.note("FC quality gain at max budget: %+.2f%%", 100*(final-base)/base)
	}
	if cps, err := ctx.sweep("DP"); err == nil && len(cps) > 0 && base > 0 {
		final := cps[len(cps)-1].MeanQuality
		t.note("DP quality gain at its max solved budget: %+.2f%%", 100*(final-base)/base)
	}
	for _, name := range []string{"FP", "FP-MU"} {
		if cps, err := ctx.sweep(name); err == nil && len(cps) > 0 && base > 0 {
			final := cps[len(cps)-1].MeanQuality
			t.note("%s quality gain at max budget: %+.2f%%", name, 100*(final-base)/base)
		}
	}
}

// fig6b prints the number of over-tagged resources vs budget
// (Figure 6(b)): FC and RR push resources past their stable points, the
// targeted strategies do not.
func fig6b(ctx *Context, w io.Writer) error {
	t, err := sweepTable(ctx, "Figure 6(b): over-tagged resources vs budget",
		func(cp sim.Checkpoint) string { return d(cp.OverTagged) })
	if err != nil {
		return err
	}
	return t.fprint(w)
}

// fig6c prints wasted post tasks vs budget (Figure 6(c)): FC wastes
// roughly half its tasks on already-stable resources.
func fig6c(ctx *Context, w io.Writer) error {
	t, err := sweepTable(ctx, "Figure 6(c): wasted post tasks vs budget",
		func(cp sim.Checkpoint) string { return d(cp.WastedPosts) })
	if err != nil {
		return err
	}
	if cps, err2 := ctx.sweep("FC"); err2 == nil && len(cps) > 0 {
		last := cps[len(cps)-1]
		if last.Budget > 0 {
			t.note("FC wasted share at max budget: %s (paper: ~48%%)",
				pct(float64(last.WastedPosts)/float64(last.Budget)))
		}
	}
	return t.fprint(w)
}

// fig6d prints the percentage of under-tagged resources vs budget
// (Figure 6(d)): MU and FP drive it down fastest; FP shows its
// characteristic cliff once every poorest resource crosses the threshold.
func fig6d(ctx *Context, w io.Writer) error {
	t, err := sweepTable(ctx, "Figure 6(d): under-tagged resource percentage vs budget",
		func(cp sim.Checkpoint) string { return pct(cp.UnderTaggedPct) })
	if err != nil {
		return err
	}
	t.note("under-tagged: at most %d posts", ctx.Data.UnderThreshold)
	return t.fprint(w)
}

// fig6e prints quality vs number of resources at fixed budget
// (Figure 6(e)): more resources share the same budget, so quality falls;
// FP/FP-MU stay closest to DP throughout.
func fig6e(ctx *Context, w io.Writer) error {
	t := &Table{
		Title:   fmt.Sprintf("Figure 6(e): quality vs number of resources (B=%d)", ctx.Scale.FixedBudgetE),
		Headers: append([]string{"n"}, StrategyNames...),
	}
	for _, n := range ctx.Scale.NSeries {
		data := ctx.subsetData(n)
		row := []string{d(n)}
		for _, name := range StrategyNames {
			q, err := runOnce(ctx, data, name, ctx.Scale.FixedBudgetE)
			if errors.Is(err, errDPCapped) {
				row = append(row, "capped")
				continue
			}
			if err != nil {
				return err
			}
			row = append(row, f4(q))
		}
		t.addRow(row...)
	}
	return t.fprint(w)
}

// runOnce runs one strategy (or DP) on the given data and returns final
// mean quality.
func runOnce(ctx *Context, data *sim.Data, name string, budget int) (float64, error) {
	if name == "DP" {
		if data.N() > ctx.Scale.DPMaxN || budget > ctx.Scale.DPMaxBudget {
			return 0, fmt.Errorf("experiments: DP instance (n=%d, B=%d) exceeds caps (n≤%d, B≤%d): %w",
				data.N(), budget, ctx.Scale.DPMaxN, ctx.Scale.DPMaxBudget, errDPCapped)
		}
		curves, err := data.Curves(ctx.Scale.Omega, budget)
		if err != nil {
			return 0, err
		}
		res, err := optimal.Solve(curves, budget, optimal.Options{Bounded: true})
		if err != nil {
			return 0, err
		}
		return res.MeanQualityAt(budget), nil
	}
	s, err := NewStrategy(name, ctx.Scale.Omega)
	if err != nil {
		return 0, err
	}
	st := sim.NewState(data, ctx.Scale.Omega, ctx.Scale.Seed)
	if _, err := st.Run(s, budget, nil); err != nil {
		return 0, err
	}
	return st.Quality(), nil
}

// fig6f prints the effect of ω on MU and FP-MU with FP as the ω-free
// reference (Figure 6(f)): MU degrades as ω grows (it ignores more
// under-tagged resources); FP-MU approaches FP once the warm-up stage
// consumes the whole budget.
func fig6f(ctx *Context, w io.Writer) error {
	t := &Table{
		Title:   fmt.Sprintf("Figure 6(f): effect of ω (B=%d)", ctx.Scale.OmegaBudget),
		Headers: []string{"ω", "FP-MU", "FP", "MU"},
	}
	// FP does not depend on ω: one run.
	fpQ, err := runOnceOmega(ctx, "FP", ctx.Scale.Omega, ctx.Scale.OmegaBudget)
	if err != nil {
		return err
	}
	for _, omega := range ctx.Scale.OmegaSeries {
		muQ, err := runOnceOmega(ctx, "MU", omega, ctx.Scale.OmegaBudget)
		if err != nil {
			return err
		}
		fpmuQ, err := runOnceOmega(ctx, "FP-MU", omega, ctx.Scale.OmegaBudget)
		if err != nil {
			return err
		}
		t.addRow(d(omega), f4(fpmuQ), f4(fpQ), f4(muQ))
	}
	return t.fprint(w)
}

// runOnceOmega runs one strategy with an explicit ω.
func runOnceOmega(ctx *Context, name string, omega, budget int) (float64, error) {
	s, err := NewStrategy(name, omega)
	if err != nil {
		return 0, err
	}
	st := sim.NewState(ctx.Data, omega, ctx.Scale.Seed)
	if _, err := st.Run(s, budget, nil); err != nil {
		return 0, err
	}
	return st.Quality(), nil
}

// fig6g prints runtime vs budget (Figure 6(g)): DP grows super-linearly
// and dwarfs the practical strategies; RR is fastest, FP a little slower
// (heap), MU/FP-MU slower still (MA maintenance), all near-linear in B.
func fig6g(ctx *Context, w io.Writer) error {
	names := []string{"DP", "FP-MU", "FP", "RR", "MU"}
	t := &Table{
		Title:   "Figure 6(g): runtime vs budget",
		Headers: append([]string{"budget"}, names...),
	}
	for _, b := range ctx.Scale.BudgetSeries {
		row := []string{d(b)}
		for _, name := range names {
			if name == "DP" {
				if b > ctx.Scale.DPMaxBudget || ctx.Data.N() > ctx.Scale.DPMaxN {
					row = append(row, "capped")
					continue
				}
				curves, err := ctx.Curves()
				if err != nil {
					return err
				}
				start := time.Now()
				if _, err := optimal.Solve(curves, b, optimal.Options{Bounded: true}); err != nil {
					return err
				}
				row = append(row, fmtDur(time.Since(start)))
				continue
			}
			took, err := timedRun(ctx, ctx.Data, name, b)
			if err != nil {
				return err
			}
			row = append(row, fmtDur(took))
		}
		t.addRow(row...)
	}
	t.note("budgets beyond the replayable stream saturate at MaxBudget=%d", ctx.Data.MaxBudget())
	t.note(timingNote)
	return t.fprint(w)
}

const timingNote = "strategy times are selection plus tape reads (the tape is built before the clock starts)"

// timedRun reports the wall time of one strategy run: selection plus
// tape reads, since NewState builds the Data's tape before the clock
// starts.
func timedRun(ctx *Context, data *sim.Data, name string, budget int) (time.Duration, error) {
	s, err := NewStrategy(name, ctx.Scale.Omega)
	if err != nil {
		return 0, err
	}
	st := sim.NewState(data, ctx.Scale.Omega, ctx.Scale.Seed)
	start := time.Now()
	if _, err := st.Run(s, budget, nil); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// fig6h prints runtime vs number of resources (Figure 6(h)).
func fig6h(ctx *Context, w io.Writer) error {
	names := []string{"DP", "FP-MU", "FP", "RR", "MU"}
	t := &Table{
		Title:   fmt.Sprintf("Figure 6(h): runtime vs number of resources (B=%d)", ctx.Scale.FixedBudgetE),
		Headers: append([]string{"n"}, names...),
	}
	for _, n := range ctx.Scale.NSeries {
		data := ctx.subsetData(n)
		row := []string{d(n)}
		for _, name := range names {
			if name == "DP" {
				if n > ctx.Scale.DPMaxN || ctx.Scale.FixedBudgetE > ctx.Scale.DPMaxBudget {
					row = append(row, "capped")
					continue
				}
				curves, err := data.Curves(ctx.Scale.Omega, ctx.Scale.FixedBudgetE)
				if err != nil {
					return err
				}
				start := time.Now()
				if _, err := optimal.Solve(curves, ctx.Scale.FixedBudgetE, optimal.Options{Bounded: true}); err != nil {
					return err
				}
				row = append(row, fmtDur(time.Since(start)))
				continue
			}
			took, err := timedRun(ctx, data, name, ctx.Scale.FixedBudgetE)
			if err != nil {
				return err
			}
			row = append(row, fmtDur(took))
		}
		t.addRow(row...)
	}
	t.note(timingNote)
	return t.fprint(w)
}

// fmtDur renders durations compactly for runtime tables.
func fmtDur(dur time.Duration) string {
	switch {
	case dur < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(dur.Microseconds()))
	case dur < time.Second:
		return fmt.Sprintf("%.1fms", float64(dur.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", dur.Seconds())
	}
}
