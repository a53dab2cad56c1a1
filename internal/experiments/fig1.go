package experiments

import (
	"fmt"
	"io"

	"incentivetag/internal/stability"
	"incentivetag/internal/stats"
	"incentivetag/internal/synth"
)

// pickShowcase returns the resource with the longest sequence among
// ordinary (non-drift) resources — the analogue of the heavily-tagged
// Google Earth URL used in Figures 1(a) and 3.
func pickShowcase(ctx *Context) int {
	best, bestLen := 0, -1
	for i := range ctx.DS.Resources {
		r := &ctx.DS.Resources[i]
		if r.Drift != nil {
			continue
		}
		if len(r.Seq) > bestLen {
			best, bestLen = i, len(r.Seq)
		}
	}
	return best
}

// fig1a prints the relative frequencies of the five leading tags of a
// heavily-tagged resource as its post count grows — the convergence
// picture of Figure 1(a): strong movement below the unstable point,
// convergence in the middle, stability past the stable point.
func fig1a(ctx *Context, w io.Writer) error {
	i := pickShowcase(ctx)
	r := &ctx.DS.Resources[i]
	upTo := ctx.Scale.Fig1aPosts
	if upTo > len(r.Seq) {
		upTo = len(r.Seq)
	}
	trajs := ctx.DS.TopTagTrajectories(i, 5, upTo)

	t := &Table{Title: fmt.Sprintf("Figure 1(a): tag relative frequencies vs posts — %s", r.Name)}
	t.Headers = []string{"posts"}
	for _, tr := range trajs {
		t.Headers = append(t.Headers, tr.Name)
	}
	for _, k := range sampleKs(upTo) {
		row := []string{d(k)}
		for _, tr := range trajs {
			row = append(row, f4(tr.Series[k-1]))
		}
		t.addRow(row...)
	}
	t.note("stable point k*=%d (ω=%d, τ=%.4f); unstable point ≈ %d posts",
		r.StableK, ctx.DS.Cfg.PrepOmega, ctx.DS.Cfg.PrepTau, ctx.DS.Cfg.UnderTaggedThreshold)
	return t.fprint(w)
}

// sampleKs picks readable row positions for a series of length n.
func sampleKs(n int) []int {
	anchors := []int{1, 2, 5, 10, 20, 50, 100, 150, 200, 250, 300, 400, 500, 750, 1000}
	var out []int
	for _, k := range anchors {
		if k <= n {
			out = append(out, k)
		}
	}
	if len(out) == 0 || out[len(out)-1] != n {
		out = append(out, n)
	}
	return out
}

// fig1b prints the log-binned posts-per-resource histogram of a simulated
// full crawl (Figure 1(b)): a heavy tail spanning from single-post
// resources to resources with thousands of posts.
func fig1b(ctx *Context, w io.Writer) error {
	lengths := synth.FullCrawlLengths(ctx.Scale.Fig1bResources, ctx.Scale.Seed, 2.0, 20000)
	bins := stats.LogHistogram(lengths, 10)
	t := &Table{
		Title:   fmt.Sprintf("Figure 1(b): posts distribution over %d crawled resources", len(lengths)),
		Headers: []string{"posts in", "resources"},
	}
	for _, b := range bins {
		t.addRow(fmt.Sprintf("[%d, %d)", b.Lo, b.Hi), d(b.Count))
	}
	t.note("log-log shape: each decade of posts loses roughly a factor ~10 of resources")
	return t.fprint(w)
}

// fig3 prints the adjacent-similarity and MA-score series of the showcase
// resource with ω = 20 (Figure 3), reporting the smallest k whose MA score
// exceeds τ = 0.99 — the practically-stable rfd position.
func fig3(ctx *Context, w io.Writer) error {
	const omega, tau = 20, 0.99
	i := pickShowcase(ctx)
	r := &ctx.DS.Resources[i]
	upTo := ctx.Scale.Fig1aPosts
	if upTo > len(r.Seq) {
		upTo = len(r.Seq)
	}
	series := stability.Series(r.Seq[:upTo], omega)
	t := &Table{
		Title:   fmt.Sprintf("Figure 3: adjacent similarity and MA score (ω=%d) — %s", omega, r.Name),
		Headers: []string{"k", "s(F(k-1),F(k))", "m(k,ω)"},
	}
	for _, k := range sampleKs(upTo) {
		ma := "-"
		if series.Defined[k-1] {
			ma = f4(series.MA[k-1])
		}
		t.addRow(d(k), f4(series.Adjacent[k-1]), ma)
	}
	if sp := stability.StablePoint(r.Seq[:upTo], omega, tau); sp.Found {
		t.note("practically-stable rfd φ̂ = F(%d): smallest k with m(k,%d) > %.2f", sp.K, omega, tau)
	} else {
		t.note("MA score did not exceed %.2f within %d posts", tau, upTo)
	}
	return t.fprint(w)
}

// fig5 contrasts the quality improvement of 10 extra posts on an
// under-tagged resource vs an already well-tagged one (Figure 5: "large
// improvement" vs "small improvement").
func fig5(ctx *Context, w io.Writer) error {
	// Pick the under-tagged resource with the lowest initial quality (the
	// paper's r_i, where 10 extra posts buy a large improvement) and a
	// nearly-stable one (r_j, where the same tasks buy almost nothing).
	curves, err := ctx.Data.Curves(ctx.Scale.Omega, 40)
	if err != nil {
		return err
	}
	under, over := -1, -1
	underQ := 2.0
	for i := range ctx.DS.Resources {
		r := &ctx.DS.Resources[i]
		if r.Drift != nil || len(r.Seq) <= r.Initial+40 {
			continue
		}
		q0 := curves[i][0]
		if r.Initial <= ctx.DS.Cfg.UnderTaggedThreshold && q0 < underQ {
			under, underQ = i, q0
		}
		if over == -1 && r.Initial >= (3*r.StableK)/4 && r.Initial < r.StableK {
			over = i
		}
	}
	if under < 0 || over < 0 {
		return fmt.Errorf("experiments: fig5 could not find contrasting resources")
	}
	t := &Table{
		Title:   "Figure 5: quality vs number of posts (under-tagged r_i vs well-tagged r_j)",
		Headers: []string{"extra posts x", "q_i(c_i+x)", "q_j(c_j+x)"},
	}
	ri, rj := &ctx.DS.Resources[under], &ctx.DS.Resources[over]
	ci, cj := curves[under], curves[over]
	for x := 0; x <= 40; x += 5 {
		t.addRow(d(x), f4(ci.At(x)), f4(cj.At(x)))
	}
	t.note("r_i = %s (c=%d, k*=%d); r_j = %s (c=%d, k*=%d)",
		ri.Name, ri.Initial, ri.StableK, rj.Name, rj.Initial, rj.StableK)
	t.note("gain over 10 tasks: r_i %+0.4f vs r_j %+0.4f",
		ci.At(10)-ci.At(0), cj.At(10)-cj.At(0))
	return t.fprint(w)
}

// statsCensus prints the §I dataset statistics (experiment id S1).
func statsCensus(ctx *Context, w io.Writer) error {
	st := ctx.DS.Stats()
	t := &Table{
		Title:   "Dataset census (§I / §V-A statistics)",
		Headers: []string{"metric", "value", "paper"},
	}
	t.addRow("resources", d(st.NResources), "5000")
	t.addRow("total posts", d(st.TotalPosts), "562048")
	t.addRow("initial (January) posts", d(st.JanuaryPosts), "148471")
	t.addRow("January share", pct(st.JanuaryShare), "26.4%")
	t.addRow("mean posts/resource", f3(st.MeanPosts), "112")
	t.addRow("mean initial posts", f3(st.MeanInitial), "29.7")
	t.addRow("stable point mean", f3(st.StablePoints.Mean), "112")
	t.addRow("stable point p25..p75", fmt.Sprintf("%.0f..%.0f", st.StablePoints.P25, st.StablePoints.P75), "50..200 (most)")
	t.addRow("under-tagged at cut (≤10 posts)", pct(float64(st.UnderTagged)/float64(st.NResources)), "~25%")
	t.addRow("over-tagged at cut", pct(float64(st.OverTagged)/float64(st.NResources)), "~7%")
	t.addRow("wasted share of year's posts", pct(st.WastedShare), "~48%")
	return t.fprint(w)
}
