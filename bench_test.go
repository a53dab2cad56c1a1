package incentivetag

// One benchmark per paper table/figure (regenerating the artifact at a
// bench-friendly scale), strategy micro-benchmarks backing Table V, and
// the ablation benches DESIGN.md §5 calls out.

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"incentivetag/internal/experiments"
	"incentivetag/internal/ir"
	"incentivetag/internal/optimal"
	"incentivetag/internal/sim"
	"incentivetag/internal/sparse"
	"incentivetag/internal/stability"
	"incentivetag/internal/strategy"
	"incentivetag/internal/synth"
	"incentivetag/internal/tags"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
	benchErr  error
)

// benchScale is small enough that the full -bench=. suite finishes in a
// few minutes yet exercises every code path the quick/paper scales do.
func benchScale() experiments.Scale {
	sc := experiments.Tiny()
	sc.N = 150
	sc.Budget = 500
	sc.DPMaxN = 160
	sc.DPMaxBudget = 500
	sc.NSeries = []int{50, 100, 150}
	sc.FixedBudgetE = 250
	sc.BudgetSeries = []int{100, 250, 500}
	sc.OmegaBudget = 250
	sc.TauBudgets = []int{0, 250, 500}
	sc.PairSample = 4000
	sc.CaseBudget = 500
	sc.Fig1bResources = 50000
	return sc
}

func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx, benchErr = experiments.NewContext(benchScale())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCtx
}

// runExp benchmarks one registered experiment end to end (excluding
// corpus generation, which is shared and done once).
func runExp(b *testing.B, id string) {
	ctx := benchContext(b)
	exp, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(ctx, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1aTagConvergence(b *testing.B)             { runExp(b, "fig1a") }
func BenchmarkFig1bPostDistribution(b *testing.B)           { runExp(b, "fig1b") }
func BenchmarkFig3MAScore(b *testing.B)                     { runExp(b, "fig3") }
func BenchmarkFig5QualityCurve(b *testing.B)                { runExp(b, "fig5") }
func BenchmarkFig6aQualityVsBudget(b *testing.B)            { runExp(b, "fig6a") }
func BenchmarkFig6bOverTagged(b *testing.B)                 { runExp(b, "fig6b") }
func BenchmarkFig6cWastedPosts(b *testing.B)                { runExp(b, "fig6c") }
func BenchmarkFig6dUnderTagged(b *testing.B)                { runExp(b, "fig6d") }
func BenchmarkFig6eQualityVsN(b *testing.B)                 { runExp(b, "fig6e") }
func BenchmarkFig6fOmega(b *testing.B)                      { runExp(b, "fig6f") }
func BenchmarkFig6gRuntimeVsBudget(b *testing.B)            { runExp(b, "fig6g") }
func BenchmarkFig6hRuntimeVsN(b *testing.B)                 { runExp(b, "fig6h") }
func BenchmarkTable6TopK(b *testing.B)                      { runExp(b, "table6") }
func BenchmarkTable7TopKCensus(b *testing.B)                { runExp(b, "table7") }
func BenchmarkFig7aKendallVsBudget(b *testing.B)            { runExp(b, "fig7a") }
func BenchmarkFig7bQualityAccuracyCorrelation(b *testing.B) { runExp(b, "fig7b") }
func BenchmarkStatsCensus(b *testing.B)                     { runExp(b, "stats") }

// --- Table V: per-strategy allocation micro-benchmarks -----------------
// Each op is one full budget run (B tasks) on the shared corpus; compare
// ns/op across strategies to see the Table V ordering
// (RR < FP < MU ≈ FP-MU).

func benchStrategy(b *testing.B, name string) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := experiments.NewStrategy(name, 5)
		if err != nil {
			b.Fatal(err)
		}
		st := sim.NewState(ctx.Data, 5, int64(i+1))
		if _, err := st.Run(s, 400, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyFC(b *testing.B)   { benchStrategy(b, "FC") }
func BenchmarkStrategyRR(b *testing.B)   { benchStrategy(b, "RR") }
func BenchmarkStrategyFP(b *testing.B)   { benchStrategy(b, "FP") }
func BenchmarkStrategyMU(b *testing.B)   { benchStrategy(b, "MU") }
func BenchmarkStrategyFPMU(b *testing.B) { benchStrategy(b, "FP-MU") }

// BenchmarkStrategyDP is the Table V / Figure 6(g) DP reference point.
func BenchmarkStrategyDP(b *testing.B) {
	ctx := benchContext(b)
	curves, err := ctx.Curves()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimal.Solve(curves, 400, optimal.Options{Bounded: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ----------------------------------------------------------

// benchSeq is a deterministic 300-post sequence for MA ablations.
func benchSeq() tags.Seq {
	rng := rand.New(rand.NewSource(42))
	seq := make(tags.Seq, 300)
	for i := range seq {
		n := 1 + rng.Intn(4)
		ts := make([]tags.Tag, n)
		for j := range ts {
			ts[j] = tags.Tag(rng.Intn(64))
		}
		p, err := tags.NewPost(ts...)
		if err != nil {
			panic(err)
		}
		seq[i] = p
	}
	return seq
}

// Incremental MA maintenance (Appendix C.4 + sparse deltas): one pass
// over the sequence with O(|post|) per step.
func BenchmarkAblationIncrementalMA(b *testing.B) {
	seq := benchSeq()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := stability.NewTracker(5)
		for _, p := range seq {
			tr.Observe(p)
		}
		if _, ok := tr.MA(); !ok {
			b.Fatal("MA undefined")
		}
	}
}

// Naive MA recomputation: dense cosine over the window at every k — the
// O(ω|T|) baseline the paper's Appendix C.4 improves on.
func BenchmarkAblationNaiveMA(b *testing.B) {
	seq := benchSeq()
	const dim = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var last float64
		for k := 5; k <= len(seq); k += 25 { // strided: full replay is quadratic
			ma, ok := stability.NaiveMA(seq, k, 5, dim)
			if !ok {
				b.Fatal("MA undefined")
			}
			last = ma
		}
		_ = last
	}
}

// muLinearScan is MU with CHOOSE() as a full linear scan instead of a
// priority queue — the rebuild-per-step ablation baseline.
type muLinearScan struct {
	env strategy.Env
}

func (s *muLinearScan) Name() string          { return "MU-scan" }
func (s *muLinearScan) Init(env strategy.Env) { s.env = env }
func (s *muLinearScan) Update(int)            {}
func (s *muLinearScan) Choose(remaining int) (int, bool) {
	best, bestMA := -1, 2.0
	for i := 0; i < s.env.N(); i++ {
		if !s.env.Available(i) || s.env.Cost(i) > remaining {
			continue
		}
		if ma, ok := s.env.MA(i); ok && ma < bestMA {
			best, bestMA = i, ma
		}
	}
	return best, best >= 0
}

func BenchmarkAblationHeapLazy(b *testing.B) { benchStrategy(b, "MU") }

func BenchmarkAblationHeapRebuild(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := sim.NewState(ctx.Data, 5, int64(i+1))
		if _, err := st.Run(&muLinearScan{}, 400, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// DP inner-loop bound ablation: capping x_l at the replayable posts vs
// the paper's literal 0 ≤ x_l ≤ b loop.
func BenchmarkAblationDPBounded(b *testing.B)   { benchDP(b, true) }
func BenchmarkAblationDPUnbounded(b *testing.B) { benchDP(b, false) }

func benchDP(b *testing.B, bounded bool) {
	ctx := benchContext(b)
	curves, err := ctx.Curves()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimal.Solve(curves, 300, optimal.Options{Bounded: bounded}); err != nil {
			b.Fatal(err)
		}
	}
}

// Sparse vs dense rfd cosine (the |T| factor of Table V).
func BenchmarkAblationSparseCosine(b *testing.B) {
	x, y := benchCounts(1), benchCounts(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Cosine(y)
	}
}

func BenchmarkAblationDenseCosine(b *testing.B) {
	const dim = 4096
	x, y := benchCounts(1).Dense(dim), benchCounts(2).Dense(dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sparse.DenseCosine(x, y)
	}
}

func benchCounts(seed int64) *sparse.Counts {
	rng := rand.New(rand.NewSource(seed))
	c := sparse.NewCounts()
	for i := 0; i < 100; i++ {
		n := 1 + rng.Intn(4)
		ts := make([]tags.Tag, n)
		for j := range ts {
			ts[j] = tags.Tag(rng.Intn(4096))
		}
		p, err := tags.NewPost(ts...)
		if err != nil {
			panic(err)
		}
		c.Add(p)
	}
	return c
}

// Greedy concave-envelope oracle vs the exact DP (same curves).
func BenchmarkAblationGreedyOracle(b *testing.B) {
	ctx := benchContext(b)
	curves, err := ctx.Curves()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := optimal.SolveGreedy(curves, 400, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// The serving index's scoring kernel vs the offline index's map-based
// posting scan on the same snapshots. It times TopKWeighted over each
// subject's own exported vector, which is bit-identical to TopK but never
// answers from the result cache: TopK at a fixed epoch would time a
// cache serve from the second lap on.
func BenchmarkAblationTopKOnline(b *testing.B) {
	ctx := benchContext(b)
	st := sim.NewState(ctx.Data, 5, 1)
	ix := ir.NewOnlineIndex(st.SnapshotRFDs(), 1)
	type subject struct {
		entries []ir.WeightedTag
		norm2   float64
	}
	subjects := make([]subject, ix.N())
	for i := range subjects {
		subjects[i].entries, subjects[i].norm2, _, _ = ix.RFDEntries(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % len(subjects)
		_, _ = ix.TopKWeighted(subjects[s].entries, subjects[s].norm2, s, 10, nil)
	}
}

func BenchmarkAblationTopKInverted(b *testing.B) {
	ctx := benchContext(b)
	st := sim.NewState(ctx.Data, 5, 1)
	inv := ir.BuildInverted(st.SnapshotRFDs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = inv.TopK(i%inv.N(), 10)
	}
}

// The replay tape build: one tracker pass per resource, fanned out over
// GOMAXPROCS workers — the set-up of every replay and of the DP's curves.
// Each iteration builds over a fresh Data, so no cached tape is reused.
func BenchmarkTapeBuild(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		data := sim.FromDataset(ctx.DS, 0)
		b.StartTimer()
		if _, err := data.Curves(5, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// Corpus generation throughput (the workload generator itself).
func BenchmarkGenerateCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := synth.DefaultConfig(60, int64(i+1))
		if _, err := synth.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
