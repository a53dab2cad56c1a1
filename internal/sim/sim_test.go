package sim

import (
	"math"
	"math/rand"
	"testing"

	"incentivetag/internal/core"
	"incentivetag/internal/sparse"
	"incentivetag/internal/stability"
	"incentivetag/internal/strategy"
	"incentivetag/internal/synth"
	"incentivetag/internal/tags"
)

// testData builds a small deterministic replay corpus.
func testData(t *testing.T, n int, seed int64) *Data {
	t.Helper()
	cfg := synth.DefaultConfig(n, seed)
	cfg.Drift = nil
	ds, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := FromDataset(ds, 0)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := testData(t, 10, 1)
	d.Initial[0] = len(d.Seqs[0]) + 1
	if err := d.Validate(); err == nil {
		t.Error("bad initial accepted")
	}
	d = testData(t, 10, 1)
	d.StableK[0] = 0
	if err := d.Validate(); err == nil {
		t.Error("bad stable point accepted")
	}
	d = testData(t, 10, 1)
	d.Refs[0] = nil
	if err := d.Validate(); err == nil {
		t.Error("nil ref accepted")
	}
	d = testData(t, 10, 1)
	d.Costs = []int{1}
	if err := d.Validate(); err == nil {
		t.Error("cost length mismatch accepted")
	}
}

func TestStatePrimesInitialPosts(t *testing.T) {
	d := testData(t, 8, 2)
	st := NewState(d, 5, 1)
	for i := 0; i < d.N(); i++ {
		if st.Count(i) != d.Initial[i] {
			t.Fatalf("resource %d primed with %d posts, want %d", i, st.Count(i), d.Initial[i])
		}
	}
}

func TestStepAccounting(t *testing.T) {
	d := testData(t, 6, 3)
	st := NewState(d, 5, 1)
	i := 0
	before := st.Count(i)
	if err := st.step(i); err != nil {
		t.Fatal(err)
	}
	if st.Count(i) != before+1 || st.Spent() != 1 {
		t.Error("Step accounting wrong")
	}
	if st.Assignment()[i] != 1 {
		t.Error("assignment not recorded")
	}
	if err := st.step(-1); err == nil {
		t.Error("negative index accepted")
	}
}

func TestStepExhaustion(t *testing.T) {
	d := testData(t, 4, 4)
	st := NewState(d, 5, 1)
	i := 0
	avail := len(d.Seqs[i]) - d.Initial[i]
	for k := 0; k < avail; k++ {
		if err := st.step(i); err != nil {
			t.Fatal(err)
		}
	}
	if st.Available(i) {
		t.Fatal("resource still available after consuming all posts")
	}
	if err := st.step(i); err == nil {
		t.Error("Step beyond recorded posts accepted")
	}
}

// countChecked holds the State's count, read from its own assignment, to
// the engine's after every Step of the run it drives.
type countChecked struct {
	strategy.Strategy
	t  *testing.T
	st *State
}

func (c countChecked) Update(i int) {
	if got, want := c.st.Count(i), c.st.Engine().Count(i); got != want {
		c.t.Fatalf("%s: resource %d counts %d, engine %d", c.Name(), i, got, want)
	}
	c.Strategy.Update(i)
}

// Two runs with the same seed are identical; FC included.
func TestRunDeterminism(t *testing.T) {
	d := testData(t, 30, 5)
	for _, name := range []string{"FC", "RR", "FP", "MU", "FP-MU"} {
		mk := func() strategy.Strategy { return mkStrategy(name, 5) }
		st1 := NewState(d, 5, 99)
		if _, err := st1.Run(countChecked{mk(), t, st1}, 150, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st2 := NewState(d, 5, 99)
		if _, err := st2.Run(mk(), 150, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x1, x2 := st1.Assignment(), st2.Assignment()
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("%s: non-deterministic assignment at %d", name, i)
			}
		}
	}
}

// The tape run must reproduce the independent oracle — a hot engine
// primed by engine.New, its strategy reading the engine, its checkpoints
// the seed's full scan — for a fixed seed, for every strategy: identical
// assignments, bit-identical integer metrics, per-resource qualities and
// MA scores, and mean quality up to the reassociation of the n-term sum
// (the per-resource cosines are integer-exact in both paths, so only
// the order of the final float additions can differ).
func TestEngineMatchesReferenceCheckpoints(t *testing.T) {
	d := testData(t, 40, 21)
	checkpoints := []int{0, 25, 50, 75, 100, 125, 150, 175, 200}
	for _, name := range []string{"FC", "RR", "FP", "MU", "FP-MU"} {
		mk := func() strategy.Strategy { return mkStrategy(name, 5) }
		inc := NewState(d, 5, 77)
		incCps, err := inc.Run(mk(), 200, checkpoints)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref := NewState(d, 5, 77)
		refCps, err := ref.RunReference(mk(), 200, checkpoints)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x1, x2 := inc.Assignment(), ref.Assignment()
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("%s: assignment diverges at resource %d: %d vs %d", name, i, x1[i], x2[i])
			}
		}
		if len(incCps) != len(refCps) {
			t.Fatalf("%s: %d checkpoints vs %d", name, len(incCps), len(refCps))
		}
		for k := range incCps {
			a, b := incCps[k], refCps[k]
			if a.Budget != b.Budget || a.OverTagged != b.OverTagged ||
				a.UnderTagged != b.UnderTagged || a.WastedPosts != b.WastedPosts {
				t.Fatalf("%s: checkpoint %d structural mismatch: %+v vs %+v", name, k, a, b)
			}
			if a.UnderTaggedPct != b.UnderTaggedPct {
				t.Fatalf("%s: checkpoint %d under-tagged pct %.17g vs %.17g", name, k, a.UnderTaggedPct, b.UnderTaggedPct)
			}
			if math.Abs(a.MeanQuality-b.MeanQuality) > 1e-9 {
				t.Fatalf("%s: checkpoint %d mean quality %.17g vs %.17g", name, k, a.MeanQuality, b.MeanQuality)
			}
		}
		// Per-resource qualities and MA scores are bit-identical between
		// the tape, the oracle's engine and a from-scratch tracker.
		for i := 0; i < d.N(); i++ {
			tr := stability.NewTracker(5)
			for k := 0; k < inc.Count(i); k++ {
				tr.Observe(d.Seqs[i][k])
			}
			want := d.Refs[i].Of(tr.Counts())
			if got, eng := qualityOf(inc, i), ref.Engine().QualityOf(i); math.Float64bits(got) != math.Float64bits(want) ||
				math.Float64bits(eng) != math.Float64bits(want) {
				t.Fatalf("%s: resource %d quality %.17g, oracle %.17g, full scan %.17g", name, i, got, eng, want)
			}
			gm, gok := inc.MA(i)
			em, eok := ref.Engine().MA(i)
			wm, wok := tr.MA()
			if gok != wok || eok != wok || math.Float64bits(gm) != math.Float64bits(wm) || math.Float64bits(em) != math.Float64bits(wm) {
				t.Fatalf("%s: resource %d MA %v/%v, oracle %v/%v, tracker %v/%v", name, i, gm, gok, em, eok, wm, wok)
			}
		}
	}
}

func TestRunSpendsExactBudget(t *testing.T) {
	d := testData(t, 20, 6)
	st := NewState(d, 5, 1)
	cps, err := st.Run(strategy.NewFP(), 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spent() != 100 {
		t.Errorf("spent %d, want 100", st.Spent())
	}
	if len(cps) == 0 || cps[len(cps)-1].Budget != 100 {
		t.Error("final checkpoint missing or at wrong budget")
	}
	// Equation 11: Σ x_i = B.
	total := 0
	for _, xi := range st.Assignment() {
		total += xi
	}
	if total != 100 {
		t.Errorf("Σx = %d", total)
	}
}

func TestRunCheckspointsOrdered(t *testing.T) {
	d := testData(t, 20, 7)
	st := NewState(d, 5, 1)
	cps, err := st.Run(strategy.NewRR(), 90, []int{0, 30, 60, 90})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 4 {
		t.Fatalf("got %d checkpoints, want 4", len(cps))
	}
	for i := 1; i < len(cps); i++ {
		if cps[i].Budget <= cps[i-1].Budget {
			t.Error("checkpoints not strictly increasing")
		}
		if cps[i].MeanQuality <= 0 || cps[i].MeanQuality > 1 {
			t.Errorf("quality out of range: %g", cps[i].MeanQuality)
		}
	}
}

// Quality after a run equals an independent replay of the assignment.
func TestRunMatchesApplyAssignment(t *testing.T) {
	d := testData(t, 25, 8)
	st := NewState(d, 5, 1)
	if _, err := st.Run(strategy.NewFP(), 120, nil); err != nil {
		t.Fatal(err)
	}
	cp, err := ApplyAssignment(d, st.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cp.MeanQuality-st.Quality()) > 1e-9 {
		t.Errorf("replayed quality %.9f vs live %.9f", cp.MeanQuality, st.Quality())
	}
	live := st.snapshot(0)
	if cp.OverTagged != live.OverTagged || cp.UnderTagged != live.UnderTagged {
		t.Errorf("structural metrics disagree: %+v vs %+v", cp, live)
	}
	if cp.WastedPosts != live.WastedPosts {
		t.Errorf("wasted %d vs %d", cp.WastedPosts, live.WastedPosts)
	}
}

func TestApplyAssignmentValidation(t *testing.T) {
	d := testData(t, 5, 9)
	if _, err := ApplyAssignment(d, core.Assignment{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	x := make(core.Assignment, d.N())
	x[0] = -1
	if _, err := ApplyAssignment(d, x); err == nil {
		t.Error("negative allocation accepted")
	}
	x[0] = len(d.Seqs[0]) // exceeds available
	if _, err := ApplyAssignment(d, x); err == nil {
		t.Error("over-available allocation accepted")
	}
}

// The tape's quality rows — the DP's curves — equal Reference.Of over a
// fresh count vector at every entry, bit for bit.
func TestBuildCurvesConsistentWithRefs(t *testing.T) {
	d := testData(t, 60, 10)
	curves, err := d.Curves(5, -1)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for i, c := range curves {
		if c.MaxX() != len(d.Seqs[i])-d.Initial[i] {
			t.Fatalf("resource %d: curve reaches x=%d of %d", i, c.MaxX(), len(d.Seqs[i])-d.Initial[i])
		}
		counts := sparse.FromSeq(d.Seqs[i], d.Initial[i])
		for x := range c {
			if x > 0 {
				counts.Add(d.Seqs[i][d.Initial[i]+x-1])
			}
			if want := d.Refs[i].Of(counts); math.Float64bits(c[x]) != math.Float64bits(want) {
				t.Fatalf("resource %d x=%d: tape %.17g, Reference.Of %.17g", i, x, c[x], want)
			}
			entries++
		}
		// Quality at the stable point is ≈ 1 when reachable.
		if x := d.StableK[i] - d.Initial[i]; x >= 0 && x <= c.MaxX() {
			if c.At(x) < 0.999 {
				t.Errorf("resource %d: quality at stable point = %g", i, c.At(x))
			}
		}
	}
	bounded, err := d.Curves(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range bounded {
		if want := min(7, curves[i].MaxX()); c.MaxX() != want || c[0] != curves[i][0] {
			t.Fatalf("resource %d: bound 7 gives a curve to x=%d, want %d", i, c.MaxX(), want)
		}
	}
	t.Logf("%d entries", entries)
}

// Custom cost vector: budget is spent in cost units.
func TestWeightedBudgetRun(t *testing.T) {
	d := testData(t, 10, 11)
	d.Costs = make([]int, d.N())
	rng := rand.New(rand.NewSource(1))
	for i := range d.Costs {
		d.Costs[i] = 1 + rng.Intn(3)
	}
	st := NewState(d, 5, 1)
	if _, err := st.Run(strategy.NewFP(), 60, nil); err != nil {
		t.Fatal(err)
	}
	spent := 0
	for i, xi := range st.Assignment() {
		spent += xi * d.Costs[i]
	}
	if spent != st.Spent() {
		t.Errorf("cost accounting: %d vs %d", spent, st.Spent())
	}
	if spent > 60 {
		t.Errorf("overspent: %d > 60", spent)
	}
}

// The Env contract: MA matches a from-scratch tracker at any time.
func TestEnvMAConsistency(t *testing.T) {
	d := testData(t, 8, 12)
	st := NewState(d, 6, 1)
	if _, err := st.Run(strategy.NewRR(), 40, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.N(); i++ {
		got, gotOK := st.MA(i)
		want, wantOK := freshMA(d.Seqs[i], st.Count(i), 6)
		if gotOK != wantOK || (gotOK && math.Abs(got-want) > 1e-9) {
			t.Fatalf("resource %d: MA %.9f/%v vs fresh %.9f/%v", i, got, gotOK, want, wantOK)
		}
	}
}

func freshMA(seq tags.Seq, k, omega int) (float64, bool) {
	tr := stability.NewTracker(omega)
	for j := 0; j < k; j++ {
		tr.Observe(seq[j])
	}
	return tr.MA()
}

// MaxBudget equals the total replayable posts.
func TestMaxBudget(t *testing.T) {
	d := testData(t, 6, 13)
	want := 0
	for i := range d.Seqs {
		want += len(d.Seqs[i]) - d.Initial[i]
	}
	if got := d.MaxBudget(); got != want {
		t.Errorf("MaxBudget = %d, want %d", got, want)
	}
	// Budget beyond MaxBudget: run stops early without error.
	st := NewState(d, 5, 1)
	if _, err := st.Run(strategy.NewFP(), want+500, nil); err != nil {
		t.Fatal(err)
	}
	if st.Spent() != want {
		t.Errorf("spent %d, want saturation at %d", st.Spent(), want)
	}
}

// quality reference sanity for subsetting.
func TestFromDatasetSubset(t *testing.T) {
	cfg := synth.DefaultConfig(12, 14)
	cfg.Drift = nil
	ds, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := FromDataset(ds, 5)
	if d.N() != 5 {
		t.Errorf("subset N = %d", d.N())
	}
	full := FromDataset(ds, 0)
	if full.N() != 12 {
		t.Errorf("full N = %d", full.N())
	}
	if _, err := d.Curves(5, 10); err != nil {
		t.Fatal(err)
	}
}
