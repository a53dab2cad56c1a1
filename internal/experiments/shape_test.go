package experiments

import (
	"sync"
	"testing"

	"incentivetag/internal/stats"
)

// The shape tests assert the paper's qualitative findings — who wins, who
// loses, where the structure lies — on the quick-scale corpus. They are
// the scientific regression suite: a change that silently breaks the
// reproduction fails here even if all unit tests pass.

var (
	shapeOnce sync.Once
	shapeCtx  *Context
	shapeErr  error
)

func quickCtx(t *testing.T) *Context {
	t.Helper()
	if testing.Short() {
		t.Skip("quick-scale shape tests skipped in -short mode")
	}
	shapeOnce.Do(func() {
		shapeCtx, shapeErr = NewContext(Quick())
	})
	if shapeErr != nil {
		t.Fatal(shapeErr)
	}
	return shapeCtx
}

func finalQuality(t *testing.T, ctx *Context, name string) float64 {
	t.Helper()
	cps, err := ctx.sweep(name)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return cps[len(cps)-1].MeanQuality
}

// Figure 6(a): DP dominates everything; FP-MU and FP are nearly optimal;
// FC barely moves; MU and RR sit in between.
func TestShapeFig6aOrdering(t *testing.T) {
	ctx := quickCtx(t)
	q := map[string]float64{}
	for _, name := range StrategyNames {
		q[name] = finalQuality(t, ctx, name)
	}
	base, err := ctx.sweep("FC")
	if err != nil {
		t.Fatal(err)
	}
	initial := base[0].MeanQuality

	for _, name := range []string{"FP-MU", "FP", "RR", "MU", "FC"} {
		if q[name] > q["DP"]+1e-9 {
			t.Errorf("%s (%.4f) beat the optimal DP (%.4f)", name, q[name], q["DP"])
		}
	}
	// FP-MU edges over FP (§V-B.1); tolerate a hair of noise.
	if q["FP-MU"] < q["FP"]-0.001 {
		t.Errorf("FP-MU (%.4f) clearly below FP (%.4f)", q["FP-MU"], q["FP"])
	}
	// FP and FP-MU are "very close" to DP: within a third of DP's gain.
	dpGain := q["DP"] - initial
	if gap := q["DP"] - q["FP"]; gap > dpGain/3 {
		t.Errorf("FP gap to DP %.4f exceeds a third of DP's gain %.4f", gap, dpGain)
	}
	// FC is the weakest improver.
	for _, name := range []string{"DP", "FP-MU", "FP", "RR", "MU"} {
		if q["FC"] > q[name]+1e-9 {
			t.Errorf("FC (%.4f) above %s (%.4f)", q["FC"], name, q[name])
		}
	}
	// FP clearly beats the unfocused baselines.
	if q["FP"] <= q["RR"] || q["FP"] <= q["FC"] {
		t.Errorf("FP (%.4f) not above RR (%.4f)/FC (%.4f)", q["FP"], q["RR"], q["FC"])
	}
	// Everyone's quality is non-decreasing in budget.
	for _, name := range StrategyNames {
		cps, err := ctx.sweep(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(cps); i++ {
			if cps[i].MeanQuality < cps[i-1].MeanQuality-0.002 {
				t.Errorf("%s quality dropped at budget %d", name, cps[i].Budget)
			}
		}
	}
}

// Figures 6(b)/6(c): only FC and RR push resources past stable points and
// waste post tasks; the targeted strategies waste nothing (§V-B.2).
func TestShapeFig6bcWaste(t *testing.T) {
	ctx := quickCtx(t)
	for _, name := range []string{"DP", "FP", "MU", "FP-MU"} {
		cps, err := ctx.sweep(name)
		if err != nil {
			t.Fatal(err)
		}
		last := cps[len(cps)-1]
		if last.WastedPosts != 0 {
			t.Errorf("%s wasted %d post tasks, paper says none", name, last.WastedPosts)
		}
		if last.OverTagged != cps[0].OverTagged {
			t.Errorf("%s changed the over-tagged count", name)
		}
	}
	fc, err := ctx.sweep("FC")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ctx.sweep("RR")
	if err != nil {
		t.Fatal(err)
	}
	fcLast, rrLast := fc[len(fc)-1], rr[len(rr)-1]
	if fcLast.WastedPosts == 0 || rrLast.WastedPosts == 0 {
		t.Error("FC/RR wasted nothing — popularity skew broken")
	}
	if fcLast.WastedPosts <= rrLast.WastedPosts {
		t.Errorf("FC waste (%d) not above RR waste (%d)", fcLast.WastedPosts, rrLast.WastedPosts)
	}
	// FC wastes a large share of its tasks (paper: ~48%; band ≥ 20%).
	if share := float64(fcLast.WastedPosts) / float64(fcLast.Budget); share < 0.20 {
		t.Errorf("FC wasted share %.2f, want ≥ 0.20", share)
	}
	if fcLast.OverTagged <= fc[0].OverTagged {
		t.Error("FC did not increase over-tagged count")
	}
}

// Figure 6(d): FP empties the under-tagged pool (its cliff), MU helps
// early, FC barely moves (§V-B.3).
func TestShapeFig6dUnderTagged(t *testing.T) {
	ctx := quickCtx(t)
	get := func(name string) []float64 {
		cps, err := ctx.sweep(name)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(cps))
		for i, cp := range cps {
			out[i] = cp.UnderTaggedPct
		}
		return out
	}
	fp, fc, mu := get("FP"), get("FC"), get("MU")
	if fp[len(fp)-1] > 0.001 {
		t.Errorf("FP left %.1f%% under-tagged, want ~0", 100*fp[len(fp)-1])
	}
	if fc[len(fc)-1] < 0.5*fc[0] {
		t.Errorf("FC halved under-tagging (%.3f -> %.3f) — too effective", fc[0], fc[len(fc)-1])
	}
	if mu[len(mu)-1] >= fc[len(fc)-1] {
		t.Error("MU not better than FC at reducing under-tagging")
	}
}

// Figure 6(f): MU degrades as ω grows; FP-MU converges to FP for large ω
// (§V-B.5).
func TestShapeFig6fOmega(t *testing.T) {
	ctx := quickCtx(t)
	sc := ctx.Scale
	muQ := map[int]float64{}
	fpmuQ := map[int]float64{}
	for _, omega := range []int{2, 8, 16} {
		var err error
		if muQ[omega], err = runOnceOmega(ctx, "MU", omega, sc.OmegaBudget); err != nil {
			t.Fatal(err)
		}
		if fpmuQ[omega], err = runOnceOmega(ctx, "FP-MU", omega, sc.OmegaBudget); err != nil {
			t.Fatal(err)
		}
	}
	fpQ, err := runOnceOmega(ctx, "FP", sc.Omega, sc.OmegaBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !(muQ[2] > muQ[8] && muQ[8] > muQ[16]) {
		t.Errorf("MU quality not decreasing in ω: %v", muQ)
	}
	if diff := fpmuQ[16] - fpQ; diff > 0.002 || diff < -0.002 {
		t.Errorf("FP-MU at large ω (%.4f) should match FP (%.4f)", fpmuQ[16], fpQ)
	}
}

// Figure 7: ranking accuracy improves with the good strategies and
// correlates strongly with tagging quality (§V-C.2; paper: corr > 98%).
func TestShapeFig7(t *testing.T) {
	ctx := quickCtx(t)
	points, err := collectTauPoints(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]map[int]tauPoint{}
	for _, p := range points {
		if byKey[p.Strategy] == nil {
			byKey[p.Strategy] = map[int]tauPoint{}
		}
		byKey[p.Strategy][p.Budget] = p
	}
	maxB := ctx.Scale.TauBudgets[len(ctx.Scale.TauBudgets)-1]
	base := byKey["FC"][0].Tau
	if base <= 0 {
		t.Fatalf("baseline accuracy %.4f not positive", base)
	}
	for _, name := range []string{"DP", "FP", "FP-MU"} {
		final, ok := byKey[name][maxB]
		if !ok {
			continue // DP may be capped
		}
		if final.Tau <= base {
			t.Errorf("%s accuracy %.4f did not improve over baseline %.4f", name, final.Tau, base)
		}
	}
	if fp, fc := byKey["FP"][maxB].Tau, byKey["FC"][maxB].Tau; fp <= fc {
		t.Errorf("FP accuracy %.4f not above FC %.4f", fp, fc)
	}

	// Quality ↔ accuracy correlation (Figure 7(b)).
	var xs, ys []float64
	for _, p := range points {
		xs = append(xs, p.Quality)
		ys = append(ys, p.Tau)
	}
	corr, err := pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if corr < 0.85 {
		t.Errorf("quality/accuracy correlation %.3f, want ≥ 0.85 (paper: >0.98)", corr)
	}
}

// Table VI: the drift subject's top-10 flips from the early topic to the
// true topic; FP repairs it better than FC (§V-C.1).
func TestShapeTable6(t *testing.T) {
	ctx := quickCtx(t)
	subject, ok := ctx.DS.ByName("www.myphysicslab.example")
	if !ok {
		t.Fatal("case-study resource missing")
	}
	snaps, err := caseSnapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	trueLeaf := ctx.DS.Resources[subject].Leaf
	inCat := func(col string) int {
		n := 0
		for _, s := range snaps[col].TopK(subject, ctx.Scale.TopK) {
			if ctx.DS.Resources[s.ID].Leaf == trueLeaf {
				n++
			}
		}
		return n
	}
	jan, fc, fp, dec := inCat("Jan 31"), inCat("FC"), inCat("FP"), inCat("Dec 31")
	t.Logf("true-category members of top-%d: Jan=%d FC=%d FP=%d Dec=%d", ctx.Scale.TopK, jan, fc, fp, dec)
	if jan > 3 {
		t.Errorf("initial list already on-topic (%d/10) — drift too weak", jan)
	}
	if dec < 7 {
		t.Errorf("ideal list off-topic (%d/10) — corpus similarity too weak", dec)
	}
	if fp <= jan {
		t.Error("FP did not repair the profile")
	}
	if fp < fc {
		t.Errorf("FP (%d) repaired less than FC (%d)", fp, fc)
	}
}

// pearson delegates to the stats package.
func pearson(xs, ys []float64) (float64, error) {
	return stats.Pearson(xs, ys)
}
