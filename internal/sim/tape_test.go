package sim

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"incentivetag/internal/sparse"
	"incentivetag/internal/strategy"
	"incentivetag/internal/tags"
)

func mkStrategy(name string, omega int) strategy.Strategy {
	switch name {
	case "FC":
		return strategy.NewFC()
	case "RR":
		return strategy.NewRR()
	case "FP":
		return strategy.NewFP()
	case "MU":
		return strategy.NewMU()
	default:
		return strategy.NewFPMU(omega)
	}
}

// qualityOf reads resource i's current quality off the State's tape.
func qualityOf(st *State, i int) float64 { return st.tape.q[st.tape.off[i]+st.x[i]] }

// engineRun runs s on st's engine twin: the strategy reads the engine,
// and every checkpoint is the engine's incremental Snapshot.
func engineRun(t *testing.T, st *State, s strategy.Strategy, budget int, checkpoints []int) []Checkpoint {
	t.Helper()
	eng := st.Engine()
	cps, err := st.run(st.engineEnv(), s, budget, checkpoints, func(elapsed time.Duration) Checkpoint {
		return fromMetrics(eng.Snapshot(), elapsed)
	})
	if err != nil {
		t.Fatal(err)
	}
	return cps
}

// sameReads holds every per-resource read of a tape State to its engine
// twin's, bit for bit.
func sameReads(t *testing.T, when string, got, want *State) {
	t.Helper()
	eng := want.Engine()
	for i := 0; i < want.N(); i++ {
		gm, gok := got.MA(i)
		wm, wok := eng.MA(i)
		gq, wq := qualityOf(got, i), eng.QualityOf(i)
		if got.Count(i) != eng.Count(i) || gok != wok || math.Float64bits(gm) != math.Float64bits(wm) ||
			math.Float64bits(gq) != math.Float64bits(wq) {
			t.Fatalf("%s: resource %d reads (count %d, MA %v/%v, q %v), engine (%d, %v/%v, %v)",
				when, i, got.Count(i), gm, gok, gq, eng.Count(i), wm, wok, wq)
		}
	}
}

func sameCheckpoints(got, want []Checkpoint) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d checkpoints, want %d", len(got), len(want))
	}
	for k := range got {
		a, b := got[k], want[k]
		if math.Float64bits(a.MeanQuality) != math.Float64bits(b.MeanQuality) {
			return fmt.Errorf("checkpoint %d: mean quality %.17g, want %.17g", k, a.MeanQuality, b.MeanQuality)
		}
		a.Elapsed, b.Elapsed = 0, 0
		if a != b {
			return fmt.Errorf("checkpoint %d: %+v, want %+v", k, a, b)
		}
	}
	return nil
}

// sameCounts compares two count vectors entry by entry.
func sameCounts(a, b *sparse.Counts) bool {
	if a.Posts() != b.Posts() || a.Len() != b.Len() || a.Norm2() != b.Norm2() {
		return false
	}
	same := true
	a.ForEach(func(tg tags.Tag, n int64) { same = same && b.Get(tg) == n })
	return same
}

// A State read off the cached tape is indistinguishable from a run on a
// hot engine primed directly: every read before and after the run, every
// checkpoint field (mean quality by its bits), the assignment, and every
// resource's rfd.
func TestRestoredStateBitIdenticalToPrimed(t *testing.T) {
	d := testData(t, 150, 31)
	checkpoints := []int{0, 50, 100, 200, 300, 400}
	for _, omega := range []int{2, 5, 6} {
		for _, seed := range []int64{1, 7, 1234} {
			for _, name := range []string{"RR", "FP", "MU", "FP-MU", "FC"} {
				label := fmt.Sprintf("%s ω=%d seed=%d", name, omega, seed)
				got, want := NewState(d, omega, seed), NewState(d, omega, seed)
				sameReads(t, label+" before the run", got, want)
				if g, w := got.snapshot(0), fromMetrics(want.Engine().Snapshot(), 0); g != w {
					t.Fatalf("%s: initial snapshot %+v, engine %+v", label, g, w)
				}
				gotCps, err := got.Run(mkStrategy(name, omega), 400, checkpoints)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				wantCps := engineRun(t, want, mkStrategy(name, omega), 400, checkpoints)
				if err := sameCheckpoints(gotCps, wantCps); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				gx, wx := got.Assignment(), want.Assignment()
				for i := range wx {
					if gx[i] != wx[i] {
						t.Fatalf("%s: assignment diverges at resource %d: %d vs %d", label, i, gx[i], wx[i])
					}
				}
				sameReads(t, label+" after the run", got, want)
				wantRFDs := want.Engine().SnapshotRFDs()
				for i, c := range got.SnapshotRFDs() {
					if !sameCounts(c, wantRFDs[i]) {
						t.Fatalf("%s: resource %d rfd differs from the engine's", label, i)
					}
				}
			}
		}
	}
}

// The tape is built once per (Data, ω), one ω at a time, and never
// replayed stale: changing any input it was built over rebuilds it, and
// the State that follows equals one over a fresh Data with the same
// contents. The under-tagged threshold is no input of the tape, yet
// reaches the State.
func TestStaleTapeRebuilt(t *testing.T) {
	mutations := map[string]func(d *Data){
		"initial":   func(d *Data) { d.Initial[0]++ },
		"ref":       func(d *Data) { d.Refs[0] = d.Refs[1] },
		"seq":       func(d *Data) { d.Seqs[0], d.Seqs[1] = d.Seqs[1], d.Seqs[0] },
		"threshold": func(d *Data) { d.UnderThreshold += 3 },
		"truncated": func(d *Data) {
			d.Seqs, d.Initial, d.StableK, d.Refs = d.Seqs[:20], d.Initial[:20], d.StableK[:20], d.Refs[:20]
		},
	}
	for name, mutate := range mutations {
		d := testData(t, 30, 8)
		before := NewState(d, 5, 1)
		tp := d.tape
		if NewState(d, 5, 1); d.tape != tp {
			t.Fatalf("%s: unchanged Data built twice", name)
		}
		NewState(d, 4, 1)
		if d.tape == tp || d.tape.omega != 4 {
			t.Fatalf("%s: a new ω kept the old tape", name)
		}
		NewState(d, 5, 1)
		tp = d.tape
		mutate(d)
		fresh := testData(t, 30, 8)
		mutate(fresh)
		got, want := NewState(d, 5, 1), NewState(fresh, 5, 1)
		if rebuilt := d.tape != tp; rebuilt != (name != "threshold") {
			t.Fatalf("%s: tape rebuilt = %v", name, rebuilt)
		}
		sameReads(t, name, got, want)
		if g, w := got.snapshot(0), want.snapshot(0); g != w {
			t.Fatalf("%s: snapshot %+v, fresh Data gives %+v", name, g, w)
		}
		if g, w := got.snapshot(0), fromMetrics(want.Engine().Snapshot(), 0); g != w {
			t.Fatalf("%s: snapshot %+v, engine over a fresh Data %+v", name, g, w)
		}
		if got.snapshot(0) == before.snapshot(0) {
			t.Fatalf("%s: mutation left the January state unchanged — the case checks nothing", name)
		}
	}
}

// Costs and stable points are no part of the tape: NewState reads them
// from the Data of the day, so changing them between two runs takes
// effect without a rebuild.
func TestCostsAndStablePointsBypassTape(t *testing.T) {
	d := testData(t, 30, 8)
	unit := NewState(d, 5, 1)
	tp := d.tape
	d.Costs = make([]int, d.N())
	for i := range d.Costs {
		d.Costs[i] = 1 + i%3
	}
	d.StableK[0] = d.Initial[0] // resource 0 becomes over-tagged from the start
	st := NewState(d, 5, 1)
	if d.tape != tp {
		t.Fatal("costs or stable points rebuilt the tape")
	}
	if got, want := st.snapshot(0).OverTagged, NewState(d, 5, 1).Engine().Snapshot().OverTagged; got != want || got == unit.snapshot(0).OverTagged {
		t.Fatalf("over-tagged %d after moving a stable point, engine %d, before %d", got, want, unit.snapshot(0).OverTagged)
	}
	eng := st.Engine() // built first, so it sums the steps in their order
	for _, i := range []int{0, 1, 2, 1} {
		if st.Cost(i) != d.Costs[i] {
			t.Fatalf("resource %d cost %d, want %d", i, st.Cost(i), d.Costs[i])
		}
		if err := st.step(i); err != nil {
			t.Fatal(err)
		}
	}
	if want := d.Costs[0] + 2*d.Costs[1] + d.Costs[2]; st.Spent() != want {
		t.Fatalf("spent %d, want %d", st.Spent(), want)
	}
	if got, want := st.snapshot(0), fromMetrics(eng.Snapshot(), 0); got != want {
		t.Fatalf("after weighted steps: %+v, engine twin %+v", got, want)
	}
}

// A negative cost or stable point, set after the tape was built over
// valid data, is refused by NewState as engine.New refuses it.
func TestNewStateRefusesNegativeSpecs(t *testing.T) {
	mutations := map[string]func(d *Data){
		"cost": func(d *Data) {
			d.Costs = make([]int, d.N())
			for i := range d.Costs {
				d.Costs[i] = 1
			}
			d.Costs[0] = -3
		},
		"stable point": func(d *Data) { d.StableK[0] = -1 },
	}
	for name, mutate := range mutations {
		d := testData(t, 30, 8)
		NewState(d, 5, 1)
		mutate(d)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("negative %s accepted", name)
				}
			}()
			NewState(d, 5, 1)
		}()
	}
}

// RunReference runs on a hot engine primed by engine.New: every resource
// is resident, and the engine's counts are the run's.
func TestRunReferenceRunsHot(t *testing.T) {
	d := testData(t, 20, 4)
	st := NewState(d, 5, 1)
	if _, err := st.RunReference(strategy.NewFP(), 10, []int{0, 5, 10}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.N(); i++ {
		if !st.Engine().Resident(i) {
			t.Fatalf("resource %d cold after RunReference", i)
		}
		if st.Engine().Count(i) != st.Count(i) {
			t.Fatalf("resource %d: engine counts %d, run %d", i, st.Engine().Count(i), st.Count(i))
		}
	}
}

// Goroutines sharing one Data, racing to build its tape under two ω,
// each reproduce the sequential series, and no run writes to the tape it
// reads: the last tape equals a fresh build entry for entry.
func TestNewStateConcurrent(t *testing.T) {
	checkpoints := []int{0, 100, 200, 300}
	names := []string{"RR", "FP", "MU", "FP-MU", "FC", "RR", "FP", "MU"}
	omegaOf := func(g int) int { return 4 + g%2 }
	seq := testData(t, 60, 12)
	want := make([][]Checkpoint, len(names))
	for g, name := range names {
		cps, err := NewState(seq, omegaOf(g), 3).Run(mkStrategy(name, omegaOf(g)), 300, checkpoints)
		if err != nil {
			t.Fatal(err)
		}
		want[g] = cps
	}
	d := testData(t, 60, 12) // fresh: the goroutines race to build it
	var wg sync.WaitGroup
	for g, name := range names {
		wg.Add(1)
		go func(g int, name string) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				cps, err := NewState(d, omegaOf(g), 3).Run(mkStrategy(name, omegaOf(g)), 300, checkpoints)
				if err == nil {
					err = sameCheckpoints(cps, want[g])
				}
				if err != nil {
					t.Errorf("goroutine %d (%s): %v", g, name, err)
					return
				}
			}
		}(g, name)
	}
	wg.Wait()
	fresh, err := buildTape(seq, d.tape.omega)
	if err != nil {
		t.Fatal(err)
	}
	for k := range fresh.q {
		if math.Float64bits(d.tape.q[k]) != math.Float64bits(fresh.q[k]) || math.Float64bits(d.tape.ma[k]) != math.Float64bits(fresh.ma[k]) {
			t.Fatalf("tape entry %d changed under concurrent runs", k)
		}
	}
}

// The fan-out is bit-identical to one sequential pass over the same
// resources: rows are disjoint and each is one tracker pass.
func TestBuildCurvesParallelMatchesSequential(t *testing.T) {
	d := testData(t, 40, 21)
	par, err := buildTape(d, 5)
	if err != nil {
		t.Fatal(err)
	}
	seq := *par
	seq.q, seq.ma = make([]float64, len(par.q)), make([]float64, len(par.ma))
	for i := 0; i < d.N(); i++ {
		seq.fill(i)
	}
	for k := range par.q {
		if math.Float64bits(seq.q[k]) != math.Float64bits(par.q[k]) || math.Float64bits(seq.ma[k]) != math.Float64bits(par.ma[k]) {
			t.Fatalf("entry %d: (%.17g, %.17g) sequential, (%.17g, %.17g) fanned out", k, seq.q[k], seq.ma[k], par.q[k], par.ma[k])
		}
	}
}

// A resource the tape cannot tabulate fails the build, and nothing is
// cached for it.
func TestBuildCurvesParallelError(t *testing.T) {
	for _, initial := range []func(d *Data) int{
		func(d *Data) int { return len(d.Seqs[2]) + 3 },
		func(*Data) int { return -1 },
	} {
		d := testData(t, 5, 22)
		d.Initial[2] = initial(d) // poison one resource
		if _, err := d.Curves(5, 10); err == nil {
			t.Errorf("initial count %d accepted", d.Initial[2])
		}
		if d.tape != nil {
			t.Error("a failed build was cached")
		}
	}
}
