package sim

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"incentivetag/internal/core"
	"incentivetag/internal/engine"
	"incentivetag/internal/strategy"
)

func mkStrategy(name string, omega int) strategy.Strategy {
	switch name {
	case "FC":
		return strategy.NewFC(nil)
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

// primedDirect is what NewState was before the template: a State around
// an engine primed by engine.New for this run alone, every resource hot.
func primedDirect(t *testing.T, d *Data, omega int, seed int64) *State {
	t.Helper()
	eng, err := engine.New(engine.Config{Omega: omega, Shards: 1, UnderThreshold: d.UnderThreshold}, d.EngineSpecs())
	if err != nil {
		t.Fatal(err)
	}
	return &State{data: d, rng: rand.New(rand.NewSource(seed)), eng: eng, x: make(core.Assignment, d.N())}
}

func exported(t *testing.T, st *State) []byte {
	t.Helper()
	b, err := st.Engine().ExportState().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameReads holds every per-resource read of two states equal, bit for bit.
func sameReads(t *testing.T, when string, got, want *State) {
	t.Helper()
	for i := 0; i < want.N(); i++ {
		gm, gok := got.MA(i)
		wm, wok := want.MA(i)
		gq, wq := got.Engine().QualityOf(i), want.Engine().QualityOf(i)
		if got.Count(i) != want.Count(i) || gok != wok || math.Float64bits(gm) != math.Float64bits(wm) ||
			math.Float64bits(gq) != math.Float64bits(wq) {
			t.Fatalf("%s: resource %d reads (count %d, MA %v/%v, q %v), directly primed (%d, %v/%v, %v)",
				when, i, got.Count(i), gm, gok, gq, want.Count(i), wm, wok, wq)
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

// A State restored cold from the cached template is indistinguishable
// from one primed directly for the run: every read before the run (while
// all resources are cold), every checkpoint field, the assignment, every
// read after it, and the final exported engine state byte for byte.
func TestRestoredStateBitIdenticalToPrimed(t *testing.T) {
	d := testData(t, 150, 31)
	checkpoints := []int{0, 50, 100, 200, 300, 400}
	for _, omega := range []int{2, 5, 6} {
		for _, seed := range []int64{1, 7, 1234} {
			for _, name := range []string{"RR", "FP", "MU", "FP-MU", "FC"} {
				label := fmt.Sprintf("%s ω=%d seed=%d", name, omega, seed)
				got, want := NewState(d, omega, seed), primedDirect(t, d, omega, seed)
				for i := 0; i < d.N(); i++ {
					if got.Engine().Resident(i) {
						t.Fatalf("%s: resource %d starts resident", label, i)
					}
				}
				sameReads(t, label+" before the run", got, want)
				if g, w := got.snapshot(0), want.snapshot(0); g != w {
					t.Fatalf("%s: initial snapshot %+v, directly primed %+v", label, g, w)
				}
				gotCps, err := got.Run(mkStrategy(name, omega), 400, checkpoints)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				wantCps, err := want.Run(mkStrategy(name, omega), 400, checkpoints)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := sameCheckpoints(gotCps, wantCps); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				gx, wx := got.Assignment(), want.Assignment()
				for i := range wx {
					if gx[i] != wx[i] {
						t.Fatalf("%s: assignment diverges at resource %d: %d vs %d", label, i, gx[i], wx[i])
					}
					// Rehydrate-on-touch: exactly the paid resources are hot.
					if got.Engine().Resident(i) != (gx[i] > 0) {
						t.Fatalf("%s: resource %d resident=%v with %d tasks", label, i, got.Engine().Resident(i), gx[i])
					}
				}
				sameReads(t, label+" after the run", got, want)
				if !bytes.Equal(exported(t, got), exported(t, want)) {
					t.Fatalf("%s: final exported state differs from the directly primed run's", label)
				}
			}
		}
	}
}

// The template is primed once per (Data, ω) and never replayed stale:
// mutating any input it was primed over re-primes it, and the State that
// follows equals one built over a fresh Data with the same contents.
func TestStaleTemplateRebuilt(t *testing.T) {
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
		before := exported(t, NewState(d, 5, 1))
		tmpl := d.primed[5]
		if NewState(d, 5, 1); d.primed[5] != tmpl {
			t.Fatalf("%s: unchanged Data primed twice", name)
		}
		NewState(d, 4, 1)
		if d.primed[5] != tmpl || d.primed[4] == nil {
			t.Fatalf("%s: templates are not kept per ω", name)
		}
		mutate(d)
		fresh := testData(t, 30, 8)
		mutate(fresh)
		got, want := NewState(d, 5, 1), primedDirect(t, fresh, 5, 1)
		if d.primed[5] == tmpl {
			t.Fatalf("%s: stale template kept", name)
		}
		sameReads(t, name, got, want)
		if g, w := got.snapshot(0), want.snapshot(0); g != w {
			t.Fatalf("%s: snapshot %+v, fresh Data gives %+v", name, g, w)
		}
		after := exported(t, got)
		if !bytes.Equal(after, exported(t, want)) {
			t.Fatalf("%s: state after the mutation differs from a fresh Data's", name)
		}
		if bytes.Equal(after, before) {
			t.Fatalf("%s: mutation left the primed state unchanged — the case checks nothing", name)
		}
	}
}

// Costs and stable points are no part of the template: they reach the
// engine through the specs on every NewState, so changing them between
// two runs takes effect without re-priming.
func TestCostsAndStablePointsBypassTemplate(t *testing.T) {
	d := testData(t, 30, 8)
	unit := NewState(d, 5, 1)
	tmpl := d.primed[5]
	d.Costs = make([]int, d.N())
	for i := range d.Costs {
		d.Costs[i] = 1 + i%3
	}
	d.StableK[0] = d.Initial[0] // resource 0 becomes over-tagged from the start
	st := NewState(d, 5, 1)
	if d.primed[5] != tmpl {
		t.Fatal("costs or stable points re-primed the template")
	}
	if got, want := st.snapshot(0).OverTagged, primedDirect(t, d, 5, 1).snapshot(0).OverTagged; got != want || got == unit.snapshot(0).OverTagged {
		t.Fatalf("over-tagged %d after moving a stable point, directly primed %d, before %d", got, want, unit.snapshot(0).OverTagged)
	}
	for _, i := range []int{0, 1, 2, 1} {
		if st.Cost(i) != d.Costs[i] {
			t.Fatalf("resource %d cost %d, want %d", i, st.Cost(i), d.Costs[i])
		}
		if err := st.Step(i); err != nil {
			t.Fatal(err)
		}
	}
	if want := d.Costs[0] + 2*d.Costs[1] + d.Costs[2]; st.Spent() != want {
		t.Fatalf("spent %d, want %d", st.Spent(), want)
	}
}

// RunReference scans live vectors only: it leaves every resource resident.
func TestRunReferenceRunsHot(t *testing.T) {
	d := testData(t, 20, 4)
	st := NewState(d, 5, 1)
	if _, err := st.RunReference(strategy.NewFP(), 10, []int{0, 5, 10}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.N(); i++ {
		if !st.Engine().Resident(i) {
			t.Fatalf("resource %d still cold after RunReference", i)
		}
	}
}

// Goroutines sharing one Data — the first of them priming the template
// while the others wait on it — each reproduce the sequential series,
// and rehydrating out of the shared payload never writes to it.
func TestNewStateConcurrent(t *testing.T) {
	checkpoints := []int{0, 100, 200, 300}
	names := []string{"RR", "FP", "MU", "FP-MU", "FC", "RR", "FP", "MU"}
	seq := testData(t, 60, 12)
	want := make([][]Checkpoint, len(names))
	for g, name := range names {
		cps, err := NewState(seq, 5, 3).Run(mkStrategy(name, 5), 300, checkpoints)
		if err != nil {
			t.Fatal(err)
		}
		want[g] = cps
	}
	d := testData(t, 60, 12) // fresh: the goroutines race to prime it
	var wg sync.WaitGroup
	for g, name := range names {
		wg.Add(1)
		go func(g int, name string) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				cps, err := NewState(d, 5, 3).Run(mkStrategy(name, 5), 300, checkpoints)
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
	if payload := d.primed[5].payload; !bytes.Equal(payload, seq.primed[5].payload) {
		t.Fatal("shared payload changed under concurrent runs")
	}
}
