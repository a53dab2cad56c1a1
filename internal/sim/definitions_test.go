package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"incentivetag/internal/strategy"
	"incentivetag/internal/synth"
)

// argmin is a strategy by its definition: every Choose scans all
// resources and returns the least by (key, id) among those Available,
// affordable and keyed. key reports false for a resource the strategy
// ignores.
type argmin struct {
	name string
	env  strategy.Env
	key  func(i int) (float64, bool)
	// update is the strategy's own UPDATE bookkeeping, if any.
	update func(i int)
}

func (s *argmin) Name() string          { return s.name }
func (s *argmin) Init(env strategy.Env) { s.env = env }
func (s *argmin) Choose(remaining int) (int, bool) {
	best, bestKey := -1, 0.0
	for i := 0; i < s.env.N(); i++ {
		if !s.env.Available(i) || s.env.Cost(i) > remaining {
			continue
		}
		if k, ok := s.key(i); ok && (best < 0 || k < bestKey) {
			best, bestKey = i, k
		}
	}
	return best, best >= 0
}
func (s *argmin) Update(i int) {
	if s.update != nil {
		s.update(i)
	}
}

// naiveRR cycles from the resource after the last one paid.
func naiveRR() *argmin {
	s := &argmin{name: "RR"}
	last := 0
	s.key = func(i int) (float64, bool) { return float64((i - last + s.env.N()) % s.env.N()), true }
	s.update = func(i int) { last = i + 1 }
	return s
}

// naiveFP takes the fewest posts.
func naiveFP() *argmin {
	s := &argmin{name: "FP"}
	s.key = func(i int) (float64, bool) { return float64(s.env.Count(i)), true }
	return s
}

// naiveMU takes the smallest MA score among resources that have one.
func naiveMU() *argmin {
	s := &argmin{name: "MU"}
	s.key = func(i int) (float64, bool) { return s.env.MA(i) }
	return s
}

// naiveFPMU is FP until its warm-up budget Σ max(0, ω − c_i) over the
// available resources is paid, or FP finds nothing; MU after that.
type naiveFPMU struct {
	omega, warmup int
	inMU          bool
	fp, mu        *argmin
}

func (s *naiveFPMU) Name() string { return "FP-MU" }
func (s *naiveFPMU) Init(env strategy.Env) {
	s.fp, s.mu = naiveFP(), naiveMU()
	s.fp.Init(env)
	s.mu.Init(env)
	for i := 0; i < env.N(); i++ {
		if need := s.omega - env.Count(i); need > 0 && env.Available(i) {
			s.warmup += need
		}
	}
}
func (s *naiveFPMU) Choose(remaining int) (int, bool) {
	if !s.inMU && s.warmup > 0 {
		if i, ok := s.fp.Choose(remaining); ok {
			return i, true
		}
	}
	s.inMU = true
	return s.mu.Choose(remaining)
}
func (s *naiveFPMU) Update(int) {
	if !s.inMU {
		s.warmup--
	}
}

// recorded notes the order a strategy chooses in.
type recorded struct {
	strategy.Strategy
	order *[]int
}

func (r recorded) Update(i int) {
	*r.order = append(*r.order, i)
	r.Strategy.Update(i)
}

// The heap strategies choose exactly what their definitions choose, on
// 30 corpora (half of them with random costs 1–4), for ω ∈ {2, 5, 9} and
// a random budget: the lazy priority queues, their stale entries and
// their re-pushed unaffordable resources never change a choice.
func TestHeapStrategiesMatchDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	runs := 0
	for corpus := 0; corpus < 30; corpus++ {
		ds, err := synth.Generate(synth.DefaultConfig(60, int64(1000+corpus)))
		if err != nil {
			t.Fatal(err)
		}
		d := FromDataset(ds, 0)
		if corpus%2 == 1 {
			d.Costs = make([]int, d.N())
			for i := range d.Costs {
				d.Costs[i] = 1 + rng.Intn(4)
			}
		}
		for _, omega := range []int{2, 5, 9} {
			budget := 1 + rng.Intn(d.MaxBudget()+50)
			naive := map[string]strategy.Strategy{"RR": naiveRR(), "FP": naiveFP(), "MU": naiveMU(), "FP-MU": &naiveFPMU{omega: omega}}
			for _, name := range []string{"RR", "FP", "MU", "FP-MU"} {
				label := fmt.Sprintf("corpus %d ω=%d B=%d %s", corpus, omega, budget, name)
				var got, want []int
				if _, err := NewState(d, omega, 1).Run(recorded{mkStrategy(name, omega), &got}, budget, nil); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if _, err := NewState(d, omega, 1).Run(recorded{naive[name], &want}, budget, nil); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d choices, the definition makes %d", label, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s: choice %d is resource %d, the definition takes %d", label, k, got[k], want[k])
					}
				}
				runs++
			}
		}
	}
	t.Logf("%d replays chose as their definitions", runs)
}
