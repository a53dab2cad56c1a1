package experiments

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"incentivetag/internal/optimal"
	"incentivetag/internal/quality"
	"incentivetag/internal/sim"
	"incentivetag/internal/strategy"
	"incentivetag/internal/synth"
)

// StrategyNames is the fixed presentation order of the paper's figures.
var StrategyNames = []string{"DP", "FP-MU", "FP", "RR", "MU", "FC"}

// ErrDPCapped marks instances too large for the DP under the scale's caps
// (the paper's DP needs >3,000 s at its full setting); consumers render
// such cells as "capped" instead of failing.
var ErrDPCapped = errors.New("DP instance exceeds scale caps")

// Context owns the generated corpus and memoizes the expensive shared
// computations (budget-sweep runs, DP solves) across experiments so that
// "run everything" does each piece of work once.
type Context struct {
	Scale Scale
	DS    *synth.Dataset
	Data  *sim.Data

	curves   []quality.Curve
	dp       *optimal.Result
	dpBudget int
	sweeps   map[string][]sim.Checkpoint
}

// NewContext generates the corpus for the given scale.
func NewContext(sc Scale) (*Context, error) {
	ds, err := synth.Generate(synth.DefaultConfig(sc.N, sc.Seed))
	if err != nil {
		return nil, err
	}
	return &Context{
		Scale:  sc,
		DS:     ds,
		Data:   sim.FromDataset(ds, 0),
		sweeps: make(map[string][]sim.Checkpoint),
	}, nil
}

// NewStrategy instantiates a fresh strategy by paper name.
func NewStrategy(name string, omega int) (strategy.Strategy, error) {
	switch name {
	case "FC":
		return strategy.NewFC(), nil
	case "RR":
		return strategy.NewRR(), nil
	case "FP":
		return strategy.NewFP(), nil
	case "MU":
		return strategy.NewMU(), nil
	case "FP-MU":
		return strategy.NewFPMU(omega), nil
	default:
		return nil, fmt.Errorf("experiments: unknown strategy %q", name)
	}
}

// budgetCheckpoints returns Steps+1 evenly spaced budgets from 0 to B.
func budgetCheckpoints(b, steps int) []int {
	if steps < 1 {
		steps = 1
	}
	out := make([]int, 0, steps+1)
	for i := 0; i <= steps; i++ {
		out = append(out, b*i/steps)
	}
	// Deduplicate tiny scales.
	out = out[:uniqueInts(out)]
	return out
}

func uniqueInts(xs []int) int {
	sort.Ints(xs)
	w := 0
	for i, x := range xs {
		if i == 0 || x != xs[w-1] {
			xs[w] = x
			w++
		}
	}
	return w
}

// Sweep runs (and memoizes) one strategy's budget sweep on the main
// corpus with the scale's default ω.
func (ctx *Context) Sweep(name string) ([]sim.Checkpoint, error) {
	if cps, ok := ctx.sweeps[name]; ok {
		return cps, nil
	}
	if name == "DP" {
		cps, err := ctx.dpSweep()
		if err != nil {
			return nil, err
		}
		ctx.sweeps[name] = cps
		return cps, nil
	}
	s, err := NewStrategy(name, ctx.Scale.Omega)
	if err != nil {
		return nil, err
	}
	st := sim.NewState(ctx.Data, ctx.Scale.Omega, ctx.Scale.Seed)
	cps, err := st.Run(s, ctx.Scale.Budget, budgetCheckpoints(ctx.Scale.Budget, ctx.Scale.Steps))
	if err != nil {
		return nil, err
	}
	ctx.sweeps[name] = cps
	return cps, nil
}

// Curves builds (once) the quality curves up to the scale's max budget.
func (ctx *Context) Curves() ([]quality.Curve, error) {
	if ctx.curves != nil {
		return ctx.curves, nil
	}
	bound := ctx.Scale.Budget
	if ctx.Scale.DPMaxBudget > bound {
		bound = ctx.Scale.DPMaxBudget
	}
	curves, err := sim.BuildCurves(ctx.Data, bound)
	if err != nil {
		return nil, err
	}
	ctx.curves = curves
	return curves, nil
}

// DP solves (once) the dynamic program at the DP budget cap.
func (ctx *Context) DP() (*optimal.Result, int, error) {
	if ctx.dp != nil {
		return ctx.dp, ctx.dpBudget, nil
	}
	curves, err := ctx.Curves()
	if err != nil {
		return nil, 0, err
	}
	b := ctx.Scale.Budget
	if b > ctx.Scale.DPMaxBudget {
		b = ctx.Scale.DPMaxBudget
	}
	if ctx.Data.N() > ctx.Scale.DPMaxN {
		return nil, 0, fmt.Errorf("experiments: DP needs n ≤ %d, corpus has %d: %w", ctx.Scale.DPMaxN, ctx.Data.N(), ErrDPCapped)
	}
	res, err := optimal.Solve(curves, b, optimal.Options{Bounded: true})
	if err != nil {
		return nil, 0, err
	}
	ctx.dp = res
	ctx.dpBudget = b
	return res, b, nil
}

// dpSweep converts the DP solve into checkpoint rows comparable with the
// strategy sweeps: quality from the DP value table, structural metrics by
// replaying the per-budget optimal assignment.
func (ctx *Context) dpSweep() ([]sim.Checkpoint, error) {
	res, bcap, err := ctx.DP()
	if err != nil {
		return nil, err
	}
	var cps []sim.Checkpoint
	start := time.Now()
	for _, b := range budgetCheckpoints(ctx.Scale.Budget, ctx.Scale.Steps) {
		if b > bcap {
			break
		}
		x, err := res.AssignmentAt(b)
		if err != nil {
			return nil, err
		}
		cp, err := sim.ApplyAssignment(ctx.Data, x)
		if err != nil {
			return nil, err
		}
		// Trust the DP value table for the objective; ApplyAssignment's
		// replayed mean quality must agree (tests assert this).
		cp.Budget = b
		cp.MeanQuality = res.MeanQualityAt(b)
		cp.Elapsed = time.Since(start)
		cps = append(cps, cp)
	}
	return cps, nil
}

// SubsetData returns replay data restricted to the first n resources.
func (ctx *Context) SubsetData(n int) *sim.Data {
	return sim.FromDataset(ctx.DS, n)
}
