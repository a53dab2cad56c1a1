package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner executes one experiment against a shared context, writing its
// table(s) to w.
type Runner func(ctx *Context, w io.Writer) error

// Experiment is a registered, named experiment.
type Experiment struct {
	ID    string
	Title string
	Run   Runner
}

// registry lists every reproducible artifact in presentation order.
var registry = []Experiment{
	{"stats", "Dataset census (§I / §V-A)", statsCensus},
	{"fig1a", "Figure 1(a): tag relative frequencies vs posts", fig1a},
	{"fig1b", "Figure 1(b): posts distribution", fig1b},
	{"fig3", "Figure 3: MA score and stable rfd", fig3},
	{"fig5", "Figure 5: quality vs number of posts", fig5},
	{"fig6a", "Figure 6(a): quality vs budget", fig6a},
	{"fig6b", "Figure 6(b): over-tagged resources", fig6b},
	{"fig6c", "Figure 6(c): wasted posts vs budget", fig6c},
	{"fig6d", "Figure 6(d): under-tagged resources", fig6d},
	{"fig6e", "Figure 6(e): quality vs number of resources", fig6e},
	{"fig6f", "Figure 6(f): effect of ω", fig6f},
	{"fig6g", "Figure 6(g): runtime vs budget", fig6g},
	{"fig6h", "Figure 6(h): runtime vs number of resources", fig6h},
	{"table6", "Table VI: top-10 of the physics case study", table6},
	{"table7", "Table VII: more top-10 compositions", table7},
	{"fig7a", "Figure 7(a): ranking accuracy vs budget", fig7a},
	{"fig7b", "Figure 7(b): accuracy vs tagging quality", fig7b},
}

// All returns every experiment in presentation order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ids returns the sorted experiment ids.
func ids() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, ids())
}

// RunAll executes every registered experiment against one shared context.
func RunAll(ctx *Context, w io.Writer) error {
	for _, e := range registry {
		if err := e.Run(ctx, w); err != nil {
			return fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
	}
	return nil
}
