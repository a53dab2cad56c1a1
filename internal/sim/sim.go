// Package sim implements the paper's evaluation protocol (§V-A) as a
// deterministic replay simulation:
//
//   - each resource's recorded post sequence is split into an initial
//     prefix ("posts given in January 2007", the c vector) and a future
//     suffix;
//   - when a strategy allocates a post task to a resource, the task's
//     result is the resource's next unconsumed recorded post;
//   - strategies observe only the past (counts and MA scores), while the
//     offline DP may read whole sequences through the quality curves.
//
// The simulator doubles as the strategy.Env implementation and collects
// the metric series behind Figures 6(a)–(h): mean tagging quality,
// over-tagged resource counts, wasted post tasks, under-tagged
// percentages, and wall-clock runtime.
//
// A resource's state after k posts depends on k alone, so each
// (Data, ω) is tabulated once into a tape (tape.go), and a run is the
// strategy plus reads of it. Checkpoints are O(1) reads, bit-identical
// to a single-shard engine run's; RunReference checks them against a hot
// engine and the seed's full scan.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"incentivetag/internal/core"
	"incentivetag/internal/engine"
	"incentivetag/internal/quality"
	"incentivetag/internal/sparse"
	"incentivetag/internal/stats"
	"incentivetag/internal/strategy"
	"incentivetag/internal/synth"
	"incentivetag/internal/tags"
)

// Data is the immutable replay input shared by all runs.
type Data struct {
	// Seqs[i] is resource i's full recorded post sequence.
	Seqs []tags.Seq
	// Initial[i] is c_i, the prefix length already tagged at start.
	Initial []int
	// StableK[i] is the resource's stable point k*_i (posts at or beyond
	// it are "wasted" per §V-B.2).
	StableK []int
	// Refs[i] is the stable rfd reference used by the quality metric.
	Refs []*quality.Reference
	// Costs is the optional per-task cost vector (nil = unit costs).
	Costs []int
	// UnderThreshold is the under-tagged post-count threshold (paper: 10).
	UnderThreshold int
	// TagUniverse is the tag-universe bound |T| (Vocab.Size() when built
	// from a dataset; 0 = unknown). Serving engines record it in their
	// snapshots; it selects no count representation.
	TagUniverse int

	// tape caches the replay table of the last ω NewState or Curves
	// asked for (see tapeFor).
	mu   sync.Mutex
	tape *tape
}

// FromDataset adapts a synthetic dataset (optionally restricted to the
// first n resources; n ≤ 0 means all).
func FromDataset(ds *synth.Dataset, n int) *Data {
	total := ds.N()
	if n <= 0 || n > total {
		n = total
	}
	d := &Data{
		Seqs:           make([]tags.Seq, n),
		Initial:        make([]int, n),
		StableK:        make([]int, n),
		Refs:           make([]*quality.Reference, n),
		UnderThreshold: ds.Cfg.UnderTaggedThreshold,
		TagUniverse:    ds.Vocab.Size(),
	}
	for i := 0; i < n; i++ {
		r := &ds.Resources[i]
		d.Seqs[i] = r.Seq
		d.Initial[i] = r.Initial
		d.StableK[i] = r.StableK
		d.Refs[i] = quality.NewReference(r.StableRFD)
	}
	return d
}

// N returns the number of resources.
func (d *Data) N() int { return len(d.Seqs) }

// Validate checks internal consistency.
func (d *Data) Validate() error {
	n := len(d.Seqs)
	if len(d.Initial) != n || len(d.StableK) != n || len(d.Refs) != n {
		return fmt.Errorf("sim: inconsistent data vectors")
	}
	if d.Costs != nil {
		if len(d.Costs) != n {
			return fmt.Errorf("sim: %d costs for %d resources", len(d.Costs), n)
		}
		for i, c := range d.Costs {
			if c <= 0 {
				return fmt.Errorf("sim: resource %d has non-positive cost %d", i, c)
			}
		}
	}
	for i := 0; i < n; i++ {
		if d.Initial[i] < 0 || d.Initial[i] > len(d.Seqs[i]) {
			return fmt.Errorf("sim: resource %d initial %d outside [0,%d]", i, d.Initial[i], len(d.Seqs[i]))
		}
		if d.StableK[i] <= 0 || d.StableK[i] > len(d.Seqs[i]) {
			return fmt.Errorf("sim: resource %d stable point %d outside (0,%d]", i, d.StableK[i], len(d.Seqs[i]))
		}
		if d.Refs[i] == nil {
			return fmt.Errorf("sim: resource %d missing stable rfd reference", i)
		}
	}
	return nil
}

// MaxBudget returns the total number of replayable future posts — the
// largest budget any strategy can actually spend.
func (d *Data) MaxBudget() int {
	total := 0
	for i := range d.Seqs {
		total += len(d.Seqs[i]) - d.Initial[i]
	}
	return total
}

// State is one mutable simulation run over its Data's tape: the
// assignment vector the paper's analyses read, and the aggregates kept
// as the single-shard engine keeps them. A resource is Available only
// while recorded posts remain. It implements strategy.Env and
// strategy.OrganicWeighter.
type State struct {
	data *Data
	tape *tape
	rng  *rand.Rand
	x    core.Assignment

	qsum, qcomp                float64
	over, under, wasted, spent int

	// eng is the engine twin Engine builds on its first call.
	eng *engine.Engine
}

// EngineSpecs maps the replay data onto engine resource declarations:
// initial prefix, stable reference, stable point and task cost per
// resource. Both the simulator and the public Service build their
// engines through this single translation.
func (d *Data) EngineSpecs() []engine.ResourceSpec {
	specs := make([]engine.ResourceSpec, d.N())
	for i := range specs {
		specs[i] = engine.ResourceSpec{
			Initial: d.Seqs[i][:d.Initial[i]],
			Ref:     d.Refs[i],
			StableK: d.StableK[i],
		}
		if d.Costs != nil {
			specs[i].Cost = d.Costs[i]
		}
	}
	return specs
}

// NewState starts a fresh run from the January state over the Data's
// tape for omega, built on the first call (see tapeFor). A call then
// costs the cache check, an assignment vector and one pass over the
// day's stable points and costs.
func NewState(data *Data, omega int, seed int64) *State {
	tp, err := data.tapeFor(omega)
	if err != nil {
		// Data.Validate catches every bad input; reaching here means the
		// caller skipped validation with corrupt vectors.
		panic(fmt.Sprintf("sim: %v", err))
	}
	st := &State{
		data:  data,
		tape:  tp,
		rng:   rand.New(rand.NewSource(seed)),
		x:     make(core.Assignment, data.N()),
		qsum:  tp.qsum,
		qcomp: tp.qcomp,
	}
	for i, k := range data.Initial {
		if data.StableK[i] < 0 || (data.Costs != nil && data.Costs[i] < 0) {
			panic(fmt.Sprintf("sim: resource %d: negative stable point or cost", i))
		}
		if sk := data.StableK[i]; sk > 0 && k >= sk {
			st.over++
		}
		if u := data.UnderThreshold; u >= 0 && k <= u {
			st.under++
		}
	}
	return st
}

// Engine returns the run's engine twin: a hot single-shard engine
// primed by engine.New, fed the posts the run has paid so far, and from
// then on every post a step pays. It is built on the first call.
func (st *State) Engine() *engine.Engine {
	if st.eng != nil {
		return st.eng
	}
	eng, err := engine.New(engine.Config{Omega: st.tape.omega, Shards: 1, UnderThreshold: st.data.UnderThreshold}, st.data.EngineSpecs())
	for i, xi := range st.x {
		c := st.data.Initial[i]
		for k := c; k < c+xi && err == nil; k++ {
			err = eng.Ingest(i, st.data.Seqs[i][k])
		}
	}
	if err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	st.eng = eng
	return eng
}

// --- strategy.Env implementation ---

// N returns the number of resources.
func (st *State) N() int { return st.data.N() }

// Count returns c_i + x_i, read from the run's own assignment.
func (st *State) Count(i int) int { return st.data.Initial[i] + st.x[i] }

// MA returns the resource's current MA score, read off the tape.
func (st *State) MA(i int) (float64, bool) {
	if st.Count(i) < st.tape.omega {
		return 0, false
	}
	return st.tape.ma[st.tape.off[i]+st.x[i]], true
}

// Available reports whether recorded future posts remain for i.
func (st *State) Available(i int) bool { return st.Count(i) < len(st.data.Seqs[i]) }

// Cost returns the reward units of one post task on i: Data.Costs[i],
// or 1 under unit costs (costs must be positive; Data.Validate enforces
// it).
func (st *State) Cost(i int) int {
	if st.data.Costs == nil {
		return 1
	}
	return max(st.data.Costs[i], 1)
}

// Rand returns the run's deterministic RNG.
func (st *State) Rand() *rand.Rand { return st.rng }

// OrganicWeight is the resource's organic future post volume at run start
// (free-choice popularity).
func (st *State) OrganicWeight(i int) float64 {
	return float64(len(st.data.Seqs[i]) - st.data.Initial[i])
}

// --- metrics ---

// Checkpoint is a metric snapshot at a given spent budget.
type Checkpoint struct {
	Budget      int
	MeanQuality float64
	OverTagged  int
	UnderTagged int
	// UnderTaggedPct = UnderTagged / n.
	UnderTaggedPct float64
	// WastedPosts counts post tasks allocated to resources already at or
	// past their stable point when the task ran.
	WastedPosts int
	// Elapsed is cumulative strategy+replay wall time, excluding metric
	// computation: selection plus tape reads (the tape is built in
	// NewState).
	Elapsed time.Duration
}

// fromMetrics maps an engine aggregate snapshot onto a Checkpoint.
func fromMetrics(m engine.Metrics, elapsed time.Duration) Checkpoint {
	return Checkpoint{
		Budget:         m.Spent,
		MeanQuality:    m.MeanQuality,
		OverTagged:     m.OverTagged,
		UnderTagged:    m.UnderTagged,
		UnderTaggedPct: m.UnderTaggedPct,
		WastedPosts:    m.WastedPosts,
		Elapsed:        elapsed,
	}
}

// snapshot reads the run's aggregates: O(1) in the resource count,
// where the seed recomputed an O(n·|tags|) scan at every checkpoint.
// It divides as engine.Snapshot does, so the two agree bit for bit.
func (st *State) snapshot(elapsed time.Duration) Checkpoint {
	cp := Checkpoint{Budget: st.spent, OverTagged: st.over, UnderTagged: st.under, WastedPosts: st.wasted, Elapsed: elapsed}
	if n := st.N(); n > 0 {
		cp.MeanQuality = (st.qsum + st.qcomp) / float64(n)
		cp.UnderTaggedPct = float64(st.under) / float64(n)
	}
	return cp
}

// Quality returns the current mean tagging quality q(R, ·).
func (st *State) Quality() float64 { return st.snapshot(0).MeanQuality }

// SnapshotRFDs rebuilds every resource's current rfd counts from the
// assignment — the input of the similarity case studies (§V-C).
func (st *State) SnapshotRFDs() []*sparse.Counts {
	out := make([]*sparse.Counts, st.N())
	for i := range out {
		out[i] = sparse.FromSeq(st.data.Seqs[i], st.Count(i))
	}
	return out
}

// Assignment returns a copy of the tasks allocated so far.
func (st *State) Assignment() core.Assignment { return st.x.Clone() }

// Spent returns the budget consumed so far.
func (st *State) Spent() int { return st.spent }

// step allocates one post task to resource i, replaying its next recorded
// post with the engine's accounting: the tape's quality delta goes into
// the compensated sum, the flags follow from the count. It returns an
// error if the resource is exhausted.
func (st *State) step(i int) error {
	if i < 0 || i >= st.N() {
		return fmt.Errorf("sim: resource index %d out of range", i)
	}
	if !st.Available(i) {
		return fmt.Errorf("sim: resource %d has no replayable posts left", i)
	}
	k := st.Count(i)
	if st.eng != nil {
		if err := st.eng.Ingest(i, st.data.Seqs[i][k]); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	sk := st.data.StableK[i]
	if sk > 0 && k >= sk { // wasted: the task ran at or past the stable point
		st.wasted++
	}
	row := st.tape.q[st.tape.off[i]+st.x[i]:]
	st.qsum, st.qcomp = stats.NeumaierAdd(st.qsum, st.qcomp, row[1]-row[0])
	st.x[i]++
	if k+1 == sk {
		st.over++
	}
	if u := st.data.UnderThreshold; u >= 0 && k == u {
		st.under--
	}
	st.spent += st.Cost(i)
	return nil
}

// Run drives Algorithm 1: repeatedly CHOOSE a resource, complete one post
// task on it via replay, and UPDATE the strategy, until the budget is
// exhausted or the strategy has nothing to allocate. Snapshots are taken
// whenever spent budget crosses one of the ascending checkpoint values
// (checkpoints == nil records only the final state). Each snapshot is an
// O(1) read of the run's aggregates.
func (st *State) Run(s strategy.Strategy, budget int, checkpoints []int) ([]Checkpoint, error) {
	return st.run(st, s, budget, checkpoints, st.snapshot)
}

// RunReference is Run checked by an independent oracle: the engine twin
// (Engine), primed hot by engine.New. The strategy reads counts, MA
// scores and costs from that engine through an engine.View, and every
// checkpoint is its VerifyMetrics, the seed's full O(n·|tags|) scan.
// For a fixed seed it must produce the checkpoints Run does:
// bit-identical integer metrics and per-resource qualities, and mean
// quality up to float reassociation of the n-term sum.
func (st *State) RunReference(s strategy.Strategy, budget int, checkpoints []int) ([]Checkpoint, error) {
	eng := st.Engine()
	return st.run(st.engineEnv(), s, budget, checkpoints, func(elapsed time.Duration) Checkpoint {
		return fromMetrics(eng.VerifyMetrics(), elapsed)
	})
}

// engineEnv is the Env over the engine twin: counts, MA scores and
// costs from the engine, availability from the engine's counts, and the
// State's organic weights and RNG.
func (st *State) engineEnv() strategy.Env {
	eng := st.Engine()
	return struct {
		*engine.View
		strategy.OrganicWeighter
	}{&engine.View{Eng: eng, Rng: st.rng, AvailableFn: func(i int) bool { return eng.Count(i) < len(st.data.Seqs[i]) }}, st}
}

func (st *State) run(env strategy.Env, s strategy.Strategy, budget int, checkpoints []int, snap func(time.Duration) Checkpoint) ([]Checkpoint, error) {
	if budget < 0 {
		return nil, fmt.Errorf("sim: negative budget %d", budget)
	}
	var out []Checkpoint
	var metricTime time.Duration
	start := time.Now()

	next := 0
	record := func() {
		ms := time.Now()
		out = append(out, snap(time.Since(start)-metricTime))
		metricTime += time.Since(ms)
	}
	// A checkpoint at 0 captures the initial state before any task.
	spent := st.Spent()
	for next < len(checkpoints) && checkpoints[next] <= spent {
		record()
		next++
	}

	s.Init(env)
	for spent < budget {
		i, ok := s.Choose(budget - spent)
		if !ok {
			break // nothing allocatable: replay exhausted or unaffordable
		}
		if err := st.step(i); err != nil {
			return nil, fmt.Errorf("sim: strategy %s chose invalid resource: %w", s.Name(), err)
		}
		s.Update(i)
		spent = st.Spent()
		for next < len(checkpoints) && spent >= checkpoints[next] {
			record()
			next++
		}
	}
	if len(out) == 0 || out[len(out)-1].Budget != spent {
		record()
	}
	return out, nil
}

// ApplyAssignment computes checkpoint-style metrics for a precomputed
// assignment (the DP path) without running a strategy: it replays x_i
// posts into each resource. Quality values should normally be taken from
// the DP's Values array; this helper supplies the structural metrics
// (over-/under-tagged, wasted posts).
func ApplyAssignment(data *Data, x core.Assignment) (Checkpoint, error) {
	if len(x) != data.N() {
		return Checkpoint{}, fmt.Errorf("sim: assignment length %d != n %d", len(x), data.N())
	}
	n := data.N()
	cp := Checkpoint{}
	for i := 0; i < n; i++ {
		if x[i] < 0 {
			return Checkpoint{}, fmt.Errorf("sim: negative allocation x_%d = %d", i, x[i])
		}
		avail := len(data.Seqs[i]) - data.Initial[i]
		if x[i] > avail {
			return Checkpoint{}, fmt.Errorf("sim: x_%d = %d exceeds %d replayable posts", i, x[i], avail)
		}
		final := data.Initial[i] + x[i]
		cost := 1
		if data.Costs != nil {
			cost = data.Costs[i]
		}
		cp.Budget += x[i] * cost
		if final >= data.StableK[i] {
			cp.OverTagged++
		}
		if final <= data.UnderThreshold {
			cp.UnderTagged++
		}
		// Tasks run while the resource was at or past its stable point.
		if wastedStart := data.StableK[i]; final > wastedStart {
			from := data.Initial[i]
			if from < wastedStart {
				from = wastedStart
			}
			cp.WastedPosts += final - from
		}
	}
	cp.UnderTaggedPct = float64(cp.UnderTagged) / float64(n)
	// Mean quality by direct replay of the final counts. One scratch
	// count vector is reused across resources (Reset keeps its backing
	// storage), so the oracle path no longer rebuilds a tracker and a
	// fresh map per resource; the counts — and hence every cosine — are
	// bit-identical to a fresh replay.
	var qsum float64
	scratch := sparse.NewCounts()
	for i := 0; i < n; i++ {
		scratch.Reset()
		for k := 0; k < data.Initial[i]+x[i]; k++ {
			scratch.Add(data.Seqs[i][k])
		}
		qsum += data.Refs[i].Of(scratch)
	}
	cp.MeanQuality = qsum / float64(n)
	return cp, nil
}
