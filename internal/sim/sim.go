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
// Since the engine extraction, State is a thin replay adapter over
// internal/engine: the engine owns trackers, consumed counts and the
// incrementally maintained aggregate metrics, so checkpoint snapshots
// are O(1) reads instead of O(n·|tags|) scans. RunReference retains the
// seed's full-scan snapshot path as the equivalence oracle.
//
// The January state is primed once per (Data, ω) — engine.New over the
// initial prefixes, marshalled and cached on the Data — and every
// NewState is an engine.Restore of that payload: all resources start
// cold, and a run rehydrates exactly the resources its strategy pays.
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
	// from a dataset; 0 = unknown). Serving engines use it to enable the
	// hybrid dense count representation; the replay simulator never
	// declares it (see NewState for the measurement behind that).
	TagUniverse int

	// primed caches, per ω, the January state NewState restores from.
	mu     sync.Mutex
	primed map[int]*primedState
}

// primedState is one primed engine in marshalled form — the immutable
// template every State of the same (Data, ω) aliases — with the inputs
// it was primed over, so a Data mutated since is never replayed stale.
// StableK and Costs need no entry: no payload stores them, every Restore
// takes them from the specs of the day.
type primedState struct {
	payload []byte
	under   int
	specs   []engine.ResourceSpec
}

// primedOver reports whether the template was primed over these inputs:
// per resource the same reference and the same initial prefix, by
// identity (same backing array, same length).
func (t *primedState) primedOver(under int, specs []engine.ResourceSpec) bool {
	if t.under != under || len(t.specs) != len(specs) {
		return false
	}
	for i := range specs {
		a, b := t.specs[i].Initial, specs[i].Initial
		if t.specs[i].Ref != specs[i].Ref || len(a) != len(b) || (len(a) > 0 && &a[0] != &b[0]) {
			return false
		}
	}
	return true
}

// primedPayload returns the marshalled January state for cfg, priming it
// with engine.New — the only code that primes — on the first call for
// cfg.Omega and again whenever the Data has changed underneath the cache.
func (d *Data) primedPayload(cfg engine.Config, specs []engine.ResourceSpec) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t := d.primed[cfg.Omega]; t != nil && t.primedOver(cfg.UnderThreshold, specs) {
		return t.payload, nil
	}
	eng, err := engine.New(cfg, specs)
	if err != nil {
		return nil, err
	}
	payload, err := eng.ExportState().MarshalBinary()
	if err != nil {
		return nil, err
	}
	if d.primed == nil {
		d.primed = make(map[int]*primedState)
	}
	d.primed[cfg.Omega] = &primedState{payload: payload, under: cfg.UnderThreshold, specs: specs}
	return payload, nil
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

// State is one mutable simulation run: a thin replay adapter over the
// shared engine core (internal/engine), which owns the trackers, the
// consumed counts and the incrementally maintained metrics. State adds
// the replay semantics — posts come from the recorded sequences, and a
// resource is Available only while recorded posts remain — and keeps
// the assignment vector the paper's analyses read. It implements
// strategy.Env and strategy.OrganicWeighter.
type State struct {
	data *Data
	rng  *rand.Rand
	eng  *engine.Engine
	x    core.Assignment
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

// NewState starts a fresh run from the January state. That state is
// primed once per (Data, ω) and cached in marshalled form (226 KB at
// Figure-6 scale); each call is an engine.Restore of it — the cold
// restore a serving node boots through, every validation included. All
// resources start COLD, aliasing the shared read-only payload: Count,
// MA, QualityOf and Snapshot answer from the scalars a cold resource
// retains, so MU's MA sweep and FP's count heap rehydrate nothing, and
// Step rehydrates exactly the resources a strategy pays. On replay-fig6
// (n = 2 005, B = 10 000) NewState costs 1.7 ms, where replaying every
// initial post per run cost 17.7 ms, 2–4× the run it preceded.
//
// The engine has a single shard, so aggregate summation order (and thus
// every reported float) is reproducible across machines, and map-form
// counts (TagUniverse 0): declaring the universe was measured and buys
// nothing here (278 k against 302 k ops/s) for 45 MB more live heap.
// Serving deployments (the public Service) declare it instead.
func NewState(data *Data, omega int, seed int64) *State {
	cfg := engine.Config{
		Omega:          omega,
		Shards:         1,
		UnderThreshold: data.UnderThreshold,
	}
	specs := data.EngineSpecs()
	payload, err := data.primedPayload(cfg, specs)
	var eng *engine.Engine
	if err == nil {
		eng, _, err = engine.Restore(cfg, specs, payload)
	}
	if err != nil {
		// Data.Validate catches every bad input; reaching here means the
		// caller skipped validation with corrupt vectors.
		panic(fmt.Sprintf("sim: %v", err))
	}
	return &State{
		data: data,
		rng:  rand.New(rand.NewSource(seed)),
		eng:  eng,
		x:    make(core.Assignment, data.N()),
	}
}

// Engine exposes the underlying shared engine core (read-side use:
// per-resource quality, live metric snapshots).
func (st *State) Engine() *engine.Engine { return st.eng }

// --- strategy.Env implementation ---

// N returns the number of resources.
func (st *State) N() int { return st.data.N() }

// Count returns c_i + x_i.
func (st *State) Count(i int) int { return st.eng.Count(i) }

// MA returns the resource's current MA score.
func (st *State) MA(i int) (float64, bool) { return st.eng.MA(i) }

// Available reports whether recorded future posts remain for i.
func (st *State) Available(i int) bool { return st.eng.Count(i) < len(st.data.Seqs[i]) }

// Cost returns the reward units of one post task on i, captured from
// Data.Costs at NewState (costs must be positive; Data.Validate
// enforces it).
func (st *State) Cost(i int) int { return st.eng.CostOf(i) }

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
	// computation. It includes the first-touch rehydration of each
	// resource the run pays (every State starts cold, see NewState).
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

// snapshot reads the engine's incrementally maintained metrics — O(1)
// in the resource count, where the seed recomputed an O(n·|tags|) scan
// at every checkpoint.
func (st *State) snapshot(elapsed time.Duration) Checkpoint {
	return fromMetrics(st.eng.Snapshot(), elapsed)
}

// VerifySnapshot recomputes the checkpoint by the seed's full scan —
// the O(n·|tags|) reference path retained for equivalence tests and
// the checkpoint-cost benchmarks. Production callers use the O(1)
// incremental snapshot via Run / Quality.
func (st *State) VerifySnapshot(elapsed time.Duration) Checkpoint {
	return fromMetrics(st.eng.VerifyMetrics(), elapsed)
}

// Quality returns the current mean tagging quality q(R, ·).
func (st *State) Quality() float64 { return st.eng.Snapshot().MeanQuality }

// SnapshotRFDs clones every resource's current rfd counts — the input of
// the similarity case studies (§V-C).
func (st *State) SnapshotRFDs() []*sparse.Counts { return st.eng.SnapshotRFDs() }

// Assignment returns a copy of the tasks allocated so far.
func (st *State) Assignment() core.Assignment { return st.x.Clone() }

// Spent returns the budget consumed so far.
func (st *State) Spent() int { return st.eng.Spent() }

// Step allocates one post task to resource i, replaying its next recorded
// post. It returns an error if the resource is exhausted.
func (st *State) Step(i int) error {
	if i < 0 || i >= st.data.N() {
		return fmt.Errorf("sim: resource index %d out of range", i)
	}
	if !st.Available(i) {
		return fmt.Errorf("sim: resource %d has no replayable posts left", i)
	}
	if err := st.eng.Ingest(i, st.data.Seqs[i][st.eng.Count(i)]); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	st.x[i]++
	return nil
}

// Run drives Algorithm 1: repeatedly CHOOSE a resource, complete one post
// task on it via replay, and UPDATE the strategy, until the budget is
// exhausted or the strategy has nothing to allocate. Snapshots are taken
// whenever spent budget crosses one of the ascending checkpoint values
// (checkpoints == nil records only the final state). Each snapshot is an
// O(1) read of the engine's incremental metrics.
func (st *State) Run(s strategy.Strategy, budget int, checkpoints []int) ([]Checkpoint, error) {
	return st.run(s, budget, checkpoints, st.snapshot)
}

// RunReference is Run with every snapshot recomputed by the seed's full
// O(n·|tags|) scan instead of the incremental metrics. It exists as the
// equivalence oracle: for a fixed seed it must produce the same
// checkpoints as Run (bit-identical integer metrics and per-resource
// qualities; mean quality up to float reassociation of the n-term sum).
// The whole state is rehydrated first: the oracle scans live vectors at
// every checkpoint and shares nothing with the frozen-record read path.
func (st *State) RunReference(s strategy.Strategy, budget int, checkpoints []int) ([]Checkpoint, error) {
	for i := 0; i < st.data.N(); i++ {
		if err := st.eng.EnsureResident(i); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	return st.run(s, budget, checkpoints, st.VerifySnapshot)
}

func (st *State) run(s strategy.Strategy, budget int, checkpoints []int, snap func(time.Duration) Checkpoint) ([]Checkpoint, error) {
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

	s.Init(st)
	for spent < budget {
		i, ok := s.Choose(budget - spent)
		if !ok {
			break // nothing allocatable: replay exhausted or unaffordable
		}
		if err := st.Step(i); err != nil {
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
	scratch := sparse.NewHybridCounts(data.TagUniverse)
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

// BuildCurves precomputes every resource's quality curve up to
// budgetBound extra posts — the DP's input (and the simulator's oracle
// for objective evaluation).
func BuildCurves(data *Data, budgetBound int) ([]quality.Curve, error) {
	curves := make([]quality.Curve, data.N())
	for i := range curves {
		c, err := quality.BuildCurve(data.Seqs[i], data.Initial[i], budgetBound, data.Refs[i])
		if err != nil {
			return nil, fmt.Errorf("sim: resource %d: %w", i, err)
		}
		curves[i] = c
	}
	return curves, nil
}
