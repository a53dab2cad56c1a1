package incentivetag

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"incentivetag/internal/admit"
	"incentivetag/internal/alloc"
	"incentivetag/internal/core"
	"incentivetag/internal/crowd"
	"incentivetag/internal/engine"
	"incentivetag/internal/experiments"
	"incentivetag/internal/ir"
	"incentivetag/internal/optimal"
	"incentivetag/internal/quality"
	"incentivetag/internal/sim"
	"incentivetag/internal/sparse"
	"incentivetag/internal/stability"
	"incentivetag/internal/stats"
	"incentivetag/internal/strategy"
	"incentivetag/internal/synth"
	"incentivetag/internal/tags"
	"incentivetag/internal/tagstore"
	"incentivetag/internal/taxonomy"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Tag is an interned tag identifier.
	Tag = tags.Tag
	// Vocab interns tag names.
	Vocab = tags.Vocab
	// Post is a set of tags assigned in one tagging operation.
	Post = tags.Post
	// Seq is a resource's time-ordered post sequence.
	Seq = tags.Seq

	// Counts is a sparse tag-count vector whose normalization is an rfd.
	Counts = sparse.Counts
	// Tracker maintains a resource's rfd and MA stability score online.
	Tracker = stability.Tracker
	// StablePointResult reports a practically-stable rfd search.
	StablePointResult = stability.StablePointResult

	// Reference is a stable rfd used as the quality yardstick.
	Reference = quality.Reference
	// Curve is a replayed quality curve x ↦ q(c+x).
	Curve = quality.Curve

	// Problem is the incentive-based tagging optimization problem P(B,R).
	Problem = core.Problem
	// Assignment is a post-task allocation x.
	Assignment = core.Assignment

	// Strategy is an online incentive allocation policy.
	Strategy = strategy.Strategy
	// Env is the observable tagging-system state a Strategy sees.
	Env = strategy.Env

	// Config controls synthetic corpus generation.
	Config = synth.Config
	// Dataset is a generated (or loaded) corpus.
	Dataset = synth.Dataset
	// Resource is one corpus resource.
	Resource = synth.Resource
	// DriftSpec declares a case-study resource with early-topic drift.
	DriftSpec = synth.DriftSpec
	// DatasetStats is the corpus census of §I / §V-A.
	DatasetStats = synth.DatasetStats

	// Taxonomy is the category tree ground truth.
	Taxonomy = taxonomy.Tree

	// SimilarityIndex answers top-k and pair-similarity queries over rfd
	// snapshots.
	SimilarityIndex = ir.Index
	// Scored is a ranked similarity answer.
	Scored = ir.Scored
	// Pair is an unordered resource pair.
	Pair = ir.Pair

	// Checkpoint is a metric snapshot of a simulation run.
	Checkpoint = sim.Checkpoint

	// Metrics is the live tagging engine's O(1) aggregate snapshot.
	Metrics = engine.Metrics

	// Scale sizes an experiment suite run.
	Scale = experiments.Scale
	// Experiment is one registered paper artifact reproduction.
	Experiment = experiments.Experiment
)

// NewVocab returns an empty tag vocabulary.
func NewVocab() *Vocab { return tags.NewVocab() }

// NewPost builds a post from tag ids, deduplicating and sorting.
func NewPost(ts ...Tag) (Post, error) { return tags.NewPost(ts...) }

// ParsePost interns names into v and builds a post.
func ParsePost(v *Vocab, names ...string) (Post, error) { return tags.ParsePost(v, names...) }

// NewTracker returns an MA-score tracker with window ω ≥ 2 (Definition 7).
func NewTracker(omega int) *Tracker { return stability.NewTracker(omega) }

// StablePoint scans a post sequence for its practically-stable rfd
// φ̂(ω, τ) (Definition 8).
func StablePoint(seq Seq, omega int, tau float64) StablePointResult {
	return stability.StablePoint(seq, omega, tau)
}

// NewReference wraps a stable rfd as a quality yardstick (Definition 9).
func NewReference(stable *Counts) *Reference { return quality.NewReference(stable) }

// SetQuality averages per-resource qualities (Definition 10).
func SetQuality(perResource []float64) float64 { return quality.SetQuality(perResource) }

// DefaultConfig returns the calibrated generator configuration for n
// resources under the given seed.
func DefaultConfig(n int, seed int64) Config { return synth.DefaultConfig(n, seed) }

// Generate builds a deterministic synthetic corpus.
func Generate(cfg Config) (*Dataset, error) { return synth.Generate(cfg) }

// SaveDataset persists a corpus (tagstore post log + metadata) under dir.
func SaveDataset(ds *Dataset, dir string) error { return ds.Save(dir) }

// LoadDataset reads a corpus persisted by SaveDataset.
func LoadDataset(dir string) (*Dataset, error) { return synth.Load(dir) }

// StrategyNames lists the implemented online strategies plus "DP".
func StrategyNames() []string { return append([]string(nil), experiments.StrategyNames...) }

// NewStrategy instantiates an online strategy by its paper name: "FC",
// "RR", "FP", "MU" or "FP-MU" (omega is the MA window for MU/FP-MU).
func NewStrategy(name string, omega int) (Strategy, error) {
	return experiments.NewStrategy(name, omega)
}

// Options tune a Simulation.
type Options struct {
	// Omega is the MA window ω for trackers and MU/FP-MU (default 5, the
	// paper's experimental default).
	Omega int
	// Seed drives stochastic strategies (FC). Default 1.
	Seed int64
	// Resources restricts the simulation to the first n corpus resources
	// (0 = all).
	Resources int
}

// Simulation replays the paper's evaluation protocol over a corpus.
type Simulation struct {
	ds   *Dataset
	data *sim.Data
	opts Options
}

// NewSimulation prepares a replay simulation over ds.
func NewSimulation(ds *Dataset, opts Options) *Simulation {
	if opts.Omega == 0 {
		opts.Omega = 5
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return &Simulation{ds: ds, data: sim.FromDataset(ds, opts.Resources), opts: opts}
}

// MaxBudget returns the largest spendable budget (total replayable posts).
func (s *Simulation) MaxBudget() int { return s.data.MaxBudget() }

// Result summarizes one strategy run.
type Result struct {
	Strategy       string
	Budget         int
	Spent          int
	InitialQuality float64
	FinalQuality   float64
	Assignment     Assignment
	Checkpoints    []Checkpoint
}

// Run executes one named strategy with the given budget and no
// intermediate checkpoints.
func (s *Simulation) Run(name string, budget int) (*Result, error) {
	return s.RunCheckpoints(name, budget, nil)
}

// RunCheckpoints executes one named strategy, snapshotting metrics at the
// given ascending spent-budget values.
func (s *Simulation) RunCheckpoints(name string, budget int, checkpoints []int) (*Result, error) {
	strat, err := NewStrategy(name, s.opts.Omega)
	if err != nil {
		return nil, err
	}
	st := sim.NewState(s.data, s.opts.Omega, s.opts.Seed)
	initial := st.Quality()
	cps, err := st.Run(strat, budget, checkpoints)
	if err != nil {
		return nil, err
	}
	return &Result{
		Strategy:       name,
		Budget:         budget,
		Spent:          st.Spent(),
		InitialQuality: initial,
		FinalQuality:   st.Quality(),
		Assignment:     st.Assignment(),
		Checkpoints:    cps,
	}, nil
}

// RunCustom executes a caller-supplied Strategy implementation — the
// extension point for new allocation policies.
func (s *Simulation) RunCustom(strat Strategy, budget int) (*Result, error) {
	st := sim.NewState(s.data, s.opts.Omega, s.opts.Seed)
	initial := st.Quality()
	cps, err := st.Run(strat, budget, nil)
	if err != nil {
		return nil, err
	}
	return &Result{
		Strategy:       strat.Name(),
		Budget:         budget,
		Spent:          st.Spent(),
		InitialQuality: initial,
		FinalQuality:   st.Quality(),
		Assignment:     st.Assignment(),
		Checkpoints:    cps,
	}, nil
}

// SolveOptimal runs the offline DP (Section III-D) for the budget and
// returns the optimal assignment with its mean quality. The DP costs
// O(n·B²); keep instances moderate.
func (s *Simulation) SolveOptimal(budget int) (Assignment, float64, error) {
	curves, err := sim.BuildCurves(s.data, budget)
	if err != nil {
		return nil, 0, err
	}
	res, err := optimal.Solve(curves, budget, optimal.Options{Bounded: true})
	if err != nil {
		return nil, 0, err
	}
	x, err := res.AssignmentAt(budget)
	if err != nil {
		return nil, 0, err
	}
	return x, res.MeanQualityAt(budget), nil
}

// SolveGreedy runs the offline marginal-gain oracle: near-optimal on
// tagging workloads (quality curves are mostly concave) at
// O((n+B) log n) instead of the DP's O(n·B²). Returns the assignment and
// its mean quality.
func (s *Simulation) SolveGreedy(budget int) (Assignment, float64, error) {
	curves, err := sim.BuildCurvesParallel(s.data, budget)
	if err != nil {
		return nil, 0, err
	}
	x, total, err := optimal.SolveGreedy(curves, budget, s.data.Costs)
	if err != nil {
		return nil, 0, err
	}
	return x, total / float64(s.data.N()), nil
}

// SetCosts installs a per-resource task cost vector (the paper's
// variable-cost future-work extension). nil restores unit costs.
func (s *Simulation) SetCosts(costs []int) error {
	if costs != nil && len(costs) != s.data.N() {
		return fmt.Errorf("incentivetag: %d costs for %d resources", len(costs), s.data.N())
	}
	s.data.Costs = costs
	return nil
}

// InvertedTopK is a tag-postings-accelerated top-k similarity index,
// exact but touching only resources that share tags with the subject.
type InvertedTopK = ir.InvertedIndex

// NewInvertedTopK builds the accelerated index over an rfd snapshot set
// (e.g. SimilarityIndex.RFDs()).
func NewInvertedTopK(rfds []*Counts) *InvertedTopK { return ir.BuildInverted(rfds) }

// SnapshotAfter runs a strategy and returns the resulting rfd snapshots
// as a similarity index (the case-study workflow of §V-C).
func (s *Simulation) SnapshotAfter(name string, budget int) (*SimilarityIndex, error) {
	strat, err := NewStrategy(name, s.opts.Omega)
	if err != nil {
		return nil, err
	}
	st := sim.NewState(s.data, s.opts.Omega, s.opts.Seed)
	if _, err := st.Run(strat, budget, nil); err != nil {
		return nil, err
	}
	return ir.NewIndex(st.SnapshotRFDs()), nil
}

// SnapshotInitial returns the "Jan 31" similarity index (initial posts
// only); SnapshotFull returns the ideal "Dec 31" index (every recorded
// post).
func (s *Simulation) SnapshotInitial() *SimilarityIndex {
	rfds := make([]*Counts, s.data.N())
	for i := range rfds {
		rfds[i] = sparse.FromSeq(s.data.Seqs[i], s.data.Initial[i])
	}
	return ir.NewIndex(rfds)
}

// SnapshotFull returns the ideal index built from complete sequences.
func (s *Simulation) SnapshotFull() *SimilarityIndex {
	rfds := make([]*Counts, s.data.N())
	for i := range rfds {
		rfds[i] = sparse.FromSeq(s.data.Seqs[i], len(s.data.Seqs[i]))
	}
	return ir.NewIndex(rfds)
}

// NewSimilarityIndex wraps rfd snapshots for top-k and ranking queries.
func NewSimilarityIndex(rfds []*Counts) *SimilarityIndex { return ir.NewIndex(rfds) }

// SamplePairs draws m distinct resource pairs for ranking evaluation.
func SamplePairs(n, m int, seed int64) []Pair { return ir.SamplePairs(n, m, seed) }

// GroundTruthSimilarities evaluates taxonomy ground truth on pairs.
func GroundTruthSimilarities(ds *Dataset, pairs []Pair) []float64 {
	leaves := make([]taxonomy.NodeID, len(ds.Resources))
	for i := range ds.Resources {
		leaves[i] = ds.Resources[i].Leaf
	}
	return ir.GroundTruth(ds.Tax, leaves, pairs)
}

// RankingAccuracy is Kendall's τ between tag-derived and ground-truth
// pair similarities (Figure 7's accuracy measure).
func RankingAccuracy(simVals, truthVals []float64) (float64, error) {
	return ir.RankingAccuracy(simVals, truthVals)
}

// Pearson computes the correlation of Equation 15.
func Pearson(xs, ys []float64) (float64, error) { return stats.Pearson(xs, ys) }

// KendallTau computes Kendall's τ-b rank correlation in O(n log n).
func KendallTau(xs, ys []float64) (float64, error) { return stats.KendallTau(xs, ys) }

// QuickScale and PaperScale size the experiment suite.
func QuickScale() Scale { return experiments.Quick() }

// PaperScale returns the paper's n=5000 / B=10000 configuration.
func PaperScale() Scale { return experiments.Paper() }

// TinyScale returns a minimal configuration for smoke tests.
func TinyScale() Scale { return experiments.Tiny() }

// Experiments lists every registered paper artifact.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment reproduces one paper artifact by id (e.g. "fig6a",
// "table6") at the given scale, writing its table to w.
func RunExperiment(id string, sc Scale, w io.Writer) error {
	e, err := experiments.Lookup(id)
	if err != nil {
		return err
	}
	ctx, err := experiments.NewContext(sc)
	if err != nil {
		return err
	}
	return e.Run(ctx, w)
}

// RunAllExperiments reproduces every registered artifact at the given
// scale against one shared corpus.
func RunAllExperiments(sc Scale, w io.Writer) error {
	ctx, err := experiments.NewContext(sc)
	if err != nil {
		return err
	}
	return experiments.RunAll(ctx, w)
}

// ServiceOptions configure a live tagging Service.
type ServiceOptions struct {
	// Omega is the MA window ω for trackers and MU/FP-MU (default 5).
	Omega int
	// Shards is the engine shard count (default engine.DefaultShards);
	// ingest throughput scales with shards across cores.
	Shards int
	// Strategy names the allocation policy behind Lease: "RR", "FP",
	// "MU" or "FP-MU" (default "FP-MU"). "FC" is rejected: Free Choice
	// models organic tagger behaviour over the recorded replay stream,
	// which a live service receives through Ingest instead of
	// allocating.
	Strategy string
	// Seed drives stochastic strategies (default 1).
	Seed int64
	// WALDir, when non-empty, opens the durable state directory: a
	// segmented append-only post log plus engine snapshots. Every
	// ingested post is group-committed to the log before it mutates
	// engine state, and NewService RECOVERS from the directory — newest
	// valid snapshot first, then the log tail — so a restarted service
	// resumes bit-identical to the last acknowledged post. The directory
	// is bound to one dataset and one set of engine options; reopening it
	// with a different corpus fails loudly rather than silently
	// diverging.
	WALDir string
	// SnapshotInterval is the background snapshotter's time policy: with
	// a WALDir configured, a snapshot is written (and the covered log
	// segments compacted away) whenever this much time has passed since
	// the last one. 0 means DefaultSnapshotInterval; negative disables
	// the background snapshotter (Close still writes a final snapshot).
	SnapshotInterval time.Duration
	// SnapshotEvery additionally triggers a snapshot once this many log
	// records have accumulated since the last one (0 disables the
	// record-count policy).
	SnapshotEvery int
	// KeepSnapshots is how many snapshot files to retain after a new one
	// lands (default 2: the newest plus one fallback).
	KeepSnapshots int
	// Resources restricts the service to the first n corpus resources
	// (0 = all).
	Resources int
	// Owned, when non-nil, marks this service as one node of a sharded
	// cluster: it admits exactly the resources this node owns under the
	// cluster's placement ring. The incentive allocator is masked to
	// owned resources (a node never hands out a task whose completion
	// would land a live post on a resource another node owns), and the
	// cluster query surface (SubjectTopK/TopKWeighted/SearchOwned) scores
	// only owned resources. Ingest is NOT filtered here — the HTTP layer
	// rejects misdirected posts loudly instead (421) so a routing bug
	// can never silently split a resource's live state across nodes.
	// The shard map is static, so NewService evaluates Owned once per
	// resource and never calls it again.
	Owned func(resource int) bool
	// MaxResidentResources caps how many resources the memory-tiering
	// policy keeps hot (tracker and count vector materialized on the
	// heap); the rest are frozen into compact varint records and
	// rehydrated on touch. 0 means unbounded. Setting either residency
	// budget enables tiering: a background policy loop evicts the
	// least-recently-touched resources back inside the budget, and the
	// query index mirrors each eviction by freezing the matching forward
	// vector (posting lists stay live so pruned queries bound and skip
	// cold resources without rehydrating them). The budget does NOT
	// choose how a durable service boots: recovery always maps the newest
	// snapshot and starts every resource cold, aliasing its record inside
	// the mapping. Without a budget nothing is ever evicted, so a
	// restarted node converges to all-resident as traffic touches each
	// resource; with one, the policy holds it inside the budget. Every
	// answer on every path is bit-identical either way; only memory and
	// latency profiles change.
	MaxResidentResources int
	// MaxResidentBytes caps the estimated heap held by hot resources
	// (count vectors, MA rings, trackers). 0 means unbounded.
	MaxResidentBytes int64
	// TierInterval is the background tiering loop's cadence (default
	// DefaultTierInterval). Negative disables the background loop;
	// TierNow still runs the policy on demand.
	TierInterval time.Duration
}

// DefaultSnapshotInterval is the background snapshotter's default time
// policy.
const DefaultSnapshotInterval = time.Minute

// DefaultTierInterval is the background tiering loop's default cadence.
const DefaultTierInterval = 2 * time.Second

// LeaseID names one outstanding incentivized post-task assignment.
type LeaseID = alloc.LeaseID

// AllocatorStats is a census of the allocator's lease lifecycle.
type AllocatorStats = alloc.Stats

// Service is the live-serving facade over the sharded tagging engine:
// the production-shaped counterpart of Simulation. Posts stream in
// through Ingest from any number of goroutines; the incentive
// allocation loop of Algorithm 1 runs against the live state through
// leases (Lease/Fulfill/Expire) so any number of workers can hold
// outstanding post tasks simultaneously; Quality and Snapshot read the
// incrementally maintained metrics in O(1) regardless of corpus size.
//
// Every method is safe for arbitrary concurrency: ingest scales across
// engine shards, while strategy state is serialized inside the lease
// allocator (internal/alloc). A single worker that fulfills every lease
// before taking the next reproduces Algorithm 1's sequential loop
// decision for decision.
type Service struct {
	eng    *engine.Engine
	wal    *tagstore.Store
	alloc  *alloc.Allocator
	walDir string
	keep   int

	// idx is the live query index: an incrementally-maintained inverted
	// index fed by the engine's ingest-delta subscriber hook, seeded from
	// the (possibly recovered) engine state at construction. TopK and
	// Search read it without ever rescanning or cloning the corpus.
	idx *ir.OnlineIndex

	// cache memoizes TopK answers per (subject, k), versioned by the
	// index epoch: any ingest bumps the epoch and expires every entry,
	// so a hit is always bit-identical to re-running the query.
	cache *resultCache

	// owned is the cluster-membership set, one entry per resource,
	// materialised from ServiceOptions.Owned at boot (nil outside a
	// cluster: every resource is local). Immutable afterwards, so every
	// reader — the allocator mask, the ingest ownership check, the query
	// kernels — pays one load instead of a ring hash.
	owned []bool

	recovery RecoveryStats // boot-time recovery facts, immutable

	// Snapshot machinery. snapMu serializes snapshot/compaction cycles
	// (the background snapshotter, /admin/snapshot and Close can race);
	// lastSnapSeq is guarded by it.
	snapMu      sync.Mutex
	lastSnapSeq uint64
	snapsTaken  atomic.Int64
	segsDropped atomic.Int64

	stopSnap chan struct{}
	snapWG   sync.WaitGroup

	// Residency machinery. mapped is the snapshot mapping recovery
	// aliased its frozen records out of (nil when no snapshot was
	// loaded); it must outlive the engine, so Close releases it last.
	// rehydrateHist collects per-rehydration latencies from the engine's
	// observer hook (lock-free; it runs under shard locks). tiered, the
	// budgets and the tier loop are zero when no residency budget is
	// configured.
	tiered           bool
	maxResident      int
	maxResidentBytes int64
	rehydrateHist    *admit.Histogram
	mapped           *tagstore.MappedSnapshot
	stopTier         chan struct{}
	tierWG           sync.WaitGroup
}

// RecoveryStats reports what NewService did to rebuild state from a
// durable WALDir, plus the live snapshotter counters.
type RecoveryStats struct {
	// Recovered is true when the WALDir held prior state (a snapshot or
	// log records) that was restored.
	Recovered bool `json:"recovered"`
	// SnapshotLoaded is true when a snapshot seeded the engine;
	// SnapshotSeq is the log sequence number it covered.
	SnapshotLoaded bool   `json:"snapshot_loaded"`
	SnapshotSeq    uint64 `json:"snapshot_seq"`
	// SnapshotsSkipped counts damaged snapshot files passed over on the
	// way to the newest valid one.
	SnapshotsSkipped int `json:"snapshots_skipped"`
	// ReplayedRecords is the number of log-tail records replayed on top
	// of the snapshot (the whole log when none was loaded); ReplayBytes
	// the log bytes read to do it.
	ReplayedRecords int   `json:"replayed_records"`
	ReplayBytes     int64 `json:"replay_bytes"`
	// RecoveredPosts is the total number of live (non-primed) posts in
	// the rebuilt engine — snapshot-carried plus replayed.
	RecoveredPosts int `json:"recovered_posts"`
	// ReplayMillis is the wall-clock recovery time (snapshot decode +
	// tail replay).
	ReplayMillis int64 `json:"replay_ms"`
	// SnapshotsTaken / SegmentsCompacted are cumulative since boot.
	SnapshotsTaken    int `json:"snapshots_taken"`
	SegmentsCompacted int `json:"segments_compacted"`
}

// NewService builds a live tagging service over a corpus: each
// resource is primed with its initial post prefix and measured against
// its stable reference rfd, exactly as a deployment bootstrapped from a
// historical tagging log would be.
//
// With a non-empty WALDir the service is durable: if the directory
// already holds state, NewService first RECOVERS — it maps the newest
// valid snapshot (falling back over damaged ones) and indexes it cold,
// replays the log tail past it (rehydrating the resources it touches),
// and only then starts serving, yielding an engine that is
// bit-identical to the one that last acknowledged a post there. A
// background snapshotter then keeps recovery cheap: on the configured
// interval/record policy it exports engine state, durably writes a
// snapshot, drops the log segments the snapshot covers and prunes old
// snapshots. Close flushes a final snapshot.
func NewService(ds *Dataset, opts ServiceOptions) (*Service, error) {
	if opts.Omega == 0 {
		opts.Omega = 5
	}
	if opts.Strategy == "" {
		opts.Strategy = "FP-MU"
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.SnapshotInterval == 0 {
		opts.SnapshotInterval = DefaultSnapshotInterval
	}
	if opts.KeepSnapshots == 0 {
		opts.KeepSnapshots = 2
	}
	if opts.Strategy == "FC" {
		return nil, fmt.Errorf("incentivetag: FC models organic tagger choice over the recorded replay; a live Service receives organic traffic through Ingest — pick RR, FP, MU or FP-MU for Lease")
	}
	data := sim.FromDataset(ds, opts.Resources)
	if err := data.Validate(); err != nil {
		return nil, err
	}
	engCfg := engine.Config{
		Omega:          opts.Omega,
		Shards:         opts.Shards,
		UnderThreshold: data.UnderThreshold,
		TagUniverse:    data.TagUniverse,
	}
	tiered := opts.MaxResidentResources > 0 || opts.MaxResidentBytes > 0
	// Any restarted durable service rehydrates (recovery indexes the
	// snapshot cold), budget or not, so the latency profile is always on.
	hist := admit.NewHistogram()
	engCfg.RehydrateObserver = func(nanos int64) { hist.Observe(time.Duration(nanos)) }
	var wal *tagstore.Store
	if opts.WALDir != "" {
		var err error
		wal, err = tagstore.Open(opts.WALDir, tagstore.Options{})
		if err != nil {
			return nil, err
		}
		engCfg.WAL = wal
	}
	eng, rec, mapped, err := buildEngine(engCfg, data, wal, opts.WALDir)
	if err != nil {
		if wal != nil {
			wal.Close()
		}
		return nil, err
	}
	strat, err := NewStrategy(opts.Strategy, opts.Omega)
	if err != nil {
		mapped.Close()
		if wal != nil {
			wal.Close()
		}
		return nil, err
	}
	// In a cluster, the allocator must only ever CHOOSE owned resources:
	// completing a lease ingests the worker's post on THIS node, and the
	// partition invariant — every live post lives on its resource's
	// owner — is what makes scatter-gather queries exact.
	env := strategy.Env(engine.NewView(eng, opts.Seed))
	var owned []bool
	if opts.Owned != nil {
		owned = make([]bool, eng.N())
		for i := range owned {
			owned[i] = opts.Owned(i)
		}
		env = strategy.Masked(env, func(i int) bool { return owned[i] })
	}
	s := &Service{
		eng:              eng,
		wal:              wal,
		alloc:            alloc.New(strat, env, eng),
		walDir:           opts.WALDir,
		keep:             opts.KeepSnapshots,
		recovery:         rec,
		lastSnapSeq:      rec.SnapshotSeq,
		owned:            owned,
		tiered:           tiered,
		maxResident:      opts.MaxResidentResources,
		maxResidentBytes: opts.MaxResidentBytes,
		rehydrateHist:    hist,
		mapped:           mapped,
	}
	// Seed the live query index from the engine state — which, on the
	// durable path, is the recovered state (snapshot + WAL tail already
	// replayed), so a post-crash server answers queries identically to
	// the one that crashed — then attach the delta subscriber before any
	// traffic can flow. This one-time seed is the only corpus scan the
	// query path ever performs. A budgeted service seeds frozen: each
	// resource's support streams straight from the engine (live vector or
	// frozen record, residency unchanged) into a compressed forward
	// vector, so boot never materializes the corpus just to answer
	// queries — subjects thaw as traffic touches them. An unbudgeted one
	// seeds live forward vectors (SnapshotRFDs decodes cold records
	// transiently, engine residency unchanged).
	if tiered {
		s.idx = ir.NewOnlineIndexFrozen(eng.N(), eng.Shards(), data.TagUniverse, eng.ForEachEntry)
	} else {
		s.idx = ir.NewOnlineIndex(eng.SnapshotRFDs(), eng.Shards())
	}
	eng.Subscribe(s.idx)
	s.cache = newResultCache(0)
	if wal != nil && opts.SnapshotInterval > 0 {
		s.stopSnap = make(chan struct{})
		s.snapWG.Add(1)
		go s.snapshotter(opts.SnapshotInterval, opts.SnapshotEvery)
	}
	if tiered && opts.TierInterval >= 0 {
		interval := opts.TierInterval
		if interval == 0 {
			interval = DefaultTierInterval
		}
		s.stopTier = make(chan struct{})
		s.tierWG.Add(1)
		go s.tierLoop(interval)
	}
	return s, nil
}

// buildEngine constructs the serving engine, recovering durable state
// when the WAL directory already holds any. Every divergence between
// the directory and the corpus/options is a loud error: recovery either
// reproduces the pre-crash engine exactly or refuses to serve.
//
// There is one restore path: the newest valid snapshot file is mmap'd,
// engine.Restore indexes it COLD — each resource's frozen record aliases
// its byte span inside the mapping and only scalars are computed during
// one streaming validation pass — and the WAL tail past the snapshot is
// replayed on top, rehydrating exactly the resources it touches. The
// returned mapping (nil when no snapshot was loaded) must stay open as
// long as the engine lives; Service.Close releases it.
func buildEngine(cfg engine.Config, data *sim.Data, wal *tagstore.Store, walDir string) (*engine.Engine, RecoveryStats, *tagstore.MappedSnapshot, error) {
	var rec RecoveryStats
	if wal == nil {
		eng, err := engine.New(cfg, data.EngineSpecs())
		return eng, rec, nil, err
	}
	start := time.Now()
	mapped, ok, skipped, err := tagstore.MapLatestSnapshot(walDir)
	if err != nil {
		return nil, rec, nil, err
	}
	rec.SnapshotsSkipped = skipped
	var eng *engine.Engine
	if ok {
		var stateSeq uint64
		eng, stateSeq, err = engine.Restore(cfg, data.EngineSpecs(), mapped.Payload)
		if err == nil && stateSeq != mapped.LastSeq {
			err = fmt.Errorf("snapshot file covers seq %d but its state says %d", mapped.LastSeq, stateSeq)
		}
		if err == nil && stateSeq > wal.LastSeq() {
			err = fmt.Errorf("snapshot covers seq %d but the log ends at %d — log truncated behind the snapshot", stateSeq, wal.LastSeq())
		}
		if err == nil && wal.FirstSeq() > stateSeq+1 {
			err = fmt.Errorf("log starts at seq %d, leaving a gap after snapshot seq %d", wal.FirstSeq(), stateSeq)
		}
		if err != nil {
			mapped.Close()
			return nil, rec, nil, fmt.Errorf("incentivetag: recovering %s: %w", walDir, err)
		}
		rec.SnapshotLoaded = true
		rec.SnapshotSeq = mapped.LastSeq
	} else {
		if wal.LastSeq() > 0 && wal.FirstSeq() > 1 {
			return nil, rec, nil, fmt.Errorf("incentivetag: recovering %s: log starts at seq %d with no usable snapshot — compacted records are unrecoverable", walDir, wal.FirstSeq())
		}
		if eng, err = engine.New(cfg, data.EngineSpecs()); err != nil {
			return nil, rec, nil, err
		}
	}
	n := eng.N()
	bytes, err := wal.ScanFrom(rec.SnapshotSeq+1, func(seq uint64, rid uint32, p Post) error {
		if int64(rid) >= int64(n) {
			return fmt.Errorf("incentivetag: recovering %s: log record seq %d targets resource %d outside the corpus (n=%d) — the directory belongs to a different dataset", walDir, seq, rid, n)
		}
		rec.ReplayedRecords++
		return eng.Replay(int(rid), p)
	})
	if err != nil {
		mapped.Close()
		return nil, rec, nil, err
	}
	rec.ReplayBytes = bytes
	rec.RecoveredPosts = eng.Snapshot().Posts
	rec.ReplayMillis = time.Since(start).Milliseconds()
	rec.Recovered = rec.SnapshotLoaded || rec.ReplayedRecords > 0
	return eng, rec, mapped, nil
}

// N returns the number of resources served.
func (s *Service) N() int { return s.eng.N() }

// Ingest records one live post for a resource, updating its rfd, MA
// score and every aggregate metric in O(|post|). Safe for concurrent
// use; posts for resources on different shards proceed in parallel.
func (s *Service) Ingest(resource int, p Post) error {
	return s.eng.Ingest(resource, p)
}

// PostEvent is one element of a cross-resource ingest batch.
type PostEvent = engine.PostEvent

// ErrResourceRange and ErrEmptyPost are wrapped by every ingest error
// that is the caller's mistake — a resource index outside [0, N) or a
// post with no tags; any other ingest error (a WAL write failure, a
// failed rehydration) is the service's. Test with errors.Is.
var (
	ErrResourceRange = engine.ErrResourceRange
	ErrEmptyPost     = engine.ErrEmptyPost
)

// IngestBatch records a batch of posts for one resource under a single
// shard-lock acquisition and one group-committed WAL write. The
// resulting state is bit-identical to ingesting the posts one at a time;
// throughput is substantially higher (see bench/README.md).
func (s *Service) IngestBatch(resource int, posts []Post) error {
	return s.eng.IngestBatch(resource, posts)
}

// IngestMany records a batch of posts spanning arbitrary resources,
// taking each involved shard's lock once and group-committing each
// shard's WAL records with one write. Per resource, events apply in
// slice order. Safe for concurrent use alongside Ingest and the
// allocation loop.
func (s *Service) IngestMany(events []PostEvent) error {
	return s.eng.IngestMany(events)
}

// Lease asks the configured strategy which resource the next
// incentivized post task should target, given the remaining reward
// budget, and hands out a lease on it (Algorithm 1's CHOOSE, decoupled
// from its completion). ok is false when nothing is allocatable. The
// resource is hidden from further Leases until this one settles via
// Fulfill or Expire, so any number of workers can hold tasks
// concurrently without ever being handed the same resource twice.
func (s *Service) Lease(remaining int) (resource int, lease LeaseID, ok bool) {
	return s.alloc.Lease(remaining)
}

// Fulfill settles a lease with the post its worker produced: the post
// is ingested (WAL-first when durability is configured) and the
// strategy runs Algorithm 1's UPDATE. Fulfilling an unknown, already
// fulfilled, or expired lease returns an error without touching any
// state. The strategy is notified even when the ingest itself fails
// (e.g. a WAL write error), so a failed completion re-arms the resource
// instead of permanently removing it.
func (s *Service) Fulfill(lease LeaseID, p Post) error {
	return s.alloc.Fulfill(lease, p)
}

// Expire settles a lease without a post — the worker abandoned the
// task. The resource is re-armed for future allocation; no post is
// ingested and no budget is consumed.
func (s *Service) Expire(lease LeaseID) error {
	return s.alloc.Expire(lease)
}

// OutstandingLeases returns the number of unsettled leases.
func (s *Service) OutstandingLeases() int { return s.alloc.Outstanding() }

// LeaseResource returns the resource an outstanding lease targets; ok
// is false for unknown or settled leases.
func (s *Service) LeaseResource(lease LeaseID) (resource int, ok bool) {
	return s.alloc.Resource(lease)
}

// AllocStats reports the lease lifecycle counters (issued, outstanding,
// fulfilled, expired).
func (s *Service) AllocStats() AllocatorStats { return s.alloc.StatsSnapshot() }

// Count returns the number of posts a resource has received.
func (s *Service) Count(resource int) int { return s.eng.Count(resource) }

// CostOf returns the reward units one post task on the resource
// consumes (1 unless the variable-cost extension is active).
func (s *Service) CostOf(resource int) int { return s.eng.CostOf(resource) }

// Quality returns the current mean tagging quality q(R, ·) — an O(1)
// read of the engine's incremental aggregates.
func (s *Service) Quality() float64 { return s.eng.Snapshot().MeanQuality }

// Snapshot returns the full aggregate metric snapshot in O(shards).
func (s *Service) Snapshot() Metrics { return s.eng.Snapshot() }

// SnapshotRFDs clones every resource's current rfd counts for the
// similarity case-study layer (NewSimilarityIndex).
func (s *Service) SnapshotRFDs() []*Counts { return s.eng.SnapshotRFDs() }

// QueryStats is a census of the live query index (epoch, posting-list
// shape, queries served).
type QueryStats = ir.OnlineStats

// AdmissionConfig configures the HTTP front-end's overload control:
// Rate/Burst token-bucket the crowd's bulk ingest (shed with 429 +
// Retry-After when the bucket runs dry), MaxInFlight bounds total
// serving concurrency, and Queue/QueueWait give interactive requests a
// small bounded wait for a slot before they too are shed. The zero
// value admits everything. Limits are per process — a fleet behind a
// load balancer multiplies them by the replica count.
type AdmissionConfig = admit.Config

// AdmissionStats is the admission controller's census: per-class
// outcome counters (admitted/shed/timed-out) plus the live in-flight
// and queue-depth gauges, as also exported via GET /metrics/prom.
type AdmissionStats = admit.Stats

// TopK answers the top-k similar-resource query (§V-C.1) from the live
// online index: no snapshot clone, no index rebuild — the posting lists
// are maintained incrementally by the ingest paths (Ingest/IngestBatch/
// IngestMany and lease fulfillment alike). The result is an
// epoch-versioned consistent view: bit-identical to rebuilding the
// inverted index from SnapshotRFDs at the returned epoch. Safe for
// arbitrary concurrent use alongside ingest.
//
// Hot subjects are served from an epoch-keyed result cache: a hit
// requires the cached entry's epoch to equal the index's current epoch,
// so any intervening post expires it and a cached answer is always
// bit-identical to re-running the query. Hit/miss counters surface in
// QueryStats and GET /info.
func (s *Service) TopK(subject, k int) ([]Scored, uint64, error) {
	if n := s.eng.N(); subject < 0 || subject >= n {
		return nil, 0, fmt.Errorf("incentivetag: resource index %d out of range [0,%d)", subject, n)
	}
	if k <= 0 {
		return nil, 0, fmt.Errorf("incentivetag: k must be positive, got %d", k)
	}
	cur := s.idx.Epoch()
	if res, ok := s.cache.get(subject, k, cur); ok {
		return res, cur, nil
	}
	res, epoch := s.idx.TopK(subject, k)
	s.cache.put(subject, k, epoch, res)
	return res, epoch, nil
}

// Search ranks resources by cosine similarity between the query tag set
// and every live rfd — the paper's query-by-tag-set retrieval. Only
// resources sharing at least one query tag score above zero, so the
// result holds at most min(k, matches) entries, best first. Like TopK
// it reads the online index under an epoch-versioned consistent view.
func (s *Service) Search(query Post, k int) ([]Scored, uint64, error) {
	if len(query) == 0 {
		return nil, 0, fmt.Errorf("incentivetag: empty search query")
	}
	if k <= 0 {
		return nil, 0, fmt.Errorf("incentivetag: k must be positive, got %d", k)
	}
	res, epoch := s.idx.Search(query, k)
	return res, epoch, nil
}

// WeightedTag is one (tag, count) component of an integer-weighted
// query vector — the wire form of a resource's rfd in cluster
// scatter-gather queries.
type WeightedTag = ir.WeightedTag

// OwnsResource reports whether this service owns the resource under its
// cluster placement (always true outside a cluster). An id outside the
// corpus belongs to no other node either, so it passes here and fails
// the range check of whatever operation follows — a bad id is a 400 on
// every node, never a misdirection.
func (s *Service) OwnsResource(resource int) bool {
	return s.owned == nil || resource < 0 || resource >= len(s.owned) || s.owned[resource]
}

// SubjectTopK is the owner node's leg of a cluster /topk. Under one
// epoch-consistent view it exports the subject's live count vector
// (ascending tag order) with its exact squared norm — the query a
// gateway ships to every other node as a TopKWeighted call — and ranks
// this node's OWNED resources against it, subject excluded. Integer
// counts and norms transfer exactly through JSON float64s, which is
// what keeps the distributed scores bit-identical.
func (s *Service) SubjectTopK(subject, k int) (query []WeightedTag, qNorm2 float64, top []Scored, epoch uint64, err error) {
	if n := s.eng.N(); subject < 0 || subject >= n {
		return nil, 0, nil, 0, fmt.Errorf("incentivetag: resource index %d out of range [0,%d)", subject, n)
	}
	if k <= 0 {
		return nil, 0, nil, 0, fmt.Errorf("incentivetag: k must be positive, got %d", k)
	}
	query, qNorm2, top, epoch = s.idx.SubjectTopK(subject, k, s.owned)
	return query, qNorm2, top, epoch, nil
}

// TopKWeighted ranks this node's OWNED resources against an explicit
// integer-weighted query vector (a subject's counts as its owner node's
// SubjectTopK exported them), excluding resource `exclude` (negative =
// none).
// Per-node answers merged under the (score desc, id asc) comparator are
// bit-identical to a single-node TopK over the union state — see
// internal/ir/cluster.go for the exactness argument.
func (s *Service) TopKWeighted(query []WeightedTag, qNorm2 float64, exclude, k int) ([]Scored, uint64, error) {
	if k <= 0 {
		return nil, 0, fmt.Errorf("incentivetag: k must be positive, got %d", k)
	}
	if qNorm2 < 0 {
		return nil, 0, fmt.Errorf("incentivetag: negative query norm %g", qNorm2)
	}
	for _, wt := range query {
		// An rfd holds positive counts only, and the pruned executor's
		// score bounds scale with the weights: a non-positive one from
		// the wire would turn an upper bound into a lower one.
		if wt.Count <= 0 {
			return nil, 0, fmt.Errorf("incentivetag: query tag %d has non-positive count %d", wt.Tag, wt.Count)
		}
	}
	res, epoch := s.idx.TopKWeighted(query, qNorm2, exclude, k, s.owned)
	return res, epoch, nil
}

// SearchOwned is Search restricted to this node's owned resources — the
// node-side half of a scatter-gather /search.
func (s *Service) SearchOwned(query Post, k int) ([]Scored, uint64, error) {
	if len(query) == 0 {
		return nil, 0, fmt.Errorf("incentivetag: empty search query")
	}
	if k <= 0 {
		return nil, 0, fmt.Errorf("incentivetag: k must be positive, got %d", k)
	}
	res, epoch := s.idx.SearchOwned(query, k, s.owned)
	return res, epoch, nil
}

// QueryStats reports the live query index census plus the Service
// result-cache counters.
func (s *Service) QueryStats() QueryStats {
	st := s.idx.Stats()
	st.CacheHits, st.CacheMisses, st.CacheEntries = s.cache.stats()
	return st
}

// RecoveryStats reports the boot-time recovery facts plus the live
// snapshotter counters.
func (s *Service) RecoveryStats() RecoveryStats {
	rec := s.recovery
	rec.SnapshotsTaken = int(s.snapsTaken.Load())
	rec.SegmentsCompacted = int(s.segsDropped.Load())
	return rec
}

// SnapshotResult describes one snapshot/compaction cycle.
type SnapshotResult struct {
	// Skipped is true when no log records landed since the last
	// snapshot, so nothing was written.
	Skipped bool `json:"skipped"`
	// LastSeq is the log sequence number the snapshot covers.
	LastSeq uint64 `json:"last_seq"`
	// Bytes is the snapshot payload size.
	Bytes int `json:"bytes"`
	// SegmentsDropped is how many covered log segments compaction
	// reclaimed.
	SegmentsDropped int `json:"segments_dropped"`
	// Millis is the wall-clock cost of the cycle.
	Millis int64 `json:"millis"`
}

// SnapshotNow synchronously runs one snapshot/compaction cycle: export
// a consistent engine state cut, durably write it as a snapshot, drop
// the log segments it covers, and prune old snapshots. Safe to call
// while the service ingests; concurrent cycles are serialized. Returns
// an error when the service has no WALDir.
func (s *Service) SnapshotNow() (SnapshotResult, error) {
	if s.wal == nil {
		return SnapshotResult{}, fmt.Errorf("incentivetag: service has no WAL configured")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	t0 := time.Now()
	st := s.eng.ExportState()
	if st.LastSeq == s.lastSnapSeq {
		return SnapshotResult{Skipped: true, LastSeq: st.LastSeq}, nil
	}
	payload, err := st.MarshalBinary()
	if err != nil {
		return SnapshotResult{}, err
	}
	if _, err := tagstore.WriteSnapshot(s.walDir, st.LastSeq, payload); err != nil {
		return SnapshotResult{}, err
	}
	res := SnapshotResult{LastSeq: st.LastSeq, Bytes: len(payload)}
	// Prune damaged snapshots plus valid ones beyond the retention
	// count, then compact only through the OLDEST retained VALID
	// snapshot — not the one just written: the segments between retained
	// snapshots are what make the fallback usable if the newest file is
	// ever damaged. (With KeepSnapshots 1 the two sequences coincide.)
	_, compactSeq, ok, err := tagstore.PruneSnapshots(s.walDir, s.keep)
	if err != nil {
		return SnapshotResult{}, err
	}
	if !ok {
		compactSeq = st.LastSeq // unreachable: the snapshot just written is valid
	}
	if err := s.eng.WithWAL(func(w *tagstore.Store) error {
		n, err := w.DropThrough(compactSeq)
		res.SegmentsDropped = n
		return err
	}); err != nil {
		return SnapshotResult{}, err
	}
	s.lastSnapSeq = st.LastSeq
	s.snapsTaken.Add(1)
	s.segsDropped.Add(int64(res.SegmentsDropped))
	res.Millis = time.Since(t0).Milliseconds()
	return res, nil
}

// snapshotter is the background snapshot loop: a snapshot is due when
// the interval has elapsed, or earlier once every records have been
// appended since the last one (records 0 disables the count policy).
func (s *Service) snapshotter(interval time.Duration, records int) {
	defer s.snapWG.Done()
	poll := interval
	if records > 0 && poll > 250*time.Millisecond {
		poll = 250 * time.Millisecond
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	last := time.Now()
	for {
		select {
		case <-s.stopSnap:
			return
		case <-tick.C:
		}
		due := time.Since(last) >= interval
		if !due && records > 0 {
			var pending uint64
			s.eng.WithWAL(func(w *tagstore.Store) error {
				pending = w.LastSeq()
				return nil
			})
			s.snapMu.Lock()
			due = pending >= s.lastSnapSeq+uint64(records)
			s.snapMu.Unlock()
		}
		if !due {
			continue
		}
		// Best effort: a failing snapshot (e.g. disk full) must not kill
		// the serving loop; the interval clock only advances on success,
		// so the next tick retries, and Close still surfaces its own
		// error.
		if _, err := s.SnapshotNow(); err == nil {
			last = time.Now()
		}
	}
}

// TierStats is the combined residency census across the engine tier
// (trackers and count vectors) and the query-index tier (forward
// vectors; posting lists stay live either way), plus the rehydrate
// latency profile. Counters are monotone since boot and partition-clean:
// a cluster's per-node values sum meaningfully.
type TierStats struct {
	// Enabled reports whether a residency budget is configured: TierNow
	// and the background loop only run when it is. The counters below are
	// live either way — recovery starts every resource cold regardless of
	// budget, so an unbudgeted node restarted from a snapshot reports
	// Cold > 0 and counts rehydrations until traffic has touched every
	// resource (it never evicts, so Cold only falls). A node that never
	// loaded a snapshot reads zero-cold.
	Enabled bool `json:"enabled"`
	// MaxResident and MaxResidentBytes echo the configured budgets
	// (0 = unbounded).
	MaxResident      int   `json:"max_resident"`
	MaxResidentBytes int64 `json:"max_resident_bytes"`
	// Engine tier: Resident and Cold partition the corpus; Evictions and
	// Rehydrations count hot→cold / cold→hot transitions; ResidentBytes
	// estimates the heap hot resources hold.
	Resident      int    `json:"resident_resources"`
	Cold          int    `json:"cold_resources"`
	Evictions     uint64 `json:"evictions"`
	Rehydrations  uint64 `json:"rehydrations"`
	ResidentBytes int64  `json:"resident_bytes"`
	// Index tier: cold forward vectors and the bytes their frozen blobs
	// hold, with the matching transition counters.
	IndexColdVecs     int64  `json:"index_cold_vecs"`
	IndexFrozenBytes  int64  `json:"index_frozen_bytes"`
	IndexEvictions    uint64 `json:"index_evictions"`
	IndexRehydrations uint64 `json:"index_rehydrations"`
	// Rehydrate latency: sample count and upper-bound p50/p99 in seconds
	// from the engine's per-rehydration observer (zero before the first
	// rehydration).
	RehydrateCount uint64  `json:"rehydrate_count"`
	RehydrateP50   float64 `json:"rehydrate_p50_seconds"`
	RehydrateP99   float64 `json:"rehydrate_p99_seconds"`
}

// Residency reports the hot/cold residency census. It scans shard
// residency under each shard lock in turn — sized for metrics scrapes
// and policy inspection, not hot paths.
func (s *Service) Residency() TierStats {
	est := s.eng.Residency()
	qst := s.idx.Stats()
	return TierStats{
		Enabled:           s.tiered,
		MaxResident:       s.maxResident,
		MaxResidentBytes:  s.maxResidentBytes,
		Resident:          est.Resident,
		Cold:              est.Cold,
		Evictions:         est.Evictions,
		Rehydrations:      est.Rehydrations,
		ResidentBytes:     est.ResidentBytes,
		IndexColdVecs:     qst.ColdVecs,
		IndexFrozenBytes:  qst.FrozenBytes,
		IndexEvictions:    qst.VecEvictions,
		IndexRehydrations: qst.VecRehydrations,
		RehydrateCount:    s.rehydrateHist.Count(),
		RehydrateP50:      s.rehydrateHist.Quantile(0.50),
		RehydrateP99:      s.rehydrateHist.Quantile(0.99),
	}
}

// TierNow synchronously runs one tiering policy pass: the engine evicts
// its least-recently-touched hot resources back inside the residency
// budget, and the query index mirrors each eviction by freezing the
// matching forward vector. Returns how many resources froze. Eviction
// never changes observable state — every read and query before and
// after is bit-identical — so running it concurrently with traffic is
// safe; a resource touched mid-pass is simply left hot. Errors when no
// residency budget is configured.
func (s *Service) TierNow() (evicted int, err error) {
	if !s.tiered {
		return 0, fmt.Errorf("incentivetag: service has no residency budget configured")
	}
	ids, err := s.eng.EvictToBudget(s.maxResident, s.maxResidentBytes)
	if len(ids) > 0 {
		s.idx.Evict(ids)
	}
	return len(ids), err
}

// tierLoop is the background tiering policy: every interval, bring the
// engine back inside its residency budget. Failures are left for the
// next tick — eviction is pure housekeeping and must never kill the
// serving loop.
func (s *Service) tierLoop(interval time.Duration) {
	defer s.tierWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopTier:
			return
		case <-tick.C:
			s.TierNow()
		}
	}
}

// Close stops the background snapshotter and tiering loop, writes a
// final snapshot (when a WAL is configured and new records landed),
// flushes and releases the log, and finally unmaps the snapshot recovery
// booted from — cold resources read their frozen records out of that
// mapping, so it must outlive every engine read, and the Service must
// not be used after Close.
func (s *Service) Close() error {
	if s.stopSnap != nil {
		close(s.stopSnap)
		s.snapWG.Wait()
		s.stopSnap = nil
	}
	if s.stopTier != nil {
		close(s.stopTier)
		s.tierWG.Wait()
		s.stopTier = nil
	}
	var err error
	if s.wal != nil {
		_, snapErr := s.SnapshotNow()
		err = s.wal.Close()
		s.wal = nil
		if err == nil {
			err = snapErr
		}
	}
	if s.mapped != nil {
		if cerr := s.mapped.Close(); err == nil {
			err = cerr
		}
		s.mapped = nil
	}
	return err
}

// Worker is one simulated crowd participant (Figure 2's "Internet
// crowds"), optionally restricted to top-level interest categories — the
// paper's user-preference future-work extension.
type Worker = crowd.Worker

// UniformWorkers builds a deterministic worker pool over the dataset's
// taxonomy; pInterest is the fraction of category-specialist workers.
func UniformWorkers(ds *Dataset, n int, pInterest float64, seed int64) []Worker {
	return crowd.UniformWorkers(n, ds.Tax, pInterest, seed)
}

// NewPreferenceFC returns a Free Choice strategy whose tagger model is a
// preference-constrained worker pool instead of pure popularity: workers
// only accept resources in their interest categories.
func NewPreferenceFC(ds *Dataset, workers []Worker) Strategy {
	leaves := make([]taxonomy.NodeID, len(ds.Resources))
	for i := range ds.Resources {
		leaves[i] = ds.Resources[i].Leaf
	}
	return strategy.NewFC(&crowd.PreferencePicker{Workers: workers, Leaves: leaves, Tax: ds.Tax})
}

// Ledger tracks reward payouts per worker (step 4 of Figure 2).
type Ledger = crowd.Ledger

// NewLedger returns an empty reward ledger.
func NewLedger() *Ledger { return crowd.NewLedger() }

// Validate sanity-checks a dataset for simulation use.
func Validate(ds *Dataset) error {
	if ds == nil || ds.N() == 0 {
		return fmt.Errorf("incentivetag: empty dataset")
	}
	return sim.FromDataset(ds, 0).Validate()
}
