package incentivetag

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"incentivetag/internal/admit"
	"incentivetag/internal/alloc"
	"incentivetag/internal/core"
	"incentivetag/internal/engine"
	"incentivetag/internal/experiments"
	"incentivetag/internal/ir"
	"incentivetag/internal/optimal"
	"incentivetag/internal/quality"
	"incentivetag/internal/sim"
	"incentivetag/internal/sparse"
	"incentivetag/internal/stability"
	"incentivetag/internal/strategy"
	"incentivetag/internal/synth"
	"incentivetag/internal/tags"
	"incentivetag/internal/tagstore"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Tag is an interned tag identifier.
	Tag = tags.Tag
	// Post is a set of tags assigned in one tagging operation.
	Post = tags.Post

	// Counts is a sparse tag-count vector whose normalization is an rfd.
	Counts = sparse.Counts
	// Tracker maintains a resource's rfd and MA stability score online.
	Tracker = stability.Tracker

	// Reference is a stable rfd used as the quality yardstick.
	Reference = quality.Reference

	// Assignment is a post-task allocation x.
	Assignment = core.Assignment

	// Strategy is an online incentive allocation policy.
	Strategy = strategy.Strategy

	// Config controls synthetic corpus generation.
	Config = synth.Config
	// Dataset is a generated (or loaded) corpus.
	Dataset = synth.Dataset

	// SimilarityIndex answers top-k, tag-set search and pair-similarity
	// queries over immutable rfd snapshots; its TopK is bit-identical to
	// a Service's live TopK over the same counts.
	SimilarityIndex = ir.InvertedIndex
	// Scored is a ranked similarity answer.
	Scored = ir.Scored

	// Checkpoint is a metric snapshot of a simulation run.
	Checkpoint = sim.Checkpoint

	// Metrics is the live tagging engine's O(1) aggregate snapshot.
	Metrics = engine.Metrics

	// Scale sizes an experiment suite run.
	Scale = experiments.Scale
)

// NewPost builds a post from tag ids, deduplicating and sorting.
func NewPost(ts ...Tag) (Post, error) { return tags.NewPost(ts...) }

// NewTracker returns an MA-score tracker with window ω ≥ 2 (Definition 7).
func NewTracker(omega int) *Tracker { return stability.NewTracker(omega) }

// NewReference wraps a stable rfd as a quality yardstick (Definition 9).
func NewReference(stable *Counts) *Reference { return quality.NewReference(stable) }

// DefaultConfig returns the calibrated generator configuration for n
// resources under the given seed.
func DefaultConfig(n int, seed int64) Config { return synth.DefaultConfig(n, seed) }

// Generate builds a deterministic synthetic corpus.
func Generate(cfg Config) (*Dataset, error) { return synth.Generate(cfg) }

// SaveDataset persists a corpus (tagstore post log + metadata) under dir.
func SaveDataset(ds *Dataset, dir string) error { return ds.Save(dir) }

// LoadDataset reads a corpus persisted by SaveDataset.
func LoadDataset(dir string) (*Dataset, error) { return synth.Load(dir) }

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

// SolveOptimal runs the offline DP (Section III-D) for the budget and
// returns the optimal assignment with its mean quality. The DP costs
// O(n·B²); keep instances moderate.
func (s *Simulation) SolveOptimal(budget int) (Assignment, float64, error) {
	curves, err := s.data.Curves(s.opts.Omega, budget)
	if err != nil {
		return nil, 0, err
	}
	res, err := optimal.Solve(curves, budget, optimal.Options{Bounded: true, Costs: s.data.Costs})
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
	curves, err := s.data.Curves(s.opts.Omega, budget)
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
// variable-cost future-work extension). nil restores unit costs. A
// vector of the wrong length or with a non-positive cost is refused and
// leaves the previous costs installed.
func (s *Simulation) SetCosts(costs []int) error {
	prev := s.data.Costs
	s.data.Costs = costs
	if err := s.data.Validate(); err != nil {
		s.data.Costs = prev
		return fmt.Errorf("incentivetag: %w", err)
	}
	return nil
}

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
	return ir.BuildInverted(st.SnapshotRFDs()), nil
}

// SnapshotInitial returns the "Jan 31" similarity index (initial posts
// only); SnapshotFull returns the ideal "Dec 31" index (every recorded
// post).
func (s *Simulation) SnapshotInitial() *SimilarityIndex {
	rfds := make([]*Counts, s.data.N())
	for i := range rfds {
		rfds[i] = sparse.FromSeq(s.data.Seqs[i], s.data.Initial[i])
	}
	return ir.BuildInverted(rfds)
}

// SnapshotFull returns the ideal index built from complete sequences.
func (s *Simulation) SnapshotFull() *SimilarityIndex {
	rfds := make([]*Counts, s.data.N())
	for i := range rfds {
		rfds[i] = sparse.FromSeq(s.data.Seqs[i], len(s.data.Seqs[i]))
	}
	return ir.BuildInverted(rfds)
}

// TinyScale returns a minimal configuration for smoke tests.
func TinyScale() Scale { return experiments.Tiny() }

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
	// Budget is the total incentive budget in reward units; fulfilled
	// tasks consume it and Lease refuses once it is gone. 0 means
	// unlimited; negative is rejected.
	//
	// The budget ledger is a PER-PROCESS serving policy, not durable
	// state: the WAL records posts, not lease lifecycles, so a restarted
	// service cannot tell recovered allocated posts from organic ones and
	// starts a fresh ledger. A deployment that must cap spend across
	// restarts should set Budget to what remains (total minus the spend
	// it has accounted externally) when relaunching.
	Budget int
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
	// the last one. 0 means one minute; negative disables
	// the background snapshotter (Close still writes a final snapshot).
	SnapshotInterval time.Duration
	// SnapshotEvery additionally triggers a snapshot once this many log
	// records have accumulated since the last one (0 disables the
	// record-count policy).
	SnapshotEvery int
	// Resources restricts the service to the first n corpus resources
	// (0 = all).
	Resources int
	// Owned, when non-nil, marks this service as one member of a sharded
	// cluster that holds exactly the resources it owns under the
	// cluster's placement ring. NewService evaluates it once per resource
	// (the shard map is static) and builds engine, allocator and query
	// index over the owned resources only, each under a dense local slot
	// given in ascending global id order. Every method still speaks
	// global ids: the Service maps them to slots on the way in and back
	// on the way out, and since slots are monotone in id every ranking
	// and every strategy tiebreak orders exactly as on a single node. So
	// the allocator only leases owned resources, every ranking scores
	// and pads owned resources only, and Snapshot, Residency and
	// QueryStats count this member's share. Ingest of a resource another
	// member owns is refused with ErrResourceRange, never applied. A
	// durable WALDir is bound to the owned set: the log records global
	// ids and snapshots carry a fingerprint of the set, so a restart
	// under a different shard map refuses the directory loudly. N stays
	// the corpus size. An Owned that admits every resource runs as a
	// single node.
	Owned func(resource int) bool
	// MaxResidentResources caps how many resources the memory-tiering
	// policy keeps hot (tracker and count vector materialized on the
	// heap); the rest are frozen into compact varint records and
	// rehydrated on touch. 0 means unbounded. Setting either residency
	// budget enables tiering: a background policy loop evicts the
	// least-recently-touched resources back inside the budget. The query
	// index holds no copy to evict: it reads a cold resource straight off
	// the engine's record, and its posting lists stay live, so queries
	// score cold candidates from postings without rehydrating them and a
	// cold subject stays cold. The budget does NOT
	// choose how a durable service boots: recovery always reads the newest
	// snapshot and starts every resource cold, aliasing its record inside
	// the payload read. Without a budget nothing is ever evicted, so a
	// restarted node converges to all-resident as traffic touches each
	// resource; with one, the policy holds it inside the budget. Every
	// answer on every path is bit-identical either way; only memory and
	// latency profiles change.
	MaxResidentResources int
	// MaxResidentBytes caps the estimated heap held by hot resources
	// (count vectors, MA rings, trackers). 0 means unbounded.
	MaxResidentBytes int64
	// TierInterval is the background tiering loop's cadence (default
	// defaultTierInterval). Negative disables the background loop;
	// TierNow still runs the policy on demand.
	TierInterval time.Duration
}

// defaultSnapshotInterval is the background snapshotter's default time
// policy.
const defaultSnapshotInterval = time.Minute

// keepSnapshots is how many snapshot files a cycle retains after a new
// one lands: the newest plus one fallback.
const keepSnapshots = 2

// defaultTierInterval is the background tiering loop's default cadence.
const defaultTierInterval = 2 * time.Second

// LeaseID names one outstanding incentivized post-task assignment.
type LeaseID = alloc.LeaseID

// AllocatorStats is a census of the allocator's lease lifecycle and
// budget ledger.
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

	// idx is the live query index: an incrementally-maintained inverted
	// index fed by the engine's subscriber hook, seeded from the (possibly
	// recovered) engine state at construction. It reads resource counts
	// off the engine under its view lock, so TopK and Search never
	// rescan, clone or copy the corpus. It holds the one TopK result cache.
	idx *ir.OnlineIndex

	// ids and slot translate between global resource ids and the
	// engine's local slots on a cluster member (both nil on a single
	// node, where the two coincide): ids[l] is slot l's global id,
	// ascending, and slot[g] is g's slot, or -1 where another member owns
	// g. Materialised from ServiceOptions.Owned at boot, immutable after.
	ids  []uint32
	slot []int32

	recovery RecoveryStats // boot-time recovery facts, immutable

	// Snapshot machinery. snapMu serializes snapshot/compaction cycles
	// (the background snapshotter, /admin/snapshot and Close can race);
	// lastSnapSeq and lastSnapBytes, the last payload's length, are
	// guarded by it.
	snapMu        sync.Mutex
	lastSnapSeq   uint64
	lastSnapBytes int
	snapsTaken    atomic.Int64
	segsDropped   atomic.Int64

	stopSnap chan struct{}
	snapWG   sync.WaitGroup

	// Residency machinery. rehydrateHist collects per-rehydration
	// latencies from the engine's observer hook (lock-free; it runs under
	// shard locks). tiered, the budgets and the tier loop are zero when
	// no residency budget is configured.
	tiered           bool
	maxResident      int
	maxResidentBytes int64
	rehydrateHist    *admit.Histogram
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
// already holds state, NewService first RECOVERS — it reads the newest
// valid snapshot (falling back over damaged ones) and indexes it cold,
// replays the log tail past it (rehydrating the resources it touches),
// and only then starts serving, yielding an engine that is
// bit-identical to the one that last acknowledged a post there. A
// background snapshotter then keeps recovery cheap: on the configured
// interval/record policy it writes the engine's state as a durable
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
		opts.SnapshotInterval = defaultSnapshotInterval
	}
	if opts.Budget < 0 {
		return nil, fmt.Errorf("incentivetag: negative budget %d", opts.Budget)
	}
	if opts.Strategy == "FC" {
		return nil, fmt.Errorf("incentivetag: FC models organic tagger choice over the recorded replay; a live Service receives organic traffic through Ingest — pick RR, FP, MU or FP-MU for Lease")
	}
	data := sim.FromDataset(ds, opts.Resources)
	if err := data.Validate(); err != nil {
		return nil, err
	}
	specs := data.EngineSpecs()
	var ids []uint32
	var slot []int32
	if opts.Owned != nil {
		if len(specs) > math.MaxInt32 {
			return nil, fmt.Errorf("incentivetag: %d resources overflow a cluster member's 32-bit slots", len(specs))
		}
		ids, slot, specs = ownedSlots(specs, opts.Owned)
	}
	engCfg := engine.Config{
		Omega:          opts.Omega,
		Shards:         opts.Shards,
		UnderThreshold: data.UnderThreshold,
		TagUniverse:    data.TagUniverse,
		IDs:            ids,
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
	eng, rec, err := buildEngine(engCfg, specs, slot, wal, opts.WALDir)
	if err != nil {
		if wal != nil {
			wal.Close()
		}
		return nil, err
	}
	strat, err := NewStrategy(opts.Strategy, opts.Omega)
	if err != nil {
		if wal != nil {
			wal.Close()
		}
		return nil, err
	}
	s := &Service{
		eng:              eng,
		wal:              wal,
		alloc:            alloc.New(strat, engine.NewView(eng, opts.Seed), eng, opts.Budget),
		walDir:           opts.WALDir,
		recovery:         rec,
		lastSnapSeq:      rec.SnapshotSeq,
		ids:              ids,
		slot:             slot,
		tiered:           tiered,
		maxResident:      opts.MaxResidentResources,
		maxResidentBytes: opts.MaxResidentBytes,
		rehydrateHist:    hist,
	}
	// Build the live query index over the engine — whose state, on the
	// durable path, is the recovered one (snapshot + WAL tail already
	// replayed), so a post-crash server answers queries identically to the
	// one that crashed — then attach it as the engine's subscriber before
	// any traffic can flow. The index keeps no count vectors: it reads
	// each resource's counts off the engine (live vector or frozen record,
	// residency unchanged), so this one-time seed never forces the corpus
	// hot and is the only corpus scan the query path ever performs.
	s.idx = ir.NewOnlineIndexOver(eng, eng.N(), eng.Shards())
	if err := eng.Subscribe(s.idx); err != nil {
		if wal != nil {
			wal.Close()
		}
		return nil, err
	}
	if wal != nil && opts.SnapshotInterval > 0 {
		s.stopSnap = make(chan struct{})
		s.snapWG.Add(1)
		go s.snapshotter(opts.SnapshotInterval, opts.SnapshotEvery)
	}
	if tiered && opts.TierInterval >= 0 {
		interval := opts.TierInterval
		if interval == 0 {
			interval = defaultTierInterval
		}
		s.stopTier = make(chan struct{})
		s.tierWG.Add(1)
		go s.tierLoop(interval)
	}
	return s, nil
}

// ownedSlots gives each resource owned admits a local slot, in
// ascending global id order, and keeps only those resources' specs; ids
// is non-nil even when nothing is owned, so the engine still
// fingerprints its part. An owned set that covers the corpus returns nil
// maps: such a member runs as a single node.
func ownedSlots(specs []engine.ResourceSpec, owned func(int) bool) (ids []uint32, slot []int32, kept []engine.ResourceSpec) {
	ids, slot = []uint32{}, make([]int32, len(specs))
	for g, spec := range specs {
		slot[g] = -1
		if owned(g) {
			slot[g] = int32(len(ids))
			ids = append(ids, uint32(g))
			kept = append(kept, spec)
		}
	}
	if len(ids) == len(specs) {
		return nil, nil, specs
	}
	return ids, slot, kept
}

// buildEngine constructs the serving engine, recovering durable state
// when the WAL directory already holds any. Every divergence between
// the directory and the corpus/options is a loud error: recovery either
// reproduces the pre-crash engine exactly or refuses to serve.
//
// There is one restore path: the newest valid snapshot file is read,
// engine.Restore indexes its payload COLD — each resource's frozen
// record aliases its byte span inside the payload and only scalars are
// computed during one streaming validation pass — and the WAL tail past
// the snapshot is replayed on top, rehydrating exactly the resources it
// touches.
//
// On a cluster member (slot non-nil) the directory is bound to the owned
// set: engine.Restore refuses a snapshot whose id fingerprint differs,
// and the log, which records global ids, is replayed through slot, so a
// record for a resource this member does not own is refused too.
func buildEngine(cfg engine.Config, specs []engine.ResourceSpec, slot []int32, wal *tagstore.Store, walDir string) (*engine.Engine, RecoveryStats, error) {
	var rec RecoveryStats
	if wal == nil {
		eng, err := engine.New(cfg, specs)
		return eng, rec, err
	}
	start := time.Now()
	payload, snapSeq, ok, skipped, err := tagstore.ReadLatestSnapshot(walDir)
	if err != nil {
		return nil, rec, err
	}
	rec.SnapshotsSkipped = skipped
	var eng *engine.Engine
	if ok {
		var stateSeq uint64
		eng, stateSeq, err = engine.Restore(cfg, specs, payload)
		if err == nil && stateSeq != snapSeq {
			err = fmt.Errorf("snapshot file covers seq %d but its state says %d", snapSeq, stateSeq)
		}
		if err == nil && stateSeq > wal.LastSeq() {
			err = fmt.Errorf("snapshot covers seq %d but the log ends at %d — log truncated behind the snapshot", stateSeq, wal.LastSeq())
		}
		if err == nil && wal.FirstSeq() > stateSeq+1 {
			err = fmt.Errorf("log starts at seq %d, leaving a gap after snapshot seq %d", wal.FirstSeq(), stateSeq)
		}
		if err != nil {
			return nil, rec, fmt.Errorf("incentivetag: recovering %s: %w", walDir, err)
		}
		rec.SnapshotLoaded = true
		rec.SnapshotSeq = snapSeq
	} else {
		if wal.LastSeq() > 0 && wal.FirstSeq() > 1 {
			return nil, rec, fmt.Errorf("incentivetag: recovering %s: log starts at seq %d with no usable snapshot — compacted records are unrecoverable", walDir, wal.FirstSeq())
		}
		if eng, err = engine.New(cfg, specs); err != nil {
			return nil, rec, err
		}
	}
	n := eng.N()
	if slot != nil {
		n = len(slot)
	}
	bytes, err := wal.ScanFrom(rec.SnapshotSeq+1, func(seq uint64, rid uint32, p Post) error {
		if int64(rid) >= int64(n) {
			return fmt.Errorf("incentivetag: recovering %s: log record seq %d targets resource %d outside the corpus (n=%d) — the directory belongs to a different dataset", walDir, seq, rid, n)
		}
		i := int(rid)
		if slot != nil {
			if i = int(slot[rid]); i < 0 {
				return fmt.Errorf("incentivetag: recovering %s: log record seq %d targets resource %d, which this member does not own — the directory was written under a different shard map", walDir, seq, rid)
			}
		}
		rec.ReplayedRecords++
		return eng.Replay(i, p)
	})
	if err != nil {
		return nil, rec, err
	}
	rec.ReplayBytes = bytes
	rec.RecoveredPosts = eng.Snapshot().Posts
	rec.ReplayMillis = time.Since(start).Milliseconds()
	rec.Recovered = rec.SnapshotLoaded || rec.ReplayedRecords > 0
	return eng, rec, nil
}

// N returns the corpus size: the range of resource ids every method
// takes, on a cluster member too.
func (s *Service) N() int {
	if s.slot != nil {
		return len(s.slot)
	}
	return s.eng.N()
}

// local maps a global resource id to its engine slot; on a single node
// the two coincide and the engine range-checks. On a member an id
// outside the corpus or owned by another member is the caller's
// mistake, reported without a package prefix so callers can add
// context.
func (s *Service) local(resource int) (int, error) {
	if s.slot == nil {
		return resource, nil
	}
	if resource < 0 || resource >= len(s.slot) {
		return 0, fmt.Errorf("resource index %d %w [0,%d)", resource, ErrResourceRange, len(s.slot))
	}
	if l := s.slot[resource]; l >= 0 {
		return int(l), nil
	}
	return 0, fmt.Errorf("resource index %d is %w of this cluster member's owned set", resource, ErrResourceRange)
}

// mustLocal is local for the accessors that return no error: a bad id
// panics, as an out-of-range one does on a single node.
func (s *Service) mustLocal(resource int) int {
	l, err := s.local(resource)
	if err != nil {
		panic("incentivetag: " + err.Error())
	}
	return l
}

// global rewrites an answer's local slots as global ids, in place.
func (s *Service) global(res []Scored) []Scored {
	if s.ids != nil {
		for i := range res {
			res[i].ID = int(s.ids[res[i].ID])
		}
	}
	return res
}

// Ingest records one live post for a resource, updating its rfd, MA
// score and every aggregate metric in O(|post|). Safe for concurrent
// use; posts for resources on different shards proceed in parallel.
func (s *Service) Ingest(resource int, p Post) error {
	l, err := s.local(resource)
	if err != nil {
		return fmt.Errorf("incentivetag: %w", err)
	}
	return s.eng.Ingest(l, p)
}

// PostEvent is one element of a cross-resource ingest batch.
type PostEvent = engine.PostEvent

// ErrResourceRange and ErrEmptyPost are wrapped by every ingest error
// that is the caller's mistake — a resource index outside [0, N), or
// owned by another member of a cluster, or a post with no tags; any
// other ingest error (a WAL write failure, a
// failed rehydration) is the service's. Test with errors.Is.
var (
	ErrResourceRange = engine.ErrResourceRange
	ErrEmptyPost     = engine.ErrEmptyPost
)

// ErrUnknownLease is wrapped by Fulfill and Expire when the lease was
// never issued or has already settled — the caller's protocol error;
// any other Fulfill error (a failed ingest) is the service's. Test with
// errors.Is.
var ErrUnknownLease = alloc.ErrUnknownLease

// IngestMany records a batch of posts spanning arbitrary resources,
// taking each involved shard's lock once and group-committing each
// shard's WAL records with one write. Per resource, events apply in
// slice order. Safe for concurrent use alongside Ingest and the
// allocation loop. A cluster member checks every event's ownership
// before any applies, mapping the batch into a copy.
func (s *Service) IngestMany(events []PostEvent) error {
	if s.slot == nil {
		return s.eng.IngestMany(events)
	}
	local := make([]PostEvent, len(events))
	for k, ev := range events {
		l, err := s.local(ev.Resource)
		if err != nil {
			return fmt.Errorf("incentivetag: event %d: %w", k, err)
		}
		local[k] = PostEvent{Resource: l, Post: ev.Post}
	}
	return s.eng.IngestMany(local)
}

// Lease asks the configured strategy which resource the next
// incentivized post task should target and hands out a lease on it
// (Algorithm 1's CHOOSE, decoupled from its completion), reserving the
// task's cost against ServiceOptions.Budget. remaining is an extra
// per-call bound on top of the budget ledger (pass math.MaxInt32 for
// none); the strategy sees the smaller of the two. ok is false when
// nothing is allocatable. A lease holds its resource until its post is
// applied: the resource is hidden from further Leases until Expire
// settles the lease or Fulfill has ingested its post, so any number of
// workers can hold tasks concurrently without ever being handed the
// same resource twice, and a worker that reads the resource's Count
// after its Lease sees every post fulfilled before it.
func (s *Service) Lease(remaining int) (resource int, lease LeaseID, ok bool) {
	resource, lease, ok = s.alloc.Lease(remaining)
	if ok && s.ids != nil {
		resource = int(s.ids[resource])
	}
	return resource, lease, ok
}

// Fulfill settles a lease with the post its worker produced: the post
// is ingested (WAL-first when durability is configured), its cost is
// charged to the budget if the ingest succeeded, and the strategy runs
// Algorithm 1's UPDATE. Fulfilling an unknown, already fulfilled, or
// expired lease returns an error wrapping ErrUnknownLease without
// touching any state. The strategy is notified even when the ingest
// itself fails (e.g. a WAL write error), so a failed completion re-arms
// the resource and releases its reservation instead of permanently
// removing it.
func (s *Service) Fulfill(lease LeaseID, p Post) error {
	return s.alloc.Fulfill(lease, p)
}

// Expire settles a lease without a post — the worker abandoned the
// task. The resource is re-armed for future allocation and its
// reservation released; no post is ingested and no budget is consumed.
// An unknown or already settled lease returns an error wrapping
// ErrUnknownLease.
func (s *Service) Expire(lease LeaseID) error {
	return s.alloc.Expire(lease)
}

// AllocStats reports the lease lifecycle counters (issued, outstanding,
// fulfilled, expired) and the budget ledger (budget, spent, remaining).
func (s *Service) AllocStats() AllocatorStats { return s.alloc.StatsSnapshot() }

// Count returns the number of posts a resource has received. A cluster
// member panics on a resource it does not own, as on one outside the
// corpus.
func (s *Service) Count(resource int) int { return s.eng.Count(s.mustLocal(resource)) }

// CostOf returns the reward units one post task on the resource
// consumes (1 unless the variable-cost extension is active). A cluster
// member panics on a resource it does not own, as Count does.
func (s *Service) CostOf(resource int) int { return s.eng.CostOf(s.mustLocal(resource)) }

// Snapshot returns the full aggregate metric snapshot in O(shards),
// over the owned resources on a cluster member: the members' quality
// sums and resource counts add up to the corpus's.
func (s *Service) Snapshot() Metrics { return s.eng.Snapshot() }

// SnapshotRFDs clones every resource's current rfd counts for the
// similarity case-study layer (NewSimilarityIndex), indexed by global
// id. A cluster member holds no counts for resources it does not own:
// their entries are empty vectors, so an index over the slice ranks
// them as a post-less resource and the owned ones as the member does.
func (s *Service) SnapshotRFDs() []*Counts {
	rfds := s.eng.SnapshotRFDs()
	if s.ids == nil {
		return rfds
	}
	out := make([]*Counts, len(s.slot))
	for g, l := range s.slot {
		if l >= 0 {
			out[g] = rfds[l]
		} else {
			out[g] = sparse.NewCounts()
		}
	}
	return out
}

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

// TopK answers the top-k similar-resource query (§V-C.1) from the live
// online index: no snapshot clone, no index rebuild — the posting lists
// are maintained incrementally by the ingest paths (Ingest, IngestMany
// and lease fulfillment alike). The result is an
// epoch-versioned consistent view: bit-identical to rebuilding the
// inverted index from SnapshotRFDs at the returned epoch. Safe for
// arbitrary concurrent use alongside ingest. A cluster member ranks its
// owned resources only and refuses a subject it does not own with
// ErrResourceRange.
//
// A repeated subject is answered from the index's result cache, which
// serves a stored answer while no post could have changed it and reranks
// a hot subject's dot row, folded from the index's write log, when one
// could — bit-identical to re-running the query either way. Serve,
// rerank and rebuild counters surface in QueryStats and GET /info.
func (s *Service) TopK(subject, k int) ([]Scored, uint64, error) {
	l, err := s.subject(subject, k)
	if err != nil {
		return nil, 0, err
	}
	res, epoch := s.idx.TopK(l, k)
	return s.global(res), epoch, nil
}

// subject validates a query's subject and k and maps the subject to its
// slot.
func (s *Service) subject(subject, k int) (int, error) {
	if n := s.N(); subject < 0 || subject >= n {
		return 0, fmt.Errorf("incentivetag: resource index %d out of range [0,%d)", subject, n)
	}
	if k <= 0 {
		return 0, fmt.Errorf("incentivetag: k must be positive, got %d", k)
	}
	l, err := s.local(subject)
	if err != nil {
		return 0, fmt.Errorf("incentivetag: %w", err)
	}
	return l, nil
}

// Search ranks resources by cosine similarity between the query tag set
// and every live rfd — the paper's query-by-tag-set retrieval. Only
// resources sharing at least one query tag score above zero, so the
// result holds at most min(k, matches) entries, best first. Like TopK
// it reads the online index under an epoch-versioned consistent view.
// A cluster member ranks its owned resources only: this is also the
// node-side half of a scatter-gather /search.
func (s *Service) Search(query Post, k int) ([]Scored, uint64, error) {
	if len(query) == 0 {
		return nil, 0, fmt.Errorf("incentivetag: empty search query")
	}
	if k <= 0 {
		return nil, 0, fmt.Errorf("incentivetag: k must be positive, got %d", k)
	}
	res, epoch := s.idx.Search(query, k)
	return s.global(res), epoch, nil
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
	return s.slot == nil || resource < 0 || resource >= len(s.slot) || s.slot[resource] >= 0
}

// SubjectTopK is the owner node's leg of a cluster /topk. Under one
// epoch-consistent view it exports the subject's live count vector
// (ascending tag order) with its exact squared norm — the query a
// gateway ships to every other node as a TopKWeighted call — and ranks
// this node's OWNED resources against it, subject excluded; a subject
// the node does not own is refused with ErrResourceRange. Integer
// counts and norms transfer exactly through JSON float64s, which is
// what keeps the distributed scores bit-identical.
func (s *Service) SubjectTopK(subject, k int) (query []WeightedTag, qNorm2 float64, top []Scored, epoch uint64, err error) {
	l, err := s.subject(subject, k)
	if err != nil {
		return nil, 0, nil, 0, err
	}
	query, qNorm2, top, epoch = s.idx.SubjectTopK(l, k)
	return query, qNorm2, s.global(top), epoch, nil
}

// TopKWeighted ranks this node's OWNED resources against an explicit
// integer-weighted query vector (a subject's counts as its owner node's
// SubjectTopK exported them), excluding resource `exclude` (negative,
// or any id the node does not hold, excludes none).
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
		// An rfd holds positive counts only, and the ranking's padding
		// takes a zero dot for "no overlap": a non-positive weight from
		// the wire could cancel a real overlap to zero.
		if wt.Count <= 0 {
			return nil, 0, fmt.Errorf("incentivetag: query tag %d has non-positive count %d", wt.Tag, wt.Count)
		}
	}
	if s.slot != nil {
		if exclude >= 0 && exclude < len(s.slot) {
			exclude = int(s.slot[exclude])
		} else {
			exclude = -1
		}
	}
	res, epoch := s.idx.TopKWeighted(query, qNorm2, exclude, k, nil)
	return s.global(res), epoch, nil
}

// QueryStats reports the live query index census, its result cache
// included.
func (s *Service) QueryStats() QueryStats { return s.idx.Stats() }

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

// SnapshotNow synchronously runs one snapshot/compaction cycle: write
// a consistent engine state cut as a durable snapshot, drop the log
// segments it covers, and prune old snapshots. A cycle with no log
// record since the last snapshot is skipped before the engine is
// stopped. Safe to call while the service ingests; concurrent cycles
// are serialized. Returns an error when the service has no WALDir.
func (s *Service) SnapshotNow() (SnapshotResult, error) {
	if s.wal == nil {
		return SnapshotResult{}, fmt.Errorf("incentivetag: service has no WAL configured")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	t0 := time.Now()
	if seq := s.walSeq(); seq == s.lastSnapSeq {
		return SnapshotResult{Skipped: true, LastSeq: seq}, nil
	}
	// Size the buffer from the last payload, plus an eighth for growth,
	// so the payload is written without regrowing it.
	payload, lastSeq := s.eng.AppendSnapshot(make([]byte, 0, s.lastSnapBytes+s.lastSnapBytes/8))
	s.lastSnapBytes = len(payload)
	if _, err := tagstore.WriteSnapshot(s.walDir, lastSeq, payload); err != nil {
		return SnapshotResult{}, err
	}
	res := SnapshotResult{LastSeq: lastSeq, Bytes: len(payload)}
	// Prune damaged snapshots plus valid ones beyond the retention
	// count, then compact only through the OLDEST retained VALID
	// snapshot — not the one just written: the segments between retained
	// snapshots are what make the fallback usable if the newest file is
	// ever damaged.
	_, compactSeq, ok, err := tagstore.PruneSnapshots(s.walDir, keepSnapshots)
	if err != nil {
		return SnapshotResult{}, err
	}
	if !ok {
		compactSeq = lastSeq // unreachable: the snapshot just written is valid
	}
	if err := s.eng.WithWAL(func(w *tagstore.Store) error {
		n, err := w.DropThrough(compactSeq)
		res.SegmentsDropped = n
		return err
	}); err != nil {
		return SnapshotResult{}, err
	}
	s.lastSnapSeq = lastSeq
	s.snapsTaken.Add(1)
	s.segsDropped.Add(int64(res.SegmentsDropped))
	res.Millis = time.Since(t0).Milliseconds()
	return res, nil
}

// walSeq is the sequence number of the last record appended to the
// log.
func (s *Service) walSeq() (seq uint64) {
	s.eng.WithWAL(func(w *tagstore.Store) error {
		seq = w.LastSeq()
		return nil
	})
	return seq
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
			pending := s.walSeq()
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

// TierStats is the residency census of the engine tier (trackers and
// count vectors — the only copy, which the query index reads in place;
// its posting lists stay live either way), plus the rehydrate latency
// profile, over the resources this service holds — its owned ones on a
// cluster member. Counters are monotone since boot and partition-clean:
// a cluster's per-node values sum to the corpus's.
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
	// Engine tier: Resident and Cold partition the resources held;
	// Evictions and Rehydrations count hot→cold / cold→hot transitions;
	// ResidentBytes estimates the heap hot resources hold.
	Resident      int    `json:"resident_resources"`
	Cold          int    `json:"cold_resources"`
	Evictions     uint64 `json:"evictions"`
	Rehydrations  uint64 `json:"rehydrations"`
	ResidentBytes int64  `json:"resident_bytes"`
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
	return TierStats{
		Enabled:          s.tiered,
		MaxResident:      s.maxResident,
		MaxResidentBytes: s.maxResidentBytes,
		Resident:         est.Resident,
		Cold:             est.Cold,
		Evictions:        est.Evictions,
		Rehydrations:     est.Rehydrations,
		ResidentBytes:    est.ResidentBytes,
		RehydrateCount:   s.rehydrateHist.Count(),
		RehydrateP50:     s.rehydrateHist.Quantile(0.50),
		RehydrateP99:     s.rehydrateHist.Quantile(0.99),
	}
}

// TierNow synchronously runs one tiering policy pass: the engine evicts
// its least-recently-touched hot resources back inside the residency
// budget. The query index reads the engine's counts in place, so there
// is nothing to mirror. Returns how many resources froze. Eviction
// never changes observable state — every read and query before and
// after is bit-identical — so running it concurrently with traffic is
// safe; a resource touched mid-pass is simply left hot. Errors when no
// residency budget is configured.
func (s *Service) TierNow() (evicted int, err error) {
	if !s.tiered {
		return 0, fmt.Errorf("incentivetag: service has no residency budget configured")
	}
	return len(s.eng.EvictToBudget(s.maxResident, s.maxResidentBytes)), nil
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
// final snapshot (when a WAL is configured and new records landed), and
// flushes and releases the log. The Service must not be used after
// Close.
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
	return err
}
