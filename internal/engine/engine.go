// Package engine is the concurrent live-tagging core of the serving
// facade (the public Service); the replay simulator (internal/sim) runs
// its reference oracle on it. It generalizes the single-goroutine
// simulation loop into a sharded, concurrency-safe ingest path with O(1)
// incremental metrics:
//
//   - resources are partitioned across S shards (resource i lives on
//     shard i mod S); each shard's state is guarded by its own mutex, so
//     ingest throughput scales with cores as long as traffic spreads
//     across shards (matching tagstore's single-writer-per-log design);
//   - every resource carries its stability.Tracker plus an incrementally
//     maintained dot product against its stable reference rfd, so the
//     per-resource quality q_i = s(F_i, φ̂_i) is updated in O(|post|)
//     per ingested post instead of recomputed by a support scan;
//   - the aggregate metrics of the paper's Figure 6 — quality sum,
//     over-/under-tagged resource counts, wasted posts, spent budget —
//     are maintained as shard-local deltas, making Snapshot an
//     O(S) read instead of the seed's O(n·|tags|) scan per checkpoint.
//
// # Hot path
//
// The per-post ingest pipeline is allocation-free in steady state: a
// resource's counts and its reference rfd are each one compact
// open-addressed sparse.Counts table, so a post costs |post| probes into
// each (the count update and the reference dot), and a table grows only
// when its support does. Every ingest path runs one apply path
// (applyShard) over a shard batch — one shard's share of one call, a
// single Ingest being a batch of one — so IngestMany amortizes the
// shard lock, the subscriber's view lock and the clock over whole
// batches, and group-commits each shard's WAL records with a single
// store write (tagstore.Batch), framed under the shard lock so the log's
// per-resource order always matches apply order — batched ingestion is
// bit-identical to per-post ingestion, including crash recovery.
//
// # Exactness
//
// The incremental quality is not an approximation. Both the count
// vector's squared norm and the reference dot product are sums of
// integers, exactly representable in float64 far beyond any realistic
// corpus, so the incrementally maintained q_i is bit-identical to the
// full-scan Cosine the seed computed (same guards, same expression,
// same clamping). Only the n-term aggregation of the quality *sum*
// differs from a fresh left-to-right scan, by the usual few ULPs of
// float reassociation; a Neumaier-compensated accumulator keeps that
// drift at one rounding of the total regardless of run length.
// VerifyMetrics retains the full-scan computation as the reference
// oracle for tests and audits.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"incentivetag/internal/quality"
	"incentivetag/internal/sparse"
	"incentivetag/internal/stability"
	"incentivetag/internal/stats"
	"incentivetag/internal/tags"
	"incentivetag/internal/tagstore"
)

// DefaultShards is the shard count used when Config.Shards is zero. It
// is a fixed constant (not GOMAXPROCS) so that engine runs are
// bit-reproducible across machines with different core counts.
const DefaultShards = 8

// Config tunes an Engine.
type Config struct {
	// Omega is the MA window ω ≥ 2 of Definition 7 (default 5, the
	// paper's experimental default).
	Omega int
	// Shards is the number of independently locked resource shards
	// (default DefaultShards). 1 yields a fully serialized engine whose
	// aggregate summation order matches the seed simulator exactly.
	Shards int
	// UnderThreshold is the under-tagged post-count threshold (§V-B.3;
	// the paper uses 10). Resources with Count ≤ UnderThreshold are
	// counted as under-tagged; a negative value disables the metric.
	UnderThreshold int
	// TagUniverse is the tag-universe bound |T| (typically
	// Vocab.Size()), or 0 when undeclared. It selects nothing: it is
	// recorded in snapshots and checked on restore, so a snapshot cannot
	// be restored into an engine configured for another vocabulary.
	TagUniverse int
	// WAL, when non-nil, is an append-only post log every ingested post
	// is written to before it mutates engine state (the durable
	// write-ahead path of a serving deployment). The engine serializes
	// its own WAL appends; the store must not be shared with other
	// writers. Primed initial posts are NOT logged — the WAL records
	// live traffic only.
	WAL *tagstore.Store
	// RehydrateObserver, when non-nil, is invoked with the duration (in
	// nanoseconds) of every cold→hot rehydration. It runs under the
	// owning shard's lock, so implementations must be fast and lock-free
	// (the Service wires an atomic histogram here for the rehydrate-p99
	// gauge).
	RehydrateObserver func(nanos int64)
	// IDs, when non-nil, holds the id each resource has in a larger
	// corpus the engine serves a part of (a cluster member's owned
	// resources, ascending), one per resource. The WAL records these ids
	// instead of the engine's own indexes, and a snapshot carries their
	// fingerprint, so a durable directory can be neither restored nor
	// replayed into an engine over another part.
	IDs []uint32
}

func (c Config) withDefaults() Config {
	if c.Omega == 0 {
		c.Omega = 5
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	return c
}

// ResourceSpec declares one resource at engine construction.
type ResourceSpec struct {
	// Initial is the post prefix the resource has already received
	// (the c_i vector of the paper). It is replayed into the tracker at
	// construction without counting toward spent budget or waste.
	Initial tags.Seq
	// Ref is the stable reference rfd quality is measured against
	// (Definition 9). nil means quality is reported as 0 for this
	// resource (no yardstick known yet).
	Ref *quality.Reference
	// StableK is the resource's stable point k*; posts ingested at or
	// beyond it count as wasted (§V-B.2). 0 means unknown (no waste or
	// over-tagged accounting for this resource).
	StableK int
	// Cost is the reward units one post task on this resource consumes
	// (0 means 1).
	Cost int
}

// Metrics is the O(shards) aggregate snapshot the engine maintains
// incrementally — the constant-time counterpart of the seed simulator's
// per-checkpoint full scan.
type Metrics struct {
	// Spent is the total reward-unit cost of ingested posts.
	Spent int
	// Posts is the number of ingested (non-primed) posts.
	Posts int
	// Resources is n, the number of resources the aggregates cover.
	Resources int
	// QualitySum is Σ_i q_i over all resources.
	QualitySum float64
	// MeanQuality is QualitySum / n (Definition 10).
	MeanQuality float64
	// OverTagged counts resources with Count ≥ StableK.
	OverTagged int
	// UnderTagged counts resources with Count ≤ UnderThreshold.
	UnderTagged int
	// UnderTaggedPct is UnderTagged / n.
	UnderTaggedPct float64
	// WastedPosts counts ingested posts that arrived when the resource
	// was already at or past its stable point.
	WastedPosts int
}

// resource is the per-resource shard-local state.
type resource struct {
	tracker *stability.Tracker
	// ref fields are pre-extracted from the spec's Reference so the hot
	// path never chases the wrapper; refCounts is shared with every
	// engine measuring against the same Reference.
	refCounts *sparse.Counts
	refNorm2  float64
	refPosts  int
	stableK   int
	cost      int
	// dot is Σ_t h(t)·φ̂(t): the exact integer inner product between the
	// current count vector and the reference counts, maintained in
	// O(|post|) per ingest and retained while cold.
	dot int64
	// quality is the current q_i, kept in lockstep with dot.
	quality float64
	// consumed mirrors tracker.Posts(); kept as a field so Count reads
	// don't touch the tracker's internals — and so cold resources answer
	// Count without rehydrating.
	consumed int

	// Residency tier (see residency.go). A resource is HOT when tracker
	// is non-nil and COLD when it is nil; cold resources keep their full
	// state in frozen (the shared per-resource record layout, possibly
	// aliasing the payload Restore booted from) plus the read scalars
	// quality, consumed and maSum.
	frozen []byte
	// lastTouch is the engine access-clock reading of the last apply or
	// rehydrate — the recency the LRU eviction policy orders by.
	lastTouch uint64
	// maSum is the MA ring's running sum, retained while cold so MA
	// sweeps (the MU allocator) never force residency. Only meaningful
	// when tracker is nil; the tracker owns the live value while hot.
	maSum float64
}

// computeQuality recomputes q_i from the maintained dot and norms
// through sparse.CosineOf, the expression Counts.Cosine evaluates, so
// the result is bit-identical to the seed's full-scan computation.
func (r *resource) computeQuality() float64 {
	c := r.tracker.Counts()
	return qualityFrom(r, r.dot, c.Norm2(), c.Posts())
}

// shard owns a disjoint subset of resources behind one lock, plus the
// shard-local slice of every aggregate metric.
type shard struct {
	mu  sync.Mutex
	res []*resource // local index l ↔ global index l*S + shardID

	// walBatch is the shard's reusable group-commit buffer: batch ingest
	// frames all of a shard-batch's WAL records here under the shard
	// lock, then commits them with one store write under the engine's
	// WAL mutex.
	walBatch tagstore.Batch

	// support and record are the shard's reusable record-encoding
	// scratch (appendRecord's sorted support, freezeLocked's record
	// before its exact copy), reused under the shard lock.
	support []entry
	record  []byte

	// batch is the shard batch being applied — the shard's share of one
	// ingest call, in apply order — targets its events' resources, and
	// norm2 its posts' squared norms for the subscriber. All three are
	// reused under the shard lock.
	batch   []PostEvent
	targets []*resource
	norm2   []float64

	// Aggregates, maintained as deltas on every ingest.
	qsum, qcomp float64 // Neumaier-compensated Σ q_i over local resources
	over        int
	under       int
	wasted      int
	spent       int
	posts       int
}

// push appends an event for the resource in local slot l to the shard
// batch. Caller holds the shard lock.
func (sh *shard) push(ev PostEvent, l int) {
	sh.batch = append(sh.batch, ev)
	sh.targets = append(sh.targets, sh.res[l])
}

// resetBatch empties the shard batch. It truncates without clearing:
// clearing would cost every Ingest a runtime call, and the stale events
// past the length pin at most the largest shard batch's posts until
// later batches overwrite them.
func (sh *shard) resetBatch() {
	sh.batch, sh.targets = sh.batch[:0], sh.targets[:0]
}

// ErrResourceRange and ErrEmptyPost mark the two ingest failures that are
// the caller's mistake rather than the engine's: every "resource index
// … out of range" and "empty post" error wraps one of them, with the
// sentinel's text standing where those words always stood in the
// message, so callers classify with errors.Is instead of by wording.
var (
	ErrResourceRange = errors.New("out of range")
	ErrEmptyPost     = errors.New("empty post")
)

// Subscriber is the hook a live query index (ir.OnlineIndex) hangs off
// so it never rescans the corpus and never copies a count vector: the
// engine's vectors and frozen records are the only copy, read through
// ViewCounts and ViewEntries.
//
// ViewLock(s) is the subscriber's VIEW lock over engine shard s's
// resources — their counts and residency. Shards reports how many view
// locks there are; Subscribe refuses a subscriber whose count differs
// from the engine's, so one view lock covers every resource of one
// engine shard. The engine takes the view inside the shard lock (the
// order is always shard → view) around exactly two kinds of write: one
// shard batch — the tracker updates of every post the batch applies,
// then its PostsApplied call — and the pointer swap that ends a freeze
// or a rehydration. Encoding, decoding and WAL I/O never run under it,
// and a reader holding the view needs no engine lock to call ViewCounts
// or ViewEntries. A reader therefore sees a whole shard batch (one
// shard's share of one Ingest, IngestMany or Replay call)
// or none of it; it may still land between two shards of one
// IngestMany.
//
// PostsApplied is invoked once per shard batch, after the counts
// absorbed every post of it, with the batch's posts in apply order, so
// each resource's posts arrive exactly once and in apply order. Each
// post's tags carry an implicit count-delta of +1 (a post names a tag at
// most once); norm2[k] is batch[k].Resource's squared norm right after
// batch[k]. Implementations must be fast, must not retain or mutate the
// batch, and must never call back into the Engine's locking methods —
// they run in the ingest hot path under the shard lock.
type Subscriber interface {
	Shards() int
	ViewLock(shard int) sync.Locker
	PostsApplied(shard int, batch []PostEvent, norm2 []float64)
}

// Engine is a sharded live tagging engine. All exported methods are
// safe for concurrent use; operations on resources in different shards
// proceed in parallel.
type Engine struct {
	cfg    Config
	n      int
	shards []*shard

	// sub is the attached subscriber (nil = none). Written by Subscribe
	// under every shard lock, read under the owning shard's lock on the
	// apply, freeze and rehydrate paths — the lock pair orders the
	// publication.
	sub Subscriber

	walMu sync.Mutex // serializes WAL appends across shards

	// clock is the access-recency clock (see AccessClock); evictions and
	// rehydrations count residency transitions for ResidencyStats.
	clock        atomic.Uint64
	evictions    atomic.Uint64
	rehydrations atomic.Uint64
}

// Subscribe attaches (or, with nil, detaches) the engine's subscriber,
// refusing one whose view-lock count differs from the engine's shard
// count. It takes every shard lock to publish the pointer, so it is
// memory-safe to call while traffic flows, but posts applied before the
// call are not replayed to the subscriber — build it over the engine
// (ir.NewOnlineIndexOver reads every resource through ViewEntries) and
// attach it before serving traffic, as NewService does, for a gap-free
// view. At most one subscriber is held; attaching over an existing one
// replaces it, and a detached index must no longer read the engine.
func (e *Engine) Subscribe(sub Subscriber) error {
	if sub != nil && sub.Shards() != len(e.shards) {
		return fmt.Errorf("engine: subscriber has %d view shards, engine has %d", sub.Shards(), len(e.shards))
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	e.sub = sub
	for _, sh := range e.shards {
		sh.mu.Unlock()
	}
	return nil
}

// New builds an engine over the given resources, replaying each spec's
// Initial prefix into its tracker. Construction is O(total initial
// posts); per-shard aggregates are seeded here so every later Snapshot
// is O(shards).
func New(cfg Config, specs []ResourceSpec) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Omega < 2 {
		return nil, fmt.Errorf("engine: omega must be ≥ 2, got %d", cfg.Omega)
	}
	n := len(specs)
	if cfg.WAL != nil && !walCapacityOK(n) {
		return nil, fmt.Errorf("engine: %d resources overflow the WAL's 32-bit record ids", n)
	}
	if err := checkSpecs(specs, cfg.IDs); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, n: n, shards: make([]*shard, cfg.Shards)}
	for s := range e.shards {
		e.shards[s] = &shard{}
	}
	// Global ascending order keeps shard-local slices ordered by global
	// index and, for Shards=1, makes the initial quality sum's order
	// match the seed's left-to-right scan.
	for i, spec := range specs {
		r := newResource(spec)
		r.tracker = stability.NewTracker(cfg.Omega)
		for _, p := range spec.Initial {
			if r.refCounts != nil {
				r.addDot(p)
			}
			r.tracker.Observe(p)
		}
		r.consumed = len(spec.Initial)
		r.quality = r.computeQuality()

		sh := e.shards[i%cfg.Shards]
		sh.index(r, cfg.UnderThreshold)
		sh.qsum, sh.qcomp = stats.NeumaierAdd(sh.qsum, sh.qcomp, r.quality)
	}
	return e, nil
}

// checkSpecs refuses what no resource may declare: a negative stable
// point or cost, or an id list of another length. New and Restore both
// run it before building.
func checkSpecs(specs []ResourceSpec, ids []uint32) error {
	if ids != nil && len(ids) != len(specs) {
		return fmt.Errorf("engine: %d ids for %d resources", len(ids), len(specs))
	}
	for i, spec := range specs {
		if spec.StableK < 0 {
			return fmt.Errorf("engine: resource %d: negative stable point %d", i, spec.StableK)
		}
		if spec.Cost < 0 {
			return fmt.Errorf("engine: resource %d: negative cost %d", i, spec.Cost)
		}
	}
	return nil
}

// newResource builds the spec-derived part of a resource — what no
// snapshot stores: stable point, task cost (default 1) and the fields
// pre-extracted from the reference. The caller supplies the tagging
// state (a tracker in New, a frozen record in Restore).
func newResource(spec ResourceSpec) *resource {
	r := &resource{stableK: spec.StableK, cost: max(spec.Cost, 1)}
	if spec.Ref != nil {
		rc := spec.Ref.Counts()
		r.refCounts = rc
		r.refNorm2 = rc.Norm2()
		r.refPosts = rc.Posts()
	}
	return r
}

// addDot folds one post into the maintained reference dot product.
// Every term is an integer, so the sum is exact in any order.
func (r *resource) addDot(p tags.Post) {
	for _, t := range p {
		r.dot += r.refCounts.Get(t)
	}
}

// walCapacityOK reports whether n resources fit the WAL's 32-bit record
// ids. New rejects WAL-configured engines beyond it, which is what makes
// the plain uint32 casts on the ingest paths safe: every ingested index
// is validated against [0, n) first, so no index can silently truncate.
func walCapacityOK(n int) bool {
	return uint64(n) <= uint64(math.MaxUint32)+1
}

// N returns the number of resources.
func (e *Engine) N() int { return e.n }

// id is resource i's id in the WAL and in caller-facing errors: its
// Config.IDs entry, or i itself.
func (e *Engine) id(i int) int {
	if e.cfg.IDs != nil {
		return int(e.cfg.IDs[i])
	}
	return i
}

// Shards returns the configured shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// locate maps a global resource index to its shard and local slot.
func (e *Engine) locate(i int) (*shard, int) {
	return e.shards[i%len(e.shards)], i / len(e.shards)
}

// Ingest applies one post to resource i: WAL append (when configured),
// tracker observation, incremental quality update, and O(1) aggregate
// metric deltas. It is safe to call concurrently; posts for the same
// resource are serialized by its shard lock. The WAL append happens
// under that lock (lock order: shard → wal), so the log's per-resource
// record order always matches the order the engine applied — crash
// recovery replays exactly the live history. It is a shard batch of one
// (see applyShard).
func (e *Engine) Ingest(i int, p tags.Post) error {
	if i < 0 || i >= e.n {
		return fmt.Errorf("engine: resource index %d %w [0,%d)", i, ErrResourceRange, e.n)
	}
	if len(p) == 0 {
		return fmt.Errorf("engine: %w for resource %d", ErrEmptyPost, e.id(i))
	}
	s, l := i%len(e.shards), i/len(e.shards)
	sh := e.shards[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.push(PostEvent{Resource: i, Post: p}, l)
	return e.applyShard(s, sh, e.cfg.WAL != nil)
}

// PostEvent is one element of a cross-resource ingest batch.
type PostEvent struct {
	// Resource is the target resource index.
	Resource int
	// Post is the post to ingest.
	Post tags.Post
}

// IngestMany applies a batch of posts spanning arbitrary resources. One
// counting-sort pass buckets the events by shard, keeping slice order
// within each bucket, so the whole call is O(batch + shards) and a
// shard walks only its own events. Each touched shard then applies its
// bucket as one shard batch: its lock is taken once, its WAL records are
// group-committed with one store write, and its events are applied in
// slice order — so for any fixed resource (and any fixed shard) the
// outcome is bit-identical to calling Ingest per event in slice order.
// Shards go in ascending order, and a concurrent reader may see some
// shards' batches and not yet others'.
//
// All events are validated before anything is applied. A rehydration or
// WAL error aborts with that shard and every later one unapplied (the
// same prefix-durability contract as a sequence of Ingest calls); state
// is never mutated ahead of its WAL record.
func (e *Engine) IngestMany(events []PostEvent) error {
	for k, ev := range events {
		if ev.Resource < 0 || ev.Resource >= e.n {
			return fmt.Errorf("engine: event %d: resource index %d %w [0,%d)", k, ev.Resource, ErrResourceRange, e.n)
		}
		if len(ev.Post) == 0 {
			return fmt.Errorf("engine: event %d: %w for resource %d", k, ErrEmptyPost, e.id(ev.Resource))
		}
	}
	// Counting sort: ends[s] counts shard s's events, then (as a prefix
	// sum) is the cursor placing them, after which it marks where shard
	// s's bucket of order ends. keys[k] is event k's shard.
	nshards := len(e.shards)
	var endsBuf [64]int
	var keysBuf, orderBuf [256]int32
	ends, keys, order := endsBuf[:], keysBuf[:], orderBuf[:]
	if nshards > len(ends) {
		ends = make([]int, nshards)
	}
	if len(events) > len(order) {
		keys, order = make([]int32, len(events)), make([]int32, len(events))
	}
	ends, keys, order = ends[:nshards], keys[:len(events)], order[:len(events)]
	for k, ev := range events {
		s := ev.Resource % nshards
		keys[k] = int32(s)
		ends[s]++
	}
	at := 0
	for s, c := range ends {
		ends[s] = at
		at += c
	}
	for k, s := range keys {
		order[ends[s]] = int32(k)
		ends[s]++
	}
	from := 0
	for s, to := range ends {
		if from == to {
			continue
		}
		sh := e.shards[s]
		sh.mu.Lock()
		for _, k := range order[from:to] {
			sh.push(events[k], events[k].Resource/nshards)
		}
		err := e.applyShard(s, sh, e.cfg.WAL != nil)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
		from = to
	}
	return nil
}

// applyShard is the one apply path: every ingest call, and Replay, pushes
// its share of shard s onto the shard batch in apply order and calls it
// under the shard lock. It rehydrates every cold target, then (when logged)
// group-commits the batch's WAL records, then applies every post —
// tracker, reference dot, quality and aggregate deltas — under one view
// lock, and hands the subscriber the whole batch before releasing the
// view. A failed rehydration or WAL write returns with nothing of the
// batch logged or applied. The shard batch is left empty either way.
func (e *Engine) applyShard(s int, sh *shard, logged bool) error {
	defer sh.resetBatch()
	batch := sh.batch
	for k, r := range sh.targets {
		if err := e.ensureResidentLocked(r, batch[k].Resource); err != nil {
			return err
		}
	}
	if logged {
		for _, ev := range batch {
			if err := sh.walBatch.Add(uint32(e.id(ev.Resource)), ev.Post); err != nil { // cast safe: New enforces walCapacityOK
				sh.walBatch.Reset()
				return fmt.Errorf("engine: wal: %w", err)
			}
		}
		if err := e.commitWALBatch(sh); err != nil {
			return err
		}
	}
	var view sync.Locker
	sub := e.sub
	if sub != nil {
		view = sub.ViewLock(s)
		view.Lock()
	}
	// The batch's access-clock ticks are reserved at once; its posts take
	// them in apply order.
	tick := e.clock.Add(uint64(len(batch))) - uint64(len(batch))
	for k, ev := range batch {
		r := sh.targets[k]
		// Waste: the task ran while the resource was already at or past
		// its stable point (seed semantics: judged BEFORE the post applies).
		if r.stableK > 0 && r.consumed >= r.stableK {
			sh.wasted++
		}
		if r.refCounts != nil {
			r.addDot(ev.Post)
		}
		r.tracker.Observe(ev.Post)
		if sub != nil {
			sh.norm2 = append(sh.norm2, r.tracker.Counts().Norm2())
		}
		r.consumed++
		tick++
		r.lastTouch = tick

		oldQ := r.quality
		r.quality = r.computeQuality()
		sh.qsum, sh.qcomp = stats.NeumaierAdd(sh.qsum, sh.qcomp, r.quality-oldQ)

		// Over-tagged can only flip false→true (counts are monotone).
		if r.stableK > 0 && r.consumed == r.stableK {
			sh.over++
		}
		// Under-tagged can only flip true→false, exactly when the count
		// leaves the threshold.
		if e.cfg.UnderThreshold >= 0 && r.consumed == e.cfg.UnderThreshold+1 {
			sh.under--
		}
		sh.spent += r.cost
		sh.posts++
	}
	if sub != nil {
		sub.PostsApplied(s, batch, sh.norm2)
		view.Unlock()
		sh.norm2 = sh.norm2[:0]
	}
	return nil
}

// commitWALBatch writes the shard's framed WAL batch under the engine's
// WAL mutex and resets the buffer for reuse. Caller holds sh.mu, so the
// log's per-shard record order always matches apply order (lock order:
// shard → wal).
func (e *Engine) commitWALBatch(sh *shard) error {
	e.walMu.Lock()
	err := e.cfg.WAL.AppendBatch(&sh.walBatch)
	if err == nil {
		// Commit visibility: one group-commit flush per shard batch, so
		// every record of the batch reaches the OS before any of its
		// posts is acknowledged and a killed process never loses an
		// acknowledged post (fsync for OS-crash durability is the store's
		// SyncOnFlush option).
		err = e.cfg.WAL.Flush()
	}
	e.walMu.Unlock()
	sh.walBatch.Reset()
	if err != nil {
		return fmt.Errorf("engine: wal: %w", err)
	}
	return nil
}

// Count returns the number of posts resource i has received (primed +
// ingested): c_i + x_i.
func (e *Engine) Count(i int) int {
	sh, l := e.locate(i)
	sh.mu.Lock()
	c := sh.res[l].consumed
	sh.mu.Unlock()
	return c
}

// MA returns resource i's current MA stability score (Definition 7);
// ok is false while the resource has fewer than ω posts.
func (e *Engine) MA(i int) (float64, bool) {
	sh, l := e.locate(i)
	sh.mu.Lock()
	ma, ok := sh.res[l].ma(e.cfg.Omega)
	sh.mu.Unlock()
	return ma, ok
}

// QualityOf returns resource i's current quality q_i = s(F_i, φ̂_i),
// or 0 when the resource has no reference.
func (e *Engine) QualityOf(i int) float64 {
	sh, l := e.locate(i)
	sh.mu.Lock()
	q := sh.res[l].quality
	sh.mu.Unlock()
	return q
}

// CostOf returns the reward-unit cost of one post task on resource i.
func (e *Engine) CostOf(i int) int {
	sh, l := e.locate(i)
	// cost is immutable after construction; no lock needed.
	return sh.res[l].cost
}

// Snapshot reads the incrementally maintained aggregates — an O(shards)
// operation, independent of resource count and tag universe. Concurrent
// ingests on other shards may land between per-shard reads; callers
// needing a fully consistent cut should quiesce writers first (the
// simulator, being single-goroutine, always sees a consistent cut).
func (e *Engine) Snapshot() Metrics {
	var m Metrics
	var qsum, qcomp float64
	for _, sh := range e.shards {
		sh.mu.Lock()
		qsum += sh.qsum
		qcomp += sh.qcomp
		m.OverTagged += sh.over
		m.UnderTagged += sh.under
		m.WastedPosts += sh.wasted
		m.Spent += sh.spent
		m.Posts += sh.posts
		sh.mu.Unlock()
	}
	m.Resources = e.n
	m.QualitySum = qsum + qcomp
	if e.n > 0 {
		m.MeanQuality = m.QualitySum / float64(e.n)
		m.UnderTaggedPct = float64(m.UnderTagged) / float64(e.n)
	}
	return m
}

// VerifyMetrics recomputes the aggregates by the seed simulator's full
// O(n·|tags|) scan — per-resource cosine against the reference, fresh
// over-/under-tagged recount — and is the reference oracle the
// incremental path is tested against. Not for hot paths.
func (e *Engine) VerifyMetrics() Metrics {
	var m Metrics
	var qsum float64
	for i := 0; i < e.n; i++ {
		sh, l := e.locate(i)
		sh.mu.Lock()
		r := sh.res[l]
		if r.refCounts != nil {
			tr := r.tracker
			if tr == nil {
				tr = e.frozenTracker(r, i)
			}
			qsum += tr.Counts().Cosine(r.refCounts)
		}
		if r.stableK > 0 && r.consumed >= r.stableK {
			m.OverTagged++
		}
		if e.cfg.UnderThreshold >= 0 && r.consumed <= e.cfg.UnderThreshold {
			m.UnderTagged++
		}
		sh.mu.Unlock()
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
		m.WastedPosts += sh.wasted
		m.Spent += sh.spent
		m.Posts += sh.posts
		sh.mu.Unlock()
	}
	m.Resources = e.n
	m.QualitySum = qsum
	if e.n > 0 {
		m.MeanQuality = qsum / float64(e.n)
		m.UnderTaggedPct = float64(m.UnderTagged) / float64(e.n)
	}
	return m
}

// SnapshotRFDs clones every resource's current rfd counts — the input
// of the similarity case studies (§V-C).
func (e *Engine) SnapshotRFDs() []*sparse.Counts {
	out := make([]*sparse.Counts, e.n)
	for i := 0; i < e.n; i++ {
		sh, l := e.locate(i)
		sh.mu.Lock()
		if r := sh.res[l]; r.tracker != nil {
			out[i] = r.tracker.Snapshot()
		} else {
			// Cold: the transient decode IS an independent copy.
			out[i] = e.frozenTracker(r, i).Counts()
		}
		sh.mu.Unlock()
	}
	return out
}
