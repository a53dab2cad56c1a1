// The online index: the live-serving counterpart of BuildInverted.
//
// BuildInverted is immutable — the serving read path used to rebuild it
// from a full SnapshotRFDs clone on every query, making each /topk an
// O(n·|tags|) scan-and-allocate. OnlineIndex keeps the same posting
// lists mutable and maintains them incrementally from the engine's
// stream of shard batches (one engine shard's share of one ingest call,
// absorbed in one pass), so a query only ever touches the subject's
// posting lists and the corpus is never rescanned after the one-time
// seed at construction.
//
// The index holds no count vectors. Each resource's counts live in one
// place — the engine's tracker while the resource is hot, its frozen
// record while it is cold — and the index reads them through Vectors.
// The index's shard locks double as the engine's view locks, one per
// engine shard (see engine.Subscriber), so a query reads the counts and
// the residency of every resource at the same epoch without taking an
// engine lock, and sees each shard batch whole or not at all. What
// the index owns is what only queries need: plain posting lists, the
// dense norm² cache and the epoch. Candidates are scored from postings
// alone, so only a cold subject is read off its record, transiently, and
// it stays cold.
//
// Every ranking runs the one scoring kernel (kernel.go): accumulate the
// query into a dense dot row, rank the row. No pruning: at the served
// corpus size the plain scan is the faster one, and it is bit-identical
// to BuildInverted over the same counts, the one exhaustive oracle.
package ir

import (
	"slices"
	"sync"
	"sync/atomic"

	"incentivetag/internal/engine"
	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// Vectors is where an OnlineIndex reads each resource's counts: the
// engine (*engine.Engine) on a serving node, or vectors the index owns
// (NewOnlineIndex). The index calls both methods only while it holds its
// view lock over resource i (i's shard lock, read or write), and the
// owner of the counts takes that lock (OnlineIndex.ViewLock) around every
// write to i's counts or residency.
type Vectors interface {
	// ViewCounts returns i's live count vector, or nil while i is cold.
	ViewCounts(i int) *sparse.Counts
	// ViewEntries streams i's non-zero (tag, count) support and returns
	// its post count. A cold resource streams in ascending tag order.
	ViewEntries(i int, fn func(t tags.Tag, n int64)) int
}

// ownedVecs is the Vectors of an index that owns its count vectors
// (NewOnlineIndex): Apply mutates them, and they are never cold.
type ownedVecs []*sparse.Counts

func (v ownedVecs) ViewCounts(i int) *sparse.Counts { return v[i] }

func (v ownedVecs) ViewEntries(i int, fn func(t tags.Tag, n int64)) int {
	v[i].ForEach(fn)
	return v[i].Posts()
}

// OnlineIndex is a mutable, shard-partitioned inverted index over live
// rfd state. Resources are partitioned across S shards (resource i
// lives on shard i mod S, matching the engine's partition so each
// engine shard's ingest stream lands on exactly one index shard); each
// shard guards its posting lists — and, as the view lock, its
// resources' counts and residency — with its own RWMutex, so concurrent
// ingest on different shards proceeds in parallel and never contends
// until a query runs.
//
// # Consistency
//
// Queries are epoch-versioned consistent snapshots: a reader acquires
// every shard's read lock in shard order before touching any state and
// holds all of them for the duration, so the view it scores against is
// the state at the instant the last lock landed — no post is ever
// half-visible across shards, and no resource is half-frozen. A writer
// holds a shard's lock across a whole shard batch, so a reader sees
// every post of a batch or none; two shards of one engine IngestMany
// are two batches, and a reader may land between them. The epoch is the
// number of posts applied to the index since construction; it is stable
// while a reader holds the locks and is returned with every query, so
// callers can order answers and assert freshness, and it never falls
// inside a batch. Writers (the engine's subscriber calls, or Apply)
// block only for the duration of a query, not for other writers on
// different shards.
//
// # Exactness
//
// Posting counts, norms and dot products are all integer-valued and
// exactly representable in float64, so TopK is bit-identical to
// BuildInverted(SnapshotRFDs()).TopK over the same state regardless of
// the order posts arrived — asserted posting-for-posting by the
// randomized equivalence tests (see the kernel.go header).
type OnlineIndex struct {
	n      int
	shards []*onlineShard

	// vecs is where resource counts are read, under the view lock. own
	// is the same vectors when the index owns them (NewOnlineIndex) and
	// nil over an engine.
	vecs Vectors
	own  ownedVecs

	// epoch counts applied posts; a batch reserves its posts' epochs with
	// one add under the owning shard's write lock, and readers read it
	// under every read lock (no writer mid-batch), so a query's epoch is
	// exact; a TopK answer exact at it is served without.
	epoch atomic.Uint64

	// dir is the query directory: one row per tag, holding its posting
	// lists (one per shard that has one) and its census count, so a query
	// finds a tag's postings in one probe instead of one per shard, and
	// Stats().Tags is the table's size. It changes only when a list or a
	// posting is created, under the owning shard's write lock plus
	// censusMu (serializing creators on different shards); queries read
	// it lock-free because they hold every shard's read lock, which
	// excludes all writers.
	dir tagTable[dirRow]

	// norm2[id] caches resource id's scoring norm: its squared norm, or
	// 0 when the resource has no posts (the selection paths skip those
	// candidates) — one dense read on the selection hot path, hot or
	// cold alike, instead of a read of the resource's counts. Each
	// element is written only under its owning shard's write lock and
	// read under the all-shards query view.
	norm2 []float64

	// scratchPool recycles per-query state (dot row, lifted query, heap
	// backing) so the serving read path allocates nothing but its result.
	scratchPool sync.Pool

	cache topkCache // the TopK result cache and write log (topkcache.go)

	// census counters, maintained incrementally on first-touch posting
	// creation so Stats is O(1) instead of a full posting-list walk.
	// censusMu guards them and dir's writers, and nests inside a shard
	// write lock (never the reverse).
	censusMu     sync.Mutex
	postingCount int
	maxPostings  int

	topkQueries      atomic.Uint64
	searchQueries    atomic.Uint64
	candidatesScored atomic.Uint64
}

// dirRow is one tag's query-directory row: its posting lists, one per
// shard that has one, and its posting count across them.
type dirRow struct {
	lists    []*postingList
	postings int
}

// onlineShard owns the posting lists of every tag used by the resources
// with id ≡ shardID (mod S). Its lock is the view lock over those
// resources' counts and residency.
//
// A bump's cost is finding its list, not scanning it (see scanMax), so
// postings is a flat tag table, probed once per tag.
type onlineShard struct {
	mu sync.RWMutex
	// postings maps tag → the shard-local posting list.
	postings tagTable[*postingList]
}

// NewOnlineIndex seeds an online index over count vectors it takes
// ownership of (pass clones, e.g. Engine.SnapshotRFDs — Apply mutates
// them). shards ≤ 0 selects 1. It is NewOnlineIndexOver for an index
// that is its own vector owner, as the benchmarks and tests drive it.
func NewOnlineIndex(rfds []*sparse.Counts, shards int) *OnlineIndex {
	ix := NewOnlineIndexOver(ownedVecs(rfds), len(rfds), shards)
	ix.own = rfds
	return ix
}

// NewOnlineIndexOver seeds an online index over n resources whose counts
// live in vecs; a serving node passes its engine and then attaches the
// index as the engine's subscriber before any traffic flows. Each
// resource's support streams once through ViewEntries (a cold resource
// straight off its record, residency unchanged): this is the only corpus
// scan the index ever performs, and every later change arrives through
// PostsApplied. The caller must keep writers out until it returns.
// shards ≤ 0 selects 1. A cluster member's engine holds its owned
// resources only, so its index needs no ownership set of its own.
func NewOnlineIndexOver(vecs Vectors, n, shards int) *OnlineIndex {
	if shards <= 0 {
		shards = 1
	}
	ix := &OnlineIndex{
		n:      n,
		shards: make([]*onlineShard, shards),
		vecs:   vecs,
		norm2:  make([]float64, n),
		cache:  topkCache{entries: make(map[int]*topkEntry), maxRows: rowBytes / (8 * max(n, 1))},
	}
	for s := range ix.shards {
		ix.shards[s] = &onlineShard{}
	}
	var i, s int
	var n2 float64
	seed := func(t tags.Tag, c int64) {
		ix.posting(s, t).add(int32(i), c)
		ix.notePosting(t)
		n2 += float64(c) * float64(c)
	}
	for i = 0; i < n; i++ {
		s, n2 = i%shards, 0
		// A post-less resource keeps norm² 0: the "cannot score" marker
		// the ranking tests.
		if vecs.ViewEntries(i, seed) != 0 {
			ix.norm2[i] = n2
		}
	}
	return ix
}

// posting returns shard s's posting list for t, creating it — and its
// tag-directory entry — on first use. Caller holds shard s's write lock
// (or is the constructor); censusMu serializes directory writers racing
// from different shards.
func (ix *OnlineIndex) posting(s int, t tags.Tag) *postingList {
	slot := ix.shards[s].postings.put(t)
	if *slot == nil {
		*slot = &postingList{}
		ix.censusMu.Lock()
		row := ix.dir.put(t)
		row.lists = append(row.lists, *slot)
		ix.censusMu.Unlock()
	}
	return *slot
}

// notePosting records a newly created posting entry in the census. Safe
// under any shard lock; first-touch only, so steady-state ingest never
// takes censusMu.
func (ix *OnlineIndex) notePosting(t tags.Tag) {
	ix.censusMu.Lock()
	ix.postingCount++
	row := ix.dir.put(t)
	row.postings++
	ix.maxPostings = max(ix.maxPostings, row.postings)
	ix.censusMu.Unlock()
}

// N returns the number of indexed resources.
func (ix *OnlineIndex) N() int { return ix.n }

// Shards returns the number of index shards — of view locks.
func (ix *OnlineIndex) Shards() int { return len(ix.shards) }

// ViewLock returns the view lock over the resources of shard (those
// with id ≡ shard mod Shards): the write side of that index shard's lock.
// The owner of the counts (the engine, through engine.Subscriber) holds
// it around every write to those resources' counts or residency, always
// inside its own lock for them.
func (ix *OnlineIndex) ViewLock(shard int) sync.Locker { return &ix.shards[shard].mu }

// PostsApplied folds a shard batch into the index, under the view lock
// the caller holds over shard (see ViewLock): every batch resource's
// counts have already absorbed its posts, and norm2[k] is
// batch[k].Resource's squared norm right after batch[k]. Each tag of
// each post bumps the resource's entry in that tag's posting list, or
// creates it on the resource's first use of the tag: a post names a tag
// at most once, so each count-delta is +1. Callers must deliver each
// resource's posts in apply order (the engine calls it under its shard
// lock, which guarantees exactly that). Once the lists have absorbed the
// batch, one add reserves its epochs, and each post lands in the write
// log under its own.
func (ix *OnlineIndex) PostsApplied(shard int, batch []engine.PostEvent, norm2 []float64) {
	lists := &ix.shards[shard].postings
	for k, ev := range batch {
		ix.norm2[ev.Resource] = norm2[k] // a post landed, so the resource scores
		for _, t := range ev.Post {
			pl := lists.get(t) // inlined: the common case, an existing list
			if pl == nil {
				pl = ix.posting(shard, t)
			}
			if pl.bump(int32(ev.Resource)) {
				ix.notePosting(t)
			}
		}
	}
	epoch := ix.epoch.Add(uint64(len(batch))) - uint64(len(batch))
	for _, ev := range batch {
		epoch++
		ix.cache.logPost(epoch, ev.Resource, ev.Post)
	}
}

// Apply folds one post into an index that owns its vectors
// (NewOnlineIndex): the resource's vector absorbs the post and
// PostsApplied takes it as a batch of one, both under the view lock — the same
// sequence the engine runs for an index built over it. Invalid resources
// and empty posts are ignored. Safe for concurrent use; posts for
// resources on different shards proceed in parallel.
func (ix *OnlineIndex) Apply(resource int, p tags.Post) {
	if ix.own == nil {
		panic("ir: Apply on an index that does not own its vectors")
	}
	if resource < 0 || resource >= ix.n || len(p) == 0 {
		return
	}
	s := resource % len(ix.shards)
	sh := ix.shards[s]
	sh.mu.Lock()
	c := ix.own[resource]
	c.Add(p)
	ix.PostsApplied(s, []engine.PostEvent{{Resource: resource, Post: p}}, []float64{c.Norm2()})
	sh.mu.Unlock()
}

// rlockAll acquires every shard's read lock in shard order. Once the
// last lock lands no writer can be mid-apply anywhere, so the state —
// and the epoch — form a consistent point-in-time view until
// runlockAll.
func (ix *OnlineIndex) rlockAll() {
	for _, sh := range ix.shards {
		sh.mu.RLock()
	}
}

func (ix *OnlineIndex) runlockAll() {
	for _, sh := range ix.shards {
		sh.mu.RUnlock()
	}
}

// TopK returns the k most similar resources to subject over the live
// state, bit-identical to BuildInverted(SnapshotRFDs()).TopK at the
// returned epoch. The result cache (topkcache.go) answers a repeated
// subject; otherwise the subject's row is built in a pooled scratch row
// and ranked (kernel.go). Invalid subjects or k ≤ 0 return nil.
func (ix *OnlineIndex) TopK(subject, k int) ([]Scored, uint64) {
	ix.topkQueries.Add(1)
	if k <= 0 || subject < 0 || subject >= ix.n {
		return nil, ix.epoch.Load()
	}
	// An answer exact at the current epoch is served without the view (no
	// post landed since); else the entry is retaken under it, as elsewhere.
	e := ix.cache.entry(subject)
	e.mu.Lock()
	defer e.mu.Unlock()
	if epoch := ix.epoch.Load(); e.res != nil && e.k == k && e.epoch == epoch {
		ix.cache.serves.Add(1)
		return slices.Clone(e.res), epoch
	}
	e.mu.Unlock()
	ix.rlockAll()
	defer ix.runlockAll()
	e.mu.Lock()
	epoch := ix.epoch.Load()
	res := ix.cachedTopK(e, k, epoch)
	if res == nil {
		ix.cache.executed.Add(1)
		sc := ix.getScratch()
		ix.lift(sc, subject)
		res = ix.execute(sc, sc.query, subject, ix.norm2[subject], false, k)
		ix.putScratch(sc)
		e.k, e.res = k, res
	}
	e.epoch = epoch
	return slices.Clone(res), epoch
}

// normalizeQuery enforces the tags.Post invariant (sorted, distinct,
// non-negative) on a search query, returning the input unchanged when
// it already holds. Queries that normalize to nothing (or contain
// invalid ids) return nil.
func normalizeQuery(q tags.Post) tags.Post {
	clean := true
	for i, t := range q {
		if t < 0 || (i > 0 && t <= q[i-1]) {
			clean = false
			break
		}
	}
	if clean {
		return q
	}
	p, err := tags.NewPost(q...)
	if err != nil {
		return nil
	}
	return p
}

// Search ranks resources by cosine similarity between the query tag set
// (a unit-count vector: each distinct tag weighs 1) and every live rfd
// — the paper's query-by-tag-set retrieval operation. The query is
// deduplicated internally, so a tag listed twice scores exactly like a
// tag listed once (callers below the HTTP layer used to see inflated
// dots against an un-deduplicated norm). Only resources sharing at
// least one query tag can score above zero, so the result holds at most
// min(k, |candidates|) entries, score-descending with ties broken
// toward smaller ids; zero-overlap resources are not padded in (an
// empty result means nothing matched). Like TopK it runs the one
// kernel, bit-identical to InvertedIndex.search; on cluster members,
// whose indexes hold disjoint parts of the corpus, per-node answers merge
// into exactly the single-node ranking under the (score desc, id asc)
// comparator. Returns the epoch-consistent view it scored against.
func (ix *OnlineIndex) Search(query tags.Post, k int) ([]Scored, uint64) {
	ix.searchQueries.Add(1)
	query = normalizeQuery(query)
	if k <= 0 || len(query) == 0 || ix.n == 0 {
		return nil, ix.epoch.Load()
	}
	ix.rlockAll()
	epoch := ix.epoch.Load()
	sc := ix.getScratch()
	for _, t := range query {
		sc.query = append(sc.query, WeightedTag{Tag: t, Count: 1})
	}
	// The query vector's squared norm is |query| exactly (unit counts
	// over distinct tags). The score expression mirrors
	// sparse.Counts.Cosine term for term (single sqrt of the norm
	// product, same clamping), so a Search score is bit-identical to
	// Cosine against a count vector holding the query.
	res := ix.execute(sc, sc.query, -1, float64(len(query)), true, k)
	ix.putScratch(sc)
	ix.runlockAll()
	return res, epoch
}

// OnlineStats is a point-in-time census of the online index, exposed
// through Service.QueryStats and GET /info.
type OnlineStats struct {
	// Epoch is the number of posts applied since construction (or since
	// the recovery-time reseed — a restarted server starts at 0 again
	// with the recovered state already folded into the seed).
	Epoch uint64 `json:"epoch"`
	// Resources is the indexed corpus size; Shards the partition width.
	Resources int `json:"resources"`
	Shards    int `json:"shards"`
	// Tags and Postings size the inverted structure; MaxPostings is the
	// longest single posting list (the worst-case candidate fan-out of
	// one query tag). All three are O(1) reads of incrementally
	// maintained counters.
	Tags        int `json:"tags"`
	Postings    int `json:"postings"`
	MaxPostings int `json:"max_postings"`
	// TopKQueries / SearchQueries count queries the index answered since
	// boot, cached answers included (see CacheHits).
	TopKQueries   uint64 `json:"topk_queries"`
	SearchQueries uint64 `json:"search_queries"`
	// CandidatesScored counts candidates the kernel scored exactly: the
	// ones its fast reject let through to the score expression.
	CandidatesScored uint64 `json:"candidates_scored"`
	// BlocksSkipped always reads 0 and is not on the wire: posting lists
	// have no blocks since the block-max executor went. The field stays
	// only because the benchmark's ir.blocks_skipped_per_topk reads it,
	// until a benchmark change drops that metric.
	BlocksSkipped uint64 `json:"-"`
	// CacheHits counts TopK answers given without building a row:
	// CacheServes (a stored answer still stood) plus CacheReranks (a hot
	// subject's dot row, folded from the write log, was ranked again).
	// CacheMisses counts scratch-row builds plus CacheRebuilds (a kept row
	// built from the posting lists). CacheEntries counts subjects with an
	// answer.
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	CacheEntries  int    `json:"cache_entries"`
	CacheServes   uint64 `json:"cache_serves"`
	CacheReranks  uint64 `json:"cache_reranks"`
	CacheRebuilds uint64 `json:"cache_rebuilds"`
}

// Stats reads the index census in O(1): every field is an atomic or an
// incrementally maintained counter — no shard lock, no posting walk. A
// census read racing ingest may see a posting-count a hair ahead of the
// epoch it reports; each counter is individually exact.
func (ix *OnlineIndex) Stats() OnlineStats {
	st := OnlineStats{
		Epoch:            ix.epoch.Load(),
		Resources:        ix.n,
		Shards:           len(ix.shards),
		TopKQueries:      ix.topkQueries.Load(),
		SearchQueries:    ix.searchQueries.Load(),
		CandidatesScored: ix.candidatesScored.Load(),
		CacheServes:      ix.cache.serves.Load(),
		CacheReranks:     ix.cache.reranks.Load(),
		CacheRebuilds:    ix.cache.rebuilds.Load(),
	}
	st.CacheHits = st.CacheServes + st.CacheReranks
	st.CacheMisses = ix.cache.executed.Load() + st.CacheRebuilds
	ix.cache.mu.Lock()
	st.CacheEntries = len(ix.cache.entries)
	ix.cache.mu.Unlock()
	ix.censusMu.Lock()
	st.Tags = ix.dir.n
	st.Postings = ix.postingCount
	st.MaxPostings = ix.maxPostings
	ix.censusMu.Unlock()
	return st
}
