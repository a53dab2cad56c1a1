// The online index: the live-serving counterpart of BuildInverted.
//
// BuildInverted is immutable — the serving read path used to rebuild it
// from a full SnapshotRFDs clone on every query, making each /topk an
// O(n·|tags|) scan-and-allocate. OnlineIndex keeps the same posting
// lists mutable and maintains them incrementally from the engine's
// per-post ingest stream, so a query only ever touches the subject's
// posting lists and the corpus is never rescanned after the one-time
// seed at construction.
//
// The index holds no count vectors. Each resource's counts live in one
// place — the engine's tracker while the resource is hot, its frozen
// record while it is cold — and the index reads them through Vectors.
// The index's shard locks double as the engine's view lock (see
// engine.Subscriber), so a query reads the counts and the residency of
// every resource at the same epoch without taking an engine lock. What
// the index owns is what only queries need: posting lists, block maxima,
// the dense norm² cache and the epoch. A cold subject, or a cold
// pruning survivor, is read off its record transiently and stays cold.
//
// Since the block-max rework (see blockmax.go) the serving TopK/Search
// paths additionally prune: posting lists are impact-ordered and
// blocked, and whole blocks/tags whose score upper bound cannot beat
// the current kth answer are skipped outright — bit-identical to the
// exhaustive paths, which remain available as TopKExhaustive and
// SearchExhaustive (the pruning oracle).
package ir

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// Vectors is where an OnlineIndex reads each resource's counts: the
// engine (*engine.Engine) on a serving node, or vectors the index owns
// (NewOnlineIndex). The index calls both methods only while it holds its
// view lock over resource i (i's shard lock, read or write), and the
// owner of the counts takes that lock (OnlineIndex.Lock) around every
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
// half-visible across shards, and no resource is half-frozen. The epoch
// is the number of posts applied to the index since construction; it is
// stable while a reader holds the locks and is returned with every
// query, so callers can order answers and assert freshness. Writers
// (the engine's subscriber calls, or Apply) block only for the duration
// of a query, not for other writers on different shards.
//
// # Exactness
//
// Posting counts, norms and dot products are all integer-valued and
// exactly representable in float64, so TopK is bit-identical to
// BuildInverted(SnapshotRFDs()).TopK over the same state regardless of
// the order posts arrived — asserted posting-for-posting by the
// randomized equivalence tests. The pruned serving paths preserve this
// bit-identity: see the blockmax.go header for why every skip decision
// is provably safe.
type OnlineIndex struct {
	n      int
	shards []*onlineShard

	// vecs is where resource counts are read, under the view lock. own
	// is the same vectors when the index owns them (NewOnlineIndex) and
	// nil over an engine.
	vecs Vectors
	own  ownedVecs

	// owned, when non-nil, holds one entry per resource: the set a
	// cluster member ranks. Only its resources have postings, so every
	// ranking the index serves — candidates and zero-similarity padding
	// alike — covers it alone; norm2 and the epoch still count every
	// resource. nil owns every resource.
	owned []bool

	// epoch counts applied posts; incremented under the owning shard's
	// write lock, read by queries while holding every read lock (when no
	// writer can be mid-apply), so a query's reported epoch is exact.
	epoch atomic.Uint64

	// dir is the tag directory: tag → its posting list in every shard
	// (nil where the shard has none) plus the tag's index-wide impact
	// bound, so a query plans with ONE map lookup and ONE atomic load
	// per tag instead of a walk over every shard. Row-slot writes happen
	// only at list creation, under the owning shard's write lock plus
	// censusMu (serializing creators on different shards); queries read
	// the rows lock-free because they hold every shard's read lock,
	// which excludes all writers.
	dir map[tags.Tag]*dirRow

	// norm2[id] caches resource id's scoring norm: its squared norm, or
	// 0 when the resource has no posts (the exhaustive paths skip those
	// candidates) — one dense read on the selection hot path, hot or
	// cold alike, instead of a read of the resource's counts. Each
	// element is written only under its owning shard's write lock and
	// read under the all-shards query view.
	norm2 []float64

	// scratchPool recycles per-query state (visited set, tag plan, heap
	// backing) so the serving read path allocates nothing but its result.
	scratchPool sync.Pool

	// census counters, maintained incrementally on first-touch posting
	// creation so Stats is O(1) instead of a full posting-list walk.
	// censusMu nests inside a shard write lock (never the reverse).
	censusMu     sync.Mutex
	tagPostings  map[tags.Tag]int
	postingCount int
	maxPostings  int

	topkQueries      atomic.Uint64
	searchQueries    atomic.Uint64
	blocksSkipped    atomic.Uint64
	tagsDeferred     atomic.Uint64
	candidatesScored atomic.Uint64
}

// onlineShard owns the posting lists of every tag used by the resources
// with id ≡ shardID (mod S). Its lock is the view lock over those
// resources' counts and residency.
type onlineShard struct {
	mu sync.RWMutex
	// postings maps tag → the shard-local block-max posting list.
	postings map[tags.Tag]*bmList
}

// NewOnlineIndex seeds an online index over count vectors it takes
// ownership of (pass clones, e.g. Engine.SnapshotRFDs — Apply mutates
// them). shards ≤ 0 selects 1. It is NewOnlineIndexOver for an index
// that is its own vector owner, as the benchmarks and tests drive it.
func NewOnlineIndex(rfds []*sparse.Counts, shards int) *OnlineIndex {
	ix := NewOnlineIndexOver(ownedVecs(rfds), len(rfds), shards, nil)
	ix.own = rfds
	return ix
}

// NewOnlineIndexOver seeds an online index over n resources whose counts
// live in vecs; a serving node passes its engine and then attaches the
// index as the engine's subscriber before any traffic flows. Each
// resource's support streams once through ViewEntries (a cold resource
// straight off its record, residency unchanged): this is the only corpus
// scan the index ever performs, and every later change arrives through
// PostApplied. The caller must keep writers out until it returns.
// shards ≤ 0 selects 1. owned, when non-nil, is the set of resources
// the index ranks, one entry per resource (a cluster member passes the
// resources it owns); nil ranks every resource.
func NewOnlineIndexOver(vecs Vectors, n, shards int, owned []bool) *OnlineIndex {
	if shards <= 0 {
		shards = 1
	}
	if owned != nil && len(owned) != n {
		panic("ir: owned set does not cover the indexed resources")
	}
	ix := &OnlineIndex{
		n:           n,
		shards:      make([]*onlineShard, shards),
		vecs:        vecs,
		owned:       owned,
		dir:         make(map[tags.Tag]*dirRow),
		norm2:       make([]float64, n),
		tagPostings: make(map[tags.Tag]int),
	}
	for s := range ix.shards {
		ix.shards[s] = &onlineShard{postings: make(map[tags.Tag]*bmList)}
	}
	var i, s int
	var own bool
	var n2 float64
	seed := func(t tags.Tag, c int64) {
		if own {
			ix.posting(s, t).seedAppend(int32(i), c)
			ix.notePosting(t)
		}
		n2 += float64(c) * float64(c)
	}
	var postless []int
	for i = 0; i < n; i++ {
		s, own, n2 = i%shards, ix.owns(i), 0
		if vecs.ViewEntries(i, seed) == 0 {
			postless = append(postless, i)
		}
		ix.norm2[i] = n2
	}
	// The bounds are seeded from every resource's true norm²; only then
	// does the dense cache zero the post-less ones (its zero IS the
	// "cannot score" marker the selection paths test).
	for _, sh := range ix.shards {
		for _, pl := range sh.postings {
			pl.finalize(ix.norm2At)
		}
	}
	for _, i := range postless {
		ix.norm2[i] = 0
	}
	return ix
}

// posting returns shard s's posting list for t, creating it — and its
// tag-directory row — on first use. Caller holds shard s's write lock
// (or is the constructor); censusMu serializes directory writers racing
// from different shards.
func (ix *OnlineIndex) posting(s int, t tags.Tag) *bmList {
	sh := ix.shards[s]
	pl := sh.postings[t]
	if pl == nil {
		pl = &bmList{shard: int32(s)}
		ix.censusMu.Lock()
		row := ix.dir[t]
		if row == nil {
			row = &dirRow{slots: make([]rowSlot, len(ix.shards))}
			ix.dir[t] = row
		}
		row.slots[s].pl = pl
		ix.censusMu.Unlock()
		pl.row = row
		sh.postings[t] = pl
	}
	return pl
}

// notePosting records a newly created posting entry in the census. Safe
// under any shard lock; first-touch only, so steady-state ingest never
// takes censusMu.
func (ix *OnlineIndex) notePosting(t tags.Tag) {
	ix.censusMu.Lock()
	ix.postingCount++
	n := ix.tagPostings[t] + 1
	ix.tagPostings[t] = n
	if n > ix.maxPostings {
		ix.maxPostings = n
	}
	ix.censusMu.Unlock()
}

// N returns the number of indexed resources.
func (ix *OnlineIndex) N() int { return ix.n }

// owns reports whether the index ranks resource id.
func (ix *OnlineIndex) owns(id int) bool { return ix.owned == nil || ix.owned[id] }

// Lock takes the view lock over resource's counts and residency — the
// write lock of its index shard. The owner of the counts (the engine,
// through engine.Subscriber) holds it around every write to them, always
// inside its own lock for that resource.
func (ix *OnlineIndex) Lock(resource int) { ix.shards[resource%len(ix.shards)].mu.Lock() }

// Unlock releases the view lock Lock took.
func (ix *OnlineIndex) Unlock(resource int) { ix.shards[resource%len(ix.shards)].mu.Unlock() }

// PostApplied folds one post into the index, under the view lock the
// caller holds over resource (see Lock): the resource's counts have
// already absorbed the post, norm2 is their squared norm after it, and
// the touched posting lists are bumped in place, each bump preserving
// its list's count-descending block-max order by one swap (see
// bmList.bumpOne). Each tag's count-delta is +1 — a post names a tag at
// most once. Callers must deliver each resource's posts in apply order
// (the engine calls it under its shard lock, which guarantees exactly
// that). A resource outside the owned set has no postings: its post
// moves only its norm2 and the epoch.
func (ix *OnlineIndex) PostApplied(resource int, p tags.Post, norm2 float64) {
	ix.norm2[resource] = norm2 // a post landed, so the resource scores
	if ix.owns(resource) {
		s := resource % len(ix.shards)
		for _, t := range p {
			if ix.posting(s, t).bumpOne(int32(resource), norm2, ix.norm2) {
				ix.notePosting(t)
			}
		}
	}
	ix.epoch.Add(1)
}

// Apply folds one post into an index that owns its vectors
// (NewOnlineIndex): the resource's vector absorbs the post and
// PostApplied runs, both under the view lock — the same sequence the
// engine runs for an index built over it. Invalid resources and empty
// posts are ignored. Safe for concurrent use; posts for resources on
// different shards proceed in parallel.
func (ix *OnlineIndex) Apply(resource int, p tags.Post) {
	if ix.own == nil {
		panic("ir: Apply on an index that does not own its vectors")
	}
	if resource < 0 || resource >= ix.n || len(p) == 0 {
		return
	}
	ix.Lock(resource)
	c := ix.own[resource]
	c.Add(p)
	ix.PostApplied(resource, p, c.Norm2())
	ix.Unlock(resource)
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

// lift loads the subject's support and weights into the scratch in one
// pass, under the caller's view. The executor orders tags by bound
// itself, and the exact-integer dots make every downstream sum
// order-independent, so the ascending order Support would give buys
// nothing here.
func (ix *OnlineIndex) lift(sc *queryScratch, subject int) {
	sc.support, sc.weights = sc.support[:0], sc.weights[:0]
	if c := ix.vecs.ViewCounts(subject); c != nil {
		c.ForEach(sc.addWeight)
	} else {
		// A cold subject streams off its owner's record and stays cold;
		// only this branch pays for a callback escaping through Vectors.
		ix.vecs.ViewEntries(subject, sc.addWeight)
	}
}

// TopK returns the k most similar resources to subject over the live
// state, bit-identical to BuildInverted(SnapshotRFDs()).TopK (and to
// TopKExhaustive) at the returned epoch, without cloning or rescanning
// anything. It runs the block-max pruned executor: subject tags are
// processed by decreasing score bound and posting blocks that provably
// cannot reach the current kth score are skipped unscored. An index with
// an owned set ranks and pads only owned resources. Invalid subjects or
// k ≤ 0 return nil.
func (ix *OnlineIndex) TopK(subject, k int) ([]Scored, uint64) {
	ix.topkQueries.Add(1)
	if k <= 0 || subject < 0 || subject >= ix.n {
		return nil, ix.epoch.Load()
	}
	ix.rlockAll()
	epoch := ix.epoch.Load()
	// The dense norm entry is 0 exactly when the old guard
	// (zero norm or zero posts) fired — hot or cold alike.
	n2 := ix.norm2[subject]
	if n2 == 0 {
		res := rankTopK(ix.n, subject, k, 0, nil, ix.norm2At, ix.owned)
		ix.runlockAll()
		return res, epoch
	}
	sc := ix.getScratch()
	ix.lift(sc, subject)
	pq := prunedQuery{subject: subject, tags: sc.support, weights: sc.weights, subjNorm: math.Sqrt(n2)}
	res := ix.runPruned(&pq, k, sc, true)
	ix.endQuery(sc)
	return res, epoch
}

// endQuery closes a pruned query: the scratch returns to the pool and
// the read view is released.
func (ix *OnlineIndex) endQuery(sc *queryScratch) {
	ix.putScratch(sc)
	ix.runlockAll()
}

// norm2At adapts the dense norm cache to the rank finalizers' resolver
// shape: 0 means "cannot score" for hot and cold resources alike.
func (ix *OnlineIndex) norm2At(id int32) float64 { return ix.norm2[id] }

// TopKExhaustive is the pre-pruning serving path, preserved as the
// pruning oracle: it touches every posting of every subject tag and
// accumulates dot products in a per-query map.
// Results are bit-identical to TopK at the same epoch.
func (ix *OnlineIndex) TopKExhaustive(subject, k int) ([]Scored, uint64) {
	ix.topkQueries.Add(1)
	if k <= 0 || subject < 0 || subject >= ix.n {
		return nil, ix.epoch.Load()
	}
	ix.rlockAll()
	defer ix.runlockAll()
	epoch := ix.epoch.Load()
	n2 := ix.norm2[subject]
	if n2 == 0 {
		return rankTopK(ix.n, subject, k, 0, nil, ix.norm2At, ix.owned), epoch
	}
	subjNorm := math.Sqrt(n2)
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	ix.lift(sc, subject)
	dots := make(map[int32]float64)
	for i, t := range sc.support {
		w := sc.weights[i]
		for _, osh := range ix.shards {
			pl := osh.postings[t]
			if pl == nil {
				continue
			}
			for _, p := range pl.entries {
				if int(p.id) == subject {
					continue
				}
				dots[p.id] += w * float64(p.count)
			}
		}
	}
	return rankTopK(ix.n, subject, k, subjNorm, dots, ix.norm2At, ix.owned), epoch
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
// empty result means nothing matched). Like TopK it runs the block-max
// pruned executor, bit-identical to SearchExhaustive, and ranks only the
// owned set when the index has one: per-node answers then merge into
// exactly the single-node ranking under the (score desc, id asc)
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
	// The query vector's squared norm is |query| exactly (unit counts
	// over distinct tags). The score expression mirrors
	// sparse.Counts.Cosine term for term (single sqrt of the norm
	// product, same clamping), so a Search score is bit-identical to
	// Cosine against a count vector holding the query.
	pq := prunedQuery{subject: -1, tags: query, qNorm2: float64(len(query)), search: true}
	res := ix.runPruned(&pq, k, sc, false)
	ix.endQuery(sc)
	return res, epoch
}

// SearchExhaustive is the pre-pruning Search, preserved as the pruning
// oracle (with the same internal query dedup).
// Results are bit-identical to Search at the same epoch.
func (ix *OnlineIndex) SearchExhaustive(query tags.Post, k int) ([]Scored, uint64) {
	ix.searchQueries.Add(1)
	query = normalizeQuery(query)
	if k <= 0 || len(query) == 0 || ix.n == 0 {
		return nil, ix.epoch.Load()
	}
	ix.rlockAll()
	defer ix.runlockAll()
	epoch := ix.epoch.Load()
	dots := make(map[int32]float64)
	for _, t := range query {
		for _, sh := range ix.shards {
			pl := sh.postings[t]
			if pl == nil {
				continue
			}
			for _, p := range pl.entries {
				dots[p.id] += float64(p.count)
			}
		}
	}
	qNorm2 := float64(len(query))
	sel := newTopKSelector(k)
	for id, dot := range dots {
		if dot == 0 {
			continue // a fully-removed posting; cannot score
		}
		n2 := ix.norm2[id]
		if n2 == 0 {
			continue
		}
		s := dot / math.Sqrt(qNorm2*n2)
		if s > 1 {
			s = 1
		}
		sel.push(int(id), s)
	}
	return sel.results(), epoch
}

// Epoch returns the number of posts applied since construction.
func (ix *OnlineIndex) Epoch() uint64 { return ix.epoch.Load() }

// PostingEntries returns tag t's live postings in ascending resource-id
// order — the posting-for-posting equivalence surface against
// BuildInverted. Zero-count entries (possible only if a count was fully
// removed) are elided.
func (ix *OnlineIndex) PostingEntries(t tags.Tag) []Posting {
	ix.rlockAll()
	defer ix.runlockAll()
	var out []Posting
	for _, sh := range ix.shards {
		pl := sh.postings[t]
		if pl == nil {
			continue
		}
		for _, p := range pl.entries {
			if p.count != 0 {
				out = append(out, Posting{ID: p.id, Count: int64(p.count)})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Tags returns every tag with a non-empty posting list in ascending
// order.
func (ix *OnlineIndex) Tags() []tags.Tag {
	ix.rlockAll()
	defer ix.runlockAll()
	seen := make(map[tags.Tag]bool)
	for _, sh := range ix.shards {
		for t, pl := range sh.postings {
			if len(pl.entries) > 0 {
				seen[t] = true
			}
		}
	}
	out := make([]tags.Tag, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
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
	// maintained counters, and an index with an owned set counts its
	// owned resources' postings only.
	Tags        int `json:"tags"`
	Postings    int `json:"postings"`
	MaxPostings int `json:"max_postings"`
	// TopKQueries / SearchQueries count queries executed by the index
	// since boot (Service-level cache hits never reach the index; see
	// CacheHits).
	TopKQueries   uint64 `json:"topk_queries"`
	SearchQueries uint64 `json:"search_queries"`
	// BlocksSkipped / TagsDeferred / CandidatesScored meter the pruned
	// executor: posting blocks whose upper bound could not beat the
	// running kth score (skipped unscored), whole posting lists the
	// MaxScore condition ruled out of the scan (survivors re-add their
	// contribution with one lookup each), and candidates that survived
	// to an exact rescore.
	BlocksSkipped    uint64 `json:"blocks_skipped"`
	TagsDeferred     uint64 `json:"tags_deferred"`
	CandidatesScored uint64 `json:"candidates_scored"`
	// CacheHits / CacheMisses / CacheEntries describe the Service-level
	// epoch-keyed result cache (zero when the index is driven directly).
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`
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
		BlocksSkipped:    ix.blocksSkipped.Load(),
		TagsDeferred:     ix.tagsDeferred.Load(),
		CandidatesScored: ix.candidatesScored.Load(),
	}
	ix.censusMu.Lock()
	st.Tags = len(ix.tagPostings)
	st.Postings = ix.postingCount
	st.MaxPostings = ix.maxPostings
	ix.censusMu.Unlock()
	return st
}
