package engine

import (
	"fmt"
	"math"
	"sort"
	"time"

	"incentivetag/internal/codec"
	"incentivetag/internal/sparse"
	"incentivetag/internal/stability"
	"incentivetag/internal/tags"
)

// This file is the per-resource residency state machine: each resource
// is either HOT (tracker materialized, dot maintained) or COLD (state
// frozen into a compact varint record — the same per-resource layout the
// snapshot format uses, so a freshly booted engine can alias records
// straight out of an mmap'd snapshot). Transitions happen only under the
// owning shard's lock:
//
//	hot → cold  (freezeLocked)    encode tracker state, drop tracker+dot
//	cold → hot  (rehydrateLocked) decode record, rebuild tracker, then
//	                              recompute dot/quality from the exact
//	                              integer counts
//
// Every mutating path (Ingest, IngestBatch, IngestMany, Replay)
// rehydrates on touch before applying; reads that only need scalars —
// Count, MA, QualityOf, CostOf, Snapshot — answer from values a cold
// resource retains (consumed, maSum, quality), so allocation strategies
// like MU that sweep MA over the whole corpus never force residency.
// Reads that need the full vector (VerifyMetrics, SnapshotRFDs,
// ExportState) decode transiently without changing residency.
//
// Bit-identity across a freeze/rehydrate cycle — and across a restart,
// which is Restore indexing every resource cold and this same rehydrate
// bringing it back — rests on one argument: counts, dot and norms are
// exact integers (every value < 2⁵³), so recomputation is
// order-independent, while the floats that carry rounding history — the
// MA ring and its running sum — are stored bit-for-bit and never
// recomputed.

// residentOverheadBytes is the fixed per-resource heap estimate beyond
// the count vector while hot: the resource and Tracker structs plus
// slice/map headers. An estimate, not an accounting — the tiering
// policy only needs relative pressure.
const residentOverheadBytes = 192

// ResidencyStats is the census of the residency tier.
type ResidencyStats struct {
	// Resident and Cold partition the corpus by residency.
	Resident int `json:"resident"`
	Cold     int `json:"cold"`
	// Evictions and Rehydrations count hot→cold / cold→hot transitions
	// since construction (monotone; partition-clean for cluster sums).
	Evictions    uint64 `json:"evictions"`
	Rehydrations uint64 `json:"rehydrations"`
	// ResidentBytes estimates the heap held by hot resources' vectors,
	// rings and trackers.
	ResidentBytes int64 `json:"resident_bytes"`
}

// refGet is the reference count of tag t — the resource-local mirror of
// quality.RefVector.Get (same dense/spill split, bit-identical terms).
func (r *resource) refGet(t tags.Tag) int64 {
	if ti := int(t); ti >= 0 && ti < len(r.refDense) {
		return int64(r.refDense[ti])
	}
	if r.refSpill == nil {
		return 0
	}
	return r.refSpill[t]
}

// qualityFrom is computeQuality over explicit operands — shared by the
// hot path (tracker-backed) and the cold paths (scanned from a frozen
// record), guard for guard and clamp for clamp with Counts.Cosine.
func qualityFrom(r *resource, dot int64, n2 float64, posts int) float64 {
	if r.refCounts == nil {
		return 0
	}
	if posts == 0 || r.refPosts == 0 {
		return 0
	}
	if n2 == 0 || r.refNorm2 == 0 {
		return 0
	}
	s := float64(dot) / math.Sqrt(n2*r.refNorm2)
	if s > 1 {
		s = 1
	}
	if s < 0 {
		s = 0
	}
	return s
}

// ma answers MA for hot or cold resources: hot delegates to the
// tracker; cold replays Tracker.MA over the retained scalars (consumed
// mirrors tracker.Posts(), maSum is the ring's running sum, stored with
// its rounding history) — bit-identical by construction.
func (r *resource) ma(omega int) (float64, bool) {
	if r.tracker != nil {
		return r.tracker.MA()
	}
	if r.consumed < omega {
		return 0, false
	}
	ma := r.maSum / float64(omega-1)
	if ma > 1 {
		ma = 1
	}
	if ma < 0 {
		ma = 0
	}
	return ma, true
}

// freezeLocked transitions a hot resource to cold: its tracker state is
// encoded into the shared per-resource record layout and the tracker,
// dot and quality inputs are dropped (quality itself is retained as a
// scalar). Caller holds the owning shard's lock.
func (e *Engine) freezeLocked(r *resource, i int) error {
	var rs ResourceState
	rs.Posts = r.tracker.Posts()
	rs.Tags, rs.Counts = r.tracker.Counts().Entries(nil, nil)
	rs.Ring, rs.Head, rs.Fill, rs.Sum = r.tracker.ExportRing()
	buf, err := appendResourceState(make([]byte, 0, 24+len(rs.Tags)*4+len(rs.Ring)*8), i, &rs)
	if err != nil {
		return err
	}
	r.frozen = buf
	r.maSum = rs.Sum
	r.tracker = nil
	r.dot = 0
	e.evictions.Add(1)
	return nil
}

// rehydrateLocked transitions a cold resource back to hot: the frozen
// record is decoded, the tracker restored (ring bits verbatim), and the
// reference dot product and quality recomputed as exact integer sums
// over the stored support, so the rebuilt resource is bit-identical to
// one that was never evicted (or never restarted). Caller holds the
// owning shard's lock.
func (e *Engine) rehydrateLocked(r *resource, i int) error {
	start := time.Now()
	var rs ResourceState
	rd := codec.NewReader(r.frozen, statePrefix)
	readResourceState(rd, &rs)
	if err := rd.Finish(); err != nil {
		return fmt.Errorf("engine: resource %d: rehydrate: %w", i, err)
	}
	if rs.Posts != r.consumed {
		return fmt.Errorf("engine: resource %d: rehydrate: frozen record has %d posts, resource consumed %d", i, rs.Posts, r.consumed)
	}
	counts, err := sparse.FromEntries(e.cfg.TagUniverse, rs.Tags, rs.Counts, rs.Posts)
	if err != nil {
		return fmt.Errorf("engine: resource %d: rehydrate: %w", i, err)
	}
	tracker, err := stability.RestoreTracker(e.cfg.Omega, counts, rs.Ring, rs.Head, rs.Fill, rs.Sum)
	if err != nil {
		return fmt.Errorf("engine: resource %d: rehydrate: %w", i, err)
	}
	r.tracker = tracker
	r.dot = 0
	if r.refCounts != nil {
		for k, t := range rs.Tags {
			r.dot += rs.Counts[k] * r.refGet(t)
		}
	}
	r.quality = r.computeQuality()
	r.frozen = nil
	r.lastTouch = e.clock.Add(1)
	e.rehydrations.Add(1)
	if obs := e.cfg.RehydrateObserver; obs != nil {
		obs(time.Since(start).Nanoseconds())
	}
	return nil
}

// ensureResidentLocked rehydrates r if cold. Caller holds the owning
// shard's lock; every apply path runs through this before mutating.
func (e *Engine) ensureResidentLocked(r *resource, i int) error {
	if r.tracker != nil {
		return nil
	}
	return e.rehydrateLocked(r, i)
}

// frozenCounts decodes a cold resource's count vector transiently —
// residency is unchanged and the result is freshly allocated. The
// frozen record was either produced by freezeLocked or validated by
// Restore, so damage here means memory corruption: panic loudly
// rather than serve wrong numbers. Caller holds the shard lock.
func (e *Engine) frozenCounts(r *resource, i int) *sparse.Counts {
	var rs ResourceState
	rd := codec.NewReader(r.frozen, statePrefix)
	readResourceState(rd, &rs)
	var c *sparse.Counts
	err := rd.Finish()
	if err == nil {
		c, err = sparse.FromEntries(e.cfg.TagUniverse, rs.Tags, rs.Counts, rs.Posts)
	}
	if err != nil {
		panic(fmt.Sprintf("engine: resource %d frozen record corrupt: %v", i, err))
	}
	return c
}

// residentBytesLocked estimates the heap a hot resource holds beyond
// its cold form. Caller holds the shard lock.
func (e *Engine) residentBytesLocked(r *resource) int64 {
	return int64(r.tracker.Counts().MemBytes() + 8*(e.cfg.Omega-1) + residentOverheadBytes)
}

// AccessClock returns the engine's access-recency clock: a counter
// bumped on every apply and rehydrate. A resource's last touch is
// comparable against it, which is how callers phrase recency cutoffs
// for EvictColder.
func (e *Engine) AccessClock() uint64 { return e.clock.Load() }

// Resident reports whether resource i is currently hot.
func (e *Engine) Resident(i int) bool {
	sh, l := e.locate(i)
	sh.mu.Lock()
	hot := sh.res[l].tracker != nil
	sh.mu.Unlock()
	return hot
}

// EnsureResident rehydrates resource i if it is cold and bumps its
// access recency — the explicit form of the rehydrate-on-touch every
// ingest path performs implicitly.
func (e *Engine) EnsureResident(i int) error {
	if i < 0 || i >= e.n {
		return fmt.Errorf("engine: resource index %d %w [0,%d)", i, ErrResourceRange, e.n)
	}
	sh, l := e.locate(i)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.res[l]
	if err := e.ensureResidentLocked(r, i); err != nil {
		return err
	}
	r.lastTouch = e.clock.Add(1)
	return nil
}

// Evict freezes resource i if it is hot. Returns whether a transition
// happened. Eviction never changes observable state: counts, MA,
// quality and every aggregate read identically before and after.
func (e *Engine) Evict(i int) (bool, error) {
	if i < 0 || i >= e.n {
		return false, fmt.Errorf("engine: resource index %d %w [0,%d)", i, ErrResourceRange, e.n)
	}
	sh, l := e.locate(i)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.res[l]
	if r.tracker == nil {
		return false, nil
	}
	if err := e.freezeLocked(r, i); err != nil {
		return false, err
	}
	return true, nil
}

// EvictColder freezes every hot resource whose last touch predates the
// given clock reading (see AccessClock) and returns how many froze.
func (e *Engine) EvictColder(before uint64) (int, error) {
	evicted := 0
	for s, sh := range e.shards {
		sh.mu.Lock()
		for l, r := range sh.res {
			if r.tracker == nil || r.lastTouch >= before {
				continue
			}
			if err := e.freezeLocked(r, l*len(e.shards)+s); err != nil {
				sh.mu.Unlock()
				return evicted, err
			}
			evicted++
		}
		sh.mu.Unlock()
	}
	return evicted, nil
}

// evictCandidate is one hot resource observed during EvictToBudget's
// census pass.
type evictCandidate struct {
	id    int
	touch uint64
	bytes int64
}

// EvictToBudget brings the engine inside a residency budget by evicting
// the least-recently-touched hot resources: maxResident caps the hot
// count, maxBytes the estimated hot heap (0 disables either bound). The
// census and the evictions take each shard lock separately, so a
// resource touched between the two passes is left hot (its recency
// changed; the next policy tick reconsiders it). Returns the ids that
// froze — the caller (the Service tiering loop) mirrors them into the
// query index.
func (e *Engine) EvictToBudget(maxResident int, maxBytes int64) ([]int, error) {
	var cands []evictCandidate
	var bytes int64
	for s, sh := range e.shards {
		sh.mu.Lock()
		for l, r := range sh.res {
			if r.tracker == nil {
				continue
			}
			b := e.residentBytesLocked(r)
			bytes += b
			cands = append(cands, evictCandidate{id: l*len(e.shards) + s, touch: r.lastTouch, bytes: b})
		}
		sh.mu.Unlock()
	}
	overCount := 0
	if maxResident > 0 && len(cands) > maxResident {
		overCount = len(cands) - maxResident
	}
	overBytes := int64(0)
	if maxBytes > 0 && bytes > maxBytes {
		overBytes = bytes - maxBytes
	}
	if overCount == 0 && overBytes == 0 {
		return nil, nil
	}
	// Oldest touch first; ties broken by id for determinism.
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].touch != cands[b].touch {
			return cands[a].touch < cands[b].touch
		}
		return cands[a].id < cands[b].id
	})
	var evicted []int
	for _, c := range cands {
		if overCount <= 0 && overBytes <= 0 {
			break
		}
		sh, l := e.locate(c.id)
		sh.mu.Lock()
		r := sh.res[l]
		// Touched since the census (or already cold): skip, recency moved.
		if r.tracker == nil || r.lastTouch != c.touch {
			sh.mu.Unlock()
			continue
		}
		err := e.freezeLocked(r, c.id)
		sh.mu.Unlock()
		if err != nil {
			return evicted, err
		}
		evicted = append(evicted, c.id)
		overCount--
		overBytes -= c.bytes
	}
	return evicted, nil
}

// Residency reports the residency census: a full scan under each shard
// lock in turn, sized for policy ticks and metrics scrapes, not hot
// paths.
func (e *Engine) Residency() ResidencyStats {
	var st ResidencyStats
	for _, sh := range e.shards {
		sh.mu.Lock()
		for _, r := range sh.res {
			if r.tracker != nil {
				st.Resident++
				st.ResidentBytes += e.residentBytesLocked(r)
			} else {
				st.Cold++
			}
		}
		sh.mu.Unlock()
	}
	st.Evictions = e.evictions.Load()
	st.Rehydrations = e.rehydrations.Load()
	return st
}

// ForEachEntry streams resource i's non-zero (tag, count) support and
// returns its post count, without changing residency: hot resources
// walk their live vector, cold resources their frozen record. Support
// order is unspecified. Used to seed query indexes without forcing the
// corpus hot.
func (e *Engine) ForEachEntry(i int, fn func(t tags.Tag, n int64)) int {
	sh, l := e.locate(i)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.res[l]
	if r.tracker != nil {
		c := r.tracker.Counts()
		c.ForEach(fn)
		return c.Posts()
	}
	rd := codec.NewReader(r.frozen, statePrefix)
	posts, _ := scanResourceState(rd, fn)
	if err := rd.Err(); err != nil {
		panic(fmt.Sprintf("engine: resource %d frozen record corrupt: %v", i, err))
	}
	return posts
}
