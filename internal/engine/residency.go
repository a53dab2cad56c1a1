package engine

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"incentivetag/internal/codec"
	"incentivetag/internal/sparse"
	"incentivetag/internal/stability"
	"incentivetag/internal/tags"
)

// This file is the per-resource residency state machine: each resource
// is either HOT (tracker materialized) or COLD (state frozen into a
// compact varint record — the same per-resource layout the snapshot
// format uses, so a freshly booted engine aliases records straight out
// of the snapshot payload, and a snapshot copies a cold record
// verbatim). Transitions happen only under the owning
// shard's lock, and each ends with one pointer swap under the
// subscriber's view lock (swapLocked), which is all a query index
// reading ViewCounts/ViewEntries has to exclude:
//
//	hot → cold  (freezeLocked)    encode tracker state (appendRecord),
//	                              drop tracker; keep the exact dot
//	cold → hot  (rehydrateLocked) decode the record in one pass into a
//	                              tracker (decodeTracker); the retained
//	                              dot is still exact, since nothing
//	                              writes to a cold resource
//
// Every mutating path (Ingest, IngestMany, Replay)
// rehydrates on touch before applying; reads that only need scalars —
// Count, MA, QualityOf, CostOf, Snapshot — answer from values a cold
// resource retains (consumed, maSum, quality), so allocation strategies
// like MU that sweep MA over the whole corpus never force residency.
// Reads that need the full vector (VerifyMetrics, SnapshotRFDs) decode
// transiently, through the same decodeTracker, without changing
// residency; AppendSnapshot needs no decode at all.
//
// Bit-identity across a freeze/rehydrate cycle — and across a restart,
// which is Restore indexing every resource cold and this same rehydrate
// bringing it back — rests on one argument: counts, dot and norms are
// exact integers (every value < 2⁵³), so recomputation is
// order-independent, while the floats that carry rounding history — the
// MA ring and its running sum — are stored bit-for-bit and never
// recomputed.

// residentOverheadBytes is the fixed per-resource heap estimate beyond
// the count table and the ring while hot: the Tracker struct, which
// holds the count vector's header by value (120 B, in the runtime's
// 128 B size class), plus 64 B of slack for what the estimate does not
// itemize. An estimate, not an accounting — the tiering policy only
// needs relative pressure.
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

// qualityFrom is computeQuality over explicit operands — shared by the
// hot path (tracker-backed) and the cold paths (scanned from a frozen
// record); sparse.CosineOf makes it Counts.Cosine bit for bit.
func qualityFrom(r *resource, dot int64, n2 float64, posts int) float64 {
	if r.refCounts == nil {
		return 0
	}
	return sparse.CosineOf(float64(dot), n2, posts, r.refNorm2, r.refPosts)
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

// freezeLocked transitions a hot resource to cold: appendRecord encodes
// its tracker state into the shard's record scratch, one exactly sized
// copy becomes the frozen record, and the tracker is dropped (dot and
// quality are retained as scalars). Caller holds sh's lock, the owning
// shard's.
func (e *Engine) freezeLocked(sh *shard, r *resource, i int) {
	sh.record, sh.support = appendRecord(sh.record[:0], r.tracker, sh.support)
	_, _, _, r.maSum = r.tracker.ExportRing()
	e.swapLocked(r, i, nil, bytes.Clone(sh.record))
	e.evictions.Add(1)
}

// swapLocked installs a resource's residency form — a tracker (hot) or a
// frozen record (cold) — under the subscriber's view lock, so a query
// holding the view reads the resource as wholly one or the other. The
// engine owns the only copy of each resource's counts; this swap is the
// one residency write the view must see. Caller holds the shard lock.
func (e *Engine) swapLocked(r *resource, i int, tracker *stability.Tracker, frozen []byte) {
	if sub := e.sub; sub != nil {
		view := sub.ViewLock(i % len(e.shards))
		view.Lock()
		r.tracker, r.frozen = tracker, frozen
		view.Unlock()
		return
	}
	r.tracker, r.frozen = tracker, frozen
}

// rehydrateLocked transitions a cold resource back to hot: decodeTracker
// reads the frozen record once, straight into the new tracker (ring bits
// verbatim), and its post count must be the one the resource consumed.
// The retained dot is still exact — nothing writes to a cold resource —
// so quality is recomputed from it and the rebuilt norm, and the
// resource is bit-identical to one that was never evicted (or never
// restarted). A failed rehydration leaves the resource cold and
// unchanged. The clock is read only for a RehydrateObserver. Caller
// holds the owning shard's lock.
func (e *Engine) rehydrateLocked(r *resource, i int) error {
	obs := e.cfg.RehydrateObserver
	var start time.Time
	if obs != nil {
		start = time.Now()
	}
	tracker, err := decodeTracker(r.frozen, e.cfg.Omega)
	if err == nil && tracker.Posts() != r.consumed {
		err = fmt.Errorf("frozen record has %d posts, resource consumed %d", tracker.Posts(), r.consumed)
	}
	if err != nil {
		return fmt.Errorf("engine: resource %d: rehydrate: %w", i, err)
	}
	e.swapLocked(r, i, tracker, nil)
	r.quality = r.computeQuality()
	r.lastTouch = e.clock.Add(1)
	e.rehydrations.Add(1)
	if obs != nil {
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

// frozenTracker decodes a cold resource's record transiently —
// residency is unchanged and the tracker is freshly allocated. The
// frozen record was either produced by freezeLocked or framed by
// Restore, so damage here means memory corruption or a corrupt
// snapshot: panic loudly rather than serve wrong numbers. Caller holds
// the shard lock.
func (e *Engine) frozenTracker(r *resource, i int) *stability.Tracker {
	tr, err := decodeTracker(r.frozen, e.cfg.Omega)
	if err != nil {
		panic(fmt.Sprintf("engine: resource %d frozen record corrupt: %v", i, err))
	}
	return tr
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

// ensureResident rehydrates resource i if it is cold and bumps its
// access recency — the explicit form of the rehydrate-on-touch every
// ingest path performs implicitly.
func (e *Engine) ensureResident(i int) error {
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
	e.freezeLocked(sh, r, i)
	return true, nil
}

// EvictColder freezes every hot resource whose last touch predates the
// given clock reading (see AccessClock) and returns how many froze.
func (e *Engine) EvictColder(before uint64) int {
	evicted := 0
	for s, sh := range e.shards {
		sh.mu.Lock()
		for l, r := range sh.res {
			if r.tracker == nil || r.lastTouch >= before {
				continue
			}
			e.freezeLocked(sh, r, l*len(e.shards)+s)
			evicted++
		}
		sh.mu.Unlock()
	}
	return evicted
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
// froze.
func (e *Engine) EvictToBudget(maxResident int, maxBytes int64) []int {
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
		return nil
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
		e.freezeLocked(sh, r, c.id)
		sh.mu.Unlock()
		evicted = append(evicted, c.id)
		overCount--
		overBytes -= c.bytes
	}
	return evicted
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

// ViewCounts returns resource i's live count vector, or nil while it is
// cold. It takes no engine lock: the caller must hold the subscriber's
// view lock over i (see Subscriber), or have no ingest, freeze or
// rehydrate running. The vector is the engine's own — read it, never
// mutate or retain it past the view.
func (e *Engine) ViewCounts(i int) *sparse.Counts {
	sh, l := e.locate(i)
	if t := sh.res[l].tracker; t != nil {
		return t.Counts()
	}
	return nil
}

// ViewEntries streams resource i's non-zero (tag, count) support and
// returns its post count, under the same contract as ViewCounts and
// without changing residency: a hot resource walks its live vector
// (order unspecified), a cold one its frozen record (ascending tags).
// The record was produced by a freeze or validated by Restore, so damage
// here means memory corruption and panics rather than serve wrong
// numbers.
func (e *Engine) ViewEntries(i int, fn func(t tags.Tag, n int64)) int {
	sh, l := e.locate(i)
	r := sh.res[l]
	if r.tracker != nil {
		c := r.tracker.Counts()
		c.ForEach(fn)
		return c.Posts()
	}
	rd := codec.NewReader(r.frozen, statePrefix)
	posts, _ := scanRecord(rd, e.cfg.Omega, fn)
	if err := rd.Err(); err != nil {
		panic(fmt.Sprintf("engine: resource %d frozen record corrupt: %v", i, err))
	}
	return posts
}
