package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"incentivetag/internal/codec"
	"incentivetag/internal/sparse"
	"incentivetag/internal/stability"
	"incentivetag/internal/tags"
	"incentivetag/internal/tagstore"
)

// stateVersion is bumped on payload encoding changes; Restore rejects
// any other version loudly instead of misreading.
const stateVersion = 2

// statePrefix namespaces the codec reader's positioned decode errors.
const statePrefix = "engine: state"

// AppendSnapshot appends the engine's snapshot payload to buf — the
// WRITE side of durability (AppendSnapshot → tagstore.WriteSnapshot);
// Restore reads it back — and returns the WAL sequence number it
// covers: every record with seq ≤ lastSeq is reflected in it (0 when no
// WAL is attached). The payload rebuilds an engine bit-identical to
// this one — same per-resource counts, MA windows, qualities and
// aggregate metrics — so a snapshot plus the WAL records past lastSeq
// replays to exactly the pre-crash engine.
//
// All shard locks are held for the duration, so the payload is a
// consistent cut: no post is half-reflected, and lastSeq is exactly
// the set of records the payload covers (WAL appends happen under a
// shard lock, so a lock-stopped engine has applied every record it
// logged). The layout is a header (version, omega, shards, under
// threshold, tag universe, lastSeq, ids fingerprint, resource count),
// one record per resource in global index order, then each shard's
// aggregates (Neumaier sum and compensation, spent, posts, wasted). A
// hot resource's record is encoded from its tracker (appendRecord); a
// cold one's frozen record already has that layout and is copied
// verbatim.
//
// Derived integers (reference dot products, over-/under-tagged flags,
// norms, masses) are deliberately NOT stored: they are exact integer
// functions of the stored counts and are recomputed at restore, which
// both shrinks snapshots and turns a corrupted count into a loud
// inconsistency instead of a silently wrong metric. Floats with rounding
// history (MA rings and running sums, shard quality accumulators) ARE
// stored, bit for bit — recomputing them would drift from the exported
// engine by reassociation.
func (e *Engine) AppendSnapshot(buf []byte) (payload []byte, lastSeq uint64) {
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range e.shards {
			sh.mu.Unlock()
		}
	}()
	if e.cfg.WAL != nil {
		e.walMu.Lock()
		lastSeq = e.cfg.WAL.LastSeq()
		e.walMu.Unlock()
	}
	buf = codec.AppendUvarint(buf, stateVersion)
	buf = codec.AppendUvarint(buf, uint64(e.cfg.Omega))
	buf = codec.AppendUvarint(buf, uint64(len(e.shards)))
	buf = codec.AppendVarint(buf, int64(e.cfg.UnderThreshold))
	buf = codec.AppendUvarint(buf, uint64(e.cfg.TagUniverse))
	buf = codec.AppendUvarint(buf, lastSeq)
	buf = codec.AppendUvarint(buf, idsFingerprint(e.cfg.IDs))
	buf = codec.AppendUvarint(buf, uint64(e.n))
	for i := 0; i < e.n; i++ {
		sh, l := e.locate(i)
		if r := sh.res[l]; r.tracker != nil {
			buf, sh.support = appendRecord(buf, r.tracker, sh.support)
		} else {
			buf = append(buf, r.frozen...)
		}
	}
	buf = codec.AppendUvarint(buf, uint64(len(e.shards)))
	for _, sh := range e.shards {
		buf = codec.AppendFloat64(buf, sh.qsum)
		buf = codec.AppendFloat64(buf, sh.qcomp)
		buf = codec.AppendUvarint(buf, uint64(sh.spent))
		buf = codec.AppendUvarint(buf, uint64(sh.posts))
		buf = codec.AppendUvarint(buf, uint64(sh.wasted))
	}
	return buf, lastSeq
}

// Restore rebuilds an engine from an AppendSnapshot payload — the only
// way durable state enters an engine. Every resource starts COLD: the
// payload is indexed, not decoded — each resource keeps a frozen record
// that aliases its byte span inside payload, and only the scalars the
// engine answers reads from (post count, quality, MA window sum) and
// the reference dot a later rehydration keeps are computed during a
// single streaming pass. Boot cost is that one sequential walk, and the
// heap holds no per-resource vectors or trackers beyond the payload
// itself; resources rehydrate lazily as traffic touches them, so an
// engine nobody evicts converges to all-resident under traffic, and the
// payload is garbage once no frozen record aliases it.
//
// The specs supply what a snapshot never stores — references, stable
// points, task costs — and must describe the same corpus the exporting
// engine was built over; the configuration must match the exporting
// engine's exactly. Violations fail loudly: a snapshot restored against
// the wrong corpus or options must never silently diverge. The caller
// must not modify payload afterwards. The returned lastSeq is the
// snapshot's WAL coverage, as AppendSnapshot returned it.
func Restore(cfg Config, specs []ResourceSpec, payload []byte) (e *Engine, lastSeq uint64, err error) {
	cfg = cfg.withDefaults()
	if cfg.Omega < 2 {
		return nil, 0, fmt.Errorf("engine: omega must be ≥ 2, got %d", cfg.Omega)
	}
	r := codec.NewReader(payload, statePrefix)
	v := r.Uvarint("version")
	if r.Err() == nil && v != stateVersion {
		return nil, 0, fmt.Errorf("engine: state version %d not supported (want %d)", v, stateVersion)
	}
	omega := int(r.Uvarint("omega"))
	nshards := int(r.Uvarint("shards"))
	under := int(r.Varint("under threshold"))
	universe := int(r.Uvarint("tag universe"))
	lastSeq = r.Uvarint("last seq")
	fingerprint := r.Uvarint("ids fingerprint")
	n := r.Length("resource count", maxStateSlice)
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	if omega != cfg.Omega || nshards != cfg.Shards || under != cfg.UnderThreshold || universe != cfg.TagUniverse {
		return nil, 0, fmt.Errorf("engine: state (omega=%d shards=%d under=%d universe=%d) does not match config (omega=%d shards=%d under=%d universe=%d)",
			omega, nshards, under, universe,
			cfg.Omega, cfg.Shards, cfg.UnderThreshold, cfg.TagUniverse)
	}
	if want := idsFingerprint(cfg.IDs); fingerprint != want {
		return nil, 0, fmt.Errorf("engine: state was exported over resource ids with fingerprint %016x, this engine's ids have %016x — another part of the corpus (a different shard map)", fingerprint, want)
	}
	if n != len(specs) {
		return nil, 0, fmt.Errorf("engine: state has %d resources, corpus has %d", n, len(specs))
	}
	if cfg.WAL != nil && !walCapacityOK(n) {
		return nil, 0, fmt.Errorf("engine: %d resources overflow the WAL's 32-bit record ids", n)
	}
	if err := checkSpecs(specs, cfg.IDs); err != nil {
		return nil, 0, err
	}
	e = &Engine{cfg: cfg, n: n, shards: make([]*shard, cfg.Shards)}
	for s := range e.shards {
		e.shards[s] = &shard{}
	}
	ingested := 0
	for i, spec := range specs {
		res := newResource(spec)
		// One streaming pass per record: accumulate the exact-integer dot
		// and squared norm (term for term as sparse.Counts.Insert would)
		// without materializing the support, and remember the record's
		// byte span as the resource's frozen state.
		start := r.Offset()
		var dot int64
		var norm2 float64
		posts, sum := scanRecord(r, cfg.Omega, func(t tags.Tag, cnt int64) {
			norm2 += float64(cnt) * float64(cnt)
			if res.refCounts != nil {
				dot += cnt * res.refCounts.Get(t)
			}
		})
		if err := r.Err(); err != nil {
			return nil, 0, err
		}
		if posts < len(spec.Initial) {
			return nil, 0, fmt.Errorf("engine: resource %d state has %d posts but the corpus primes %d — snapshot belongs to a different corpus", i, posts, len(spec.Initial))
		}
		res.frozen = payload[start:r.Offset()]
		res.consumed = posts
		res.maSum = sum
		res.dot = dot
		res.quality = qualityFrom(res, dot, norm2, posts)

		e.shards[i%cfg.Shards].index(res, cfg.UnderThreshold)
		ingested += posts - len(spec.Initial)
	}
	na := r.Length("aggregate count", maxStateSlice)
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	if na != cfg.Shards {
		return nil, 0, fmt.Errorf("engine: state has %d shard aggregates for %d shards", na, cfg.Shards)
	}
	posts := 0
	for s := 0; s < na; s++ {
		sh := e.shards[s]
		sh.qsum = r.Float64("qsum")
		sh.qcomp = r.Float64("qcomp")
		sh.spent = int(r.Uvarint("spent"))
		sh.posts = int(r.Uvarint("posts"))
		sh.wasted = int(r.Uvarint("wasted"))
		posts += sh.posts
	}
	if err := r.Finish(); err != nil {
		return nil, 0, err
	}
	if posts != ingested {
		return nil, 0, fmt.Errorf("engine: state aggregates record %d ingested posts but resource counts imply %d — snapshot belongs to a different corpus", posts, ingested)
	}
	return e, lastSeq, nil
}

// index appends a resource to the shard and counts it over- or
// under-tagged.
func (sh *shard) index(r *resource, under int) {
	sh.res = append(sh.res, r)
	if r.stableK > 0 && r.consumed >= r.stableK {
		sh.over++
	}
	if under >= 0 && r.consumed <= under {
		sh.under++
	}
}

// Replay applies one recovered post to resource i without writing the
// WAL — the record already sits in the log. It is the recovery twin of
// Ingest: same validation, same metric deltas, no append. Replaying a
// record that was already reflected in a restored snapshot would double
// apply it; callers must feed only the WAL tail past the snapshot's
// lastSeq.
// Like Ingest, it is a shard batch of one.
func (e *Engine) Replay(i int, p tags.Post) error {
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
	return e.applyShard(s, sh, false)
}

// WithWAL runs fn with exclusive access to the engine's WAL store: no
// ingest can append while fn runs. It is how the store's maintenance
// operations (Flush, DropThrough, Stat) are driven safely while the
// engine serves traffic. Returns an error when no WAL is configured.
func (e *Engine) WithWAL(fn func(w *tagstore.Store) error) error {
	if e.cfg.WAL == nil {
		return fmt.Errorf("engine: no WAL configured")
	}
	e.walMu.Lock()
	defer e.walMu.Unlock()
	return fn(e.cfg.WAL)
}

// --- binary encoding -----------------------------------------------------

// idsFingerprint is FNV-1a over the id list's little-endian words: two
// lists collide only by accident, and nil (the whole corpus) is 0.
func idsFingerprint(ids []uint32) uint64 {
	if ids == nil {
		return 0
	}
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, ids) // a hash's Write never fails
	return h.Sum64()
}

// maxStateSlice bounds decoded slice lengths against a corrupt varint
// allocating unbounded memory.
const maxStateSlice = 1 << 28

// entry is one (tag, count) pair of a record's support.
type entry struct {
	t tags.Tag
	n int64
}

// appendRecord appends a hot resource's record in the snapshot's
// per-resource layout: posts, support size, delta-encoded (tag, count)
// pairs ascending from a −1 base, then the MA window (ring length,
// bit-exact ring floats, head, fill, sum). This layout is the unit
// shared by snapshots (AppendSnapshot), the residency tier's frozen
// records (freezeLocked) and Restore's cold index — one encoder, read
// whole by decodeTracker and streamed by scanRecord. The support is
// gathered into scratch in one ForEach pass and sorted there; the grown
// scratch is returned for reuse.
func appendRecord(buf []byte, tr *stability.Tracker, scratch []entry) ([]byte, []entry) {
	c := tr.Counts()
	scratch = scratch[:0]
	c.ForEach(func(t tags.Tag, n int64) { scratch = append(scratch, entry{t, n}) })
	slices.SortFunc(scratch, func(a, b entry) int { return cmp.Compare(a.t, b.t) })
	buf = codec.AppendUvarint(buf, uint64(c.Posts()))
	buf = codec.AppendUvarint(buf, uint64(len(scratch)))
	d := codec.NewDelta(-1)
	for _, en := range scratch {
		gap, _ := d.Gap(int64(en.t)) // a support's tags are distinct
		buf = codec.AppendUvarint(buf, gap)
		buf = codec.AppendUvarint(buf, uint64(en.n))
	}
	ring, head, fill, sum := tr.ExportRing()
	buf = codec.AppendUvarint(buf, uint64(len(ring)))
	for _, f := range ring {
		buf = codec.AppendFloat64(buf, f)
	}
	buf = codec.AppendUvarint(buf, uint64(head))
	buf = codec.AppendUvarint(buf, uint64(fill))
	buf = codec.AppendFloat64(buf, sum)
	return buf, scratch
}

// readEntry decodes one support pair of a record: the tag's gap from
// the previous tag, then its count. Tags strictly ascend within int32:
// a gap of 0 (a repeated tag), a gap past 2³¹ (which Absorb would wrap
// backwards) or a tag past int32 fails the reader.
func readEntry(r *codec.Reader, d *codec.Delta) (tags.Tag, int64) {
	gap := r.Uvarint("tag delta")
	if gap == 0 || gap > math.MaxInt32+1 {
		r.Fail("tag delta %d outside [1, 2³¹]", gap)
		return 0, 0
	}
	t := d.Absorb(gap)
	if t > int64(math.MaxInt32) {
		r.Fail("tag id %d overflows", t)
		return 0, 0
	}
	return tags.Tag(t), int64(r.Uvarint("count"))
}

// decodeTracker is the one record decoder: it reads an
// appendRecord record in one pass into a restored tracker. The
// post count and support size come first, so every (tag, count) goes
// straight into a table presized for the support, and the ring is read
// into the one slice the tracker keeps — three allocations (table,
// ring, tracker). It makes every check the layout implies: framing
// (Finish), tags strictly ascending within int32, each count in
// (0, posts] and within int32, the ring's length and range, and a ring
// position that agrees with the post count — k posts leave head at
// k mod (ω−1) and fill at min(k, ω−1).
func decodeTracker(rec []byte, omega int) (*stability.Tracker, error) {
	r := codec.NewReader(rec, statePrefix)
	posts := int(r.Uvarint("posts"))
	// An entry takes at least two bytes, so a support size past half the
	// bytes left is truncation, refused before its table is allocated.
	nt := r.Length("support size", min(maxStateSlice, r.Remaining()/2))
	if err := r.Err(); err != nil {
		return nil, err
	}
	var counts sparse.Counts
	counts.Presize(posts, nt)
	d := codec.NewDelta(-1)
	for k := 0; k < nt; k++ {
		t, n := readEntry(r, &d)
		if err := r.Err(); err != nil {
			return nil, err
		}
		if err := counts.Insert(t, n); err != nil {
			return nil, err
		}
	}
	nr := readRingSize(r, omega)
	if err := r.Err(); err != nil {
		return nil, err
	}
	ring := make([]float64, nr)
	for k := range ring {
		ring[k] = r.Float64("ring entry")
	}
	head := int(r.Uvarint("ring head"))
	fill := int(r.Uvarint("ring fill"))
	sum := r.Float64("ring sum")
	checkRingPosition(r, posts, nr, head, fill)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return stability.RestoreTracker(omega, &counts, ring, head, fill, sum)
}

// readRingSize reads a record's ring length, which must be ω−1.
func readRingSize(r *codec.Reader, omega int) int {
	nr := r.Length("ring size", maxStateSlice)
	if r.Err() == nil && nr != omega-1 {
		r.Fail("ring has %d entries for omega %d", nr, omega)
	}
	return nr
}

// checkRingPosition fails the reader when a ring position contradicts
// the post count: k posts leave head at k mod nr and fill at min(k, nr).
func checkRingPosition(r *codec.Reader, posts, nr, head, fill int) {
	if r.Err() == nil && (head != posts%nr || fill != min(posts, nr)) {
		r.Fail("ring head %d / fill %d contradict %d posts", head, fill, posts)
	}
}

// scanRecord walks one record without materializing slices:
// entry (when non-nil) sees each (tag, count) support pair, the ring is
// skipped, and the scalars a cold resource retains — the post count and
// the MA window's running sum — are returned. Besides the framing it
// checks what it reads, so Restore refuses at boot what a rehydration
// would refuse later: strictly ascending tags, each count in (0, posts],
// a ring of ω−1 entries and a ring position that agrees with the post
// count. Restore and ViewEntries stream records with it.
func scanRecord(r *codec.Reader, omega int, entry func(t tags.Tag, n int64)) (posts int, sum float64) {
	posts = int(r.Uvarint("posts"))
	nt := r.Length("support size", maxStateSlice)
	if r.Err() != nil {
		return 0, 0
	}
	d := codec.NewDelta(-1)
	for k := 0; k < nt && r.Err() == nil; k++ {
		t, n := readEntry(r, &d)
		if r.Err() == nil && (n <= 0 || n > int64(posts)) {
			r.Fail("tag %d count %d outside (0, %d]", t, n, posts)
		}
		if r.Err() == nil && entry != nil {
			entry(t, n)
		}
	}
	nr := readRingSize(r, omega)
	if r.Err() != nil {
		return 0, 0
	}
	for k := 0; k < nr && r.Err() == nil; k++ {
		r.Float64("ring entry")
	}
	head := int(r.Uvarint("ring head"))
	fill := int(r.Uvarint("ring fill"))
	sum = r.Float64("ring sum")
	checkRingPosition(r, posts, nr, head, fill)
	return posts, sum
}
