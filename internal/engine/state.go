package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"incentivetag/internal/codec"
	"incentivetag/internal/sparse"
	"incentivetag/internal/stability"
	"incentivetag/internal/tags"
	"incentivetag/internal/tagstore"
)

// stateVersion is bumped on State encoding changes; Restore rejects
// unknown versions loudly instead of misreading. Version 2 added the id
// fingerprint; a version-1 payload reads as one with no Config.IDs.
const stateVersion = 2

// statePrefix namespaces the codec reader's positioned decode errors.
const statePrefix = "engine: state"

// State is the complete serializable engine state — the WRITE side of
// durability (ExportState → MarshalBinary → tagstore.WriteSnapshot);
// Restore reads the marshalled form back. It holds everything needed to
// rebuild an engine that is bit-identical to the one exported — same
// per-resource counts, MA windows, qualities, and aggregate metrics, so
// a snapshot plus the WAL records with seq > LastSeq replays to exactly
// the pre-crash engine.
//
// Derived integers (reference dot products, over-/under-tagged flags,
// norms, masses) are deliberately NOT stored: they are exact integer
// functions of the stored counts and are recomputed at restore, which
// both shrinks snapshots and turns a corrupted count into a loud
// inconsistency instead of a silently wrong metric. Floats with rounding
// history (MA rings and running sums, shard quality accumulators) ARE
// stored, bit for bit — recomputing them would drift from the exported
// engine by reassociation.
type State struct {
	// Omega, Shards, UnderThreshold and TagUniverse mirror the Config of
	// the exporting engine; restore demands an identical configuration.
	Omega          int
	Shards         int
	UnderThreshold int
	TagUniverse    int
	// LastSeq is the WAL sequence number this state covers: every record
	// with seq ≤ LastSeq is reflected in it (0 when no WAL is attached).
	LastSeq uint64
	// IDsFingerprint is idsFingerprint(Config.IDs) of the exporting
	// engine (0 without IDs); restore demands the same.
	IDsFingerprint uint64
	// Resources holds per-resource state in global index order.
	Resources []ResourceState
	// Aggregates holds per-shard metric accumulators in shard order.
	Aggregates []ShardAggregate
}

// ResourceState is one resource's exported state.
type ResourceState struct {
	// Posts is the tracker's accumulated post count (primed + ingested).
	Posts int
	// Tags/Counts are the count vector's non-zero support, parallel,
	// ascending by tag.
	Tags   []tags.Tag
	Counts []int64
	// Ring, Head, Fill and Sum are the MA window internals
	// (stability.Tracker.ExportRing).
	Ring []float64
	Head int
	Fill int
	Sum  float64
}

// ShardAggregate is one shard's exported metric accumulators. Over- and
// under-tagged counts are recomputed from resource state at restore.
type ShardAggregate struct {
	QSum   float64
	QComp  float64
	Spent  int
	Posts  int
	Wasted int
}

// ExportState captures a consistent cut of the engine: all shard locks
// are held for the duration, so no post is ever half-reflected, and the
// recorded LastSeq is exactly the set of WAL records the state covers
// (WAL appends happen under a shard lock, so a lock-stopped engine has
// applied every record it logged). Cold resources are exported through
// a transient decode of their frozen records, without being rehydrated.
func (e *Engine) ExportState() *State {
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range e.shards {
			sh.mu.Unlock()
		}
	}()
	st := &State{
		Omega:          e.cfg.Omega,
		Shards:         len(e.shards),
		UnderThreshold: e.cfg.UnderThreshold,
		TagUniverse:    e.cfg.TagUniverse,
		IDsFingerprint: idsFingerprint(e.cfg.IDs),
		Resources:      make([]ResourceState, e.n),
		Aggregates:     make([]ShardAggregate, 0, len(e.shards)),
	}
	if e.cfg.WAL != nil {
		e.walMu.Lock()
		st.LastSeq = e.cfg.WAL.LastSeq()
		e.walMu.Unlock()
	}
	for i := 0; i < e.n; i++ {
		sh, l := e.locate(i)
		r := sh.res[l]
		tr := r.tracker
		if tr == nil {
			tr = e.frozenTracker(r, i)
		}
		rs := &st.Resources[i]
		rs.Posts = tr.Posts()
		rs.Tags, rs.Counts = tr.Counts().Entries(nil, nil)
		rs.Ring, rs.Head, rs.Fill, rs.Sum = tr.ExportRing()
	}
	for _, sh := range e.shards {
		st.Aggregates = append(st.Aggregates, ShardAggregate{
			QSum: sh.qsum, QComp: sh.qcomp,
			Spent: sh.spent, Posts: sh.posts, Wasted: sh.wasted,
		})
	}
	return st
}

// Restore rebuilds an engine from a marshalled State payload — the only
// way durable state enters an engine. Every resource starts COLD: the
// payload is indexed, not decoded — each resource keeps a frozen record
// that aliases its byte span inside payload, and only the scalars the
// engine answers reads from (post count, quality, MA window sum) and
// the reference dot a later rehydration keeps are computed during a
// single streaming pass. When payload is an mmap'd
// snapshot (tagstore.MapSnapshot), boot cost is one sequential
// page-cache walk and the resident heap holds no per-resource vectors or
// trackers at all; resources rehydrate lazily as traffic touches them,
// so an engine nobody evicts converges to all-resident under traffic.
//
// The specs supply what a snapshot never stores — references, stable
// points, task costs — and must describe the same corpus the exporting
// engine was built over; the configuration must match the exporting
// engine's exactly. Violations fail loudly: a snapshot restored against
// the wrong corpus or options must never silently diverge. The caller
// must keep payload valid (the mapping open) for the life of the
// engine: frozen records alias it until their resource is rehydrated.
// The returned lastSeq is the snapshot's WAL coverage, as State.LastSeq.
func Restore(cfg Config, specs []ResourceSpec, payload []byte) (e *Engine, lastSeq uint64, err error) {
	cfg = cfg.withDefaults()
	if cfg.Omega < 2 {
		return nil, 0, fmt.Errorf("engine: omega must be ≥ 2, got %d", cfg.Omega)
	}
	r := codec.NewReader(payload, statePrefix)
	v := r.Uvarint("version")
	if r.Err() == nil && v != 1 && v != stateVersion {
		return nil, 0, fmt.Errorf("engine: state version %d not supported (want %d)", v, stateVersion)
	}
	omega := int(r.Uvarint("omega"))
	nshards := int(r.Uvarint("shards"))
	under := int(r.Varint("under threshold"))
	universe := int(r.Uvarint("tag universe"))
	lastSeq = r.Uvarint("last seq")
	var fingerprint uint64
	if v == stateVersion {
		fingerprint = r.Uvarint("ids fingerprint")
	}
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
		posts, sum := scanResourceState(r, cfg.Omega, func(t tags.Tag, cnt int64) {
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
// apply it; callers must feed only the WAL tail past State.LastSeq.
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

// appendResourceState appends one resource's record in the state
// format's per-resource layout: posts, support size, delta-encoded
// (tag, count) pairs ascending from a −1 base, then the MA window (ring
// length, bit-exact ring floats, head, fill, sum). This layout is the
// unit shared by full snapshots (MarshalBinary), the residency tier's
// frozen records, and Restore's cold index — one encoder, read whole by
// decodeTracker and streamed by scanResourceState. i names the resource
// in errors.
func appendResourceState(buf []byte, i int, rs *ResourceState) ([]byte, error) {
	if len(rs.Tags) != len(rs.Counts) {
		return nil, fmt.Errorf("engine: resource %d has %d tags for %d counts", i, len(rs.Tags), len(rs.Counts))
	}
	buf = codec.AppendUvarint(buf, uint64(rs.Posts))
	buf = codec.AppendUvarint(buf, uint64(len(rs.Tags)))
	d := codec.NewDelta(-1)
	for k, t := range rs.Tags {
		gap, ok := d.Gap(int64(t))
		if !ok {
			return nil, fmt.Errorf("engine: resource %d support not ascending", i)
		}
		buf = codec.AppendUvarint(buf, gap)
		buf = codec.AppendUvarint(buf, uint64(rs.Counts[k]))
	}
	buf = codec.AppendUvarint(buf, uint64(len(rs.Ring)))
	for _, f := range rs.Ring {
		buf = codec.AppendFloat64(buf, f)
	}
	buf = codec.AppendUvarint(buf, uint64(rs.Head))
	buf = codec.AppendUvarint(buf, uint64(rs.Fill))
	buf = codec.AppendFloat64(buf, rs.Sum)
	return buf, nil
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
// appendResourceState record in one pass into a restored tracker. The
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

// scanResourceState walks one record without materializing slices:
// entry (when non-nil) sees each (tag, count) support pair, the ring is
// skipped, and the scalars a cold resource retains — the post count and
// the MA window's running sum — are returned. Besides the framing it
// checks what it reads, so Restore refuses at boot what a rehydration
// would refuse later: strictly ascending tags, each count in (0, posts],
// a ring of ω−1 entries and a ring position that agrees with the post
// count. Restore and ViewEntries stream records with it.
func scanResourceState(r *codec.Reader, omega int, entry func(t tags.Tag, n int64)) (posts int, sum float64) {
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

// MarshalBinary renders the state as a compact, versioned byte payload
// (the snapshot body tagstore.WriteSnapshot frames and checksums).
// Integers are varint-encoded; tag ids are delta-encoded within each
// resource (ascending order); floats are raw IEEE-754 bits. All
// primitives come from internal/codec — the same implementation the
// tagstore record format uses.
func (st *State) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 64+len(st.Resources)*64)
	buf = codec.AppendUvarint(buf, stateVersion)
	buf = codec.AppendUvarint(buf, uint64(st.Omega))
	buf = codec.AppendUvarint(buf, uint64(st.Shards))
	buf = codec.AppendVarint(buf, int64(st.UnderThreshold))
	buf = codec.AppendUvarint(buf, uint64(st.TagUniverse))
	buf = codec.AppendUvarint(buf, st.LastSeq)
	buf = codec.AppendUvarint(buf, st.IDsFingerprint)
	buf = codec.AppendUvarint(buf, uint64(len(st.Resources)))
	var err error
	for i := range st.Resources {
		if buf, err = appendResourceState(buf, i, &st.Resources[i]); err != nil {
			return nil, err
		}
	}
	buf = codec.AppendUvarint(buf, uint64(len(st.Aggregates)))
	for _, agg := range st.Aggregates {
		buf = codec.AppendFloat64(buf, agg.QSum)
		buf = codec.AppendFloat64(buf, agg.QComp)
		buf = codec.AppendUvarint(buf, uint64(agg.Spent))
		buf = codec.AppendUvarint(buf, uint64(agg.Posts))
		buf = codec.AppendUvarint(buf, uint64(agg.Wasted))
	}
	return buf, nil
}
