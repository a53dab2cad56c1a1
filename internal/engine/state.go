package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"incentivetag/internal/codec"
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
// applied every record it logged). Cold resources are exported from
// their frozen records without being rehydrated.
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
		rs := &st.Resources[i]
		if r.tracker == nil {
			// Cold: the frozen record IS the resource's exported state.
			rd := codec.NewReader(r.frozen, statePrefix)
			readResourceState(rd, rs)
			if err := rd.Finish(); err != nil {
				panic(fmt.Sprintf("engine: resource %d frozen record corrupt: %v", i, err))
			}
			continue
		}
		rs.Posts = r.tracker.Posts()
		rs.Tags, rs.Counts = r.tracker.Counts().Entries(nil, nil)
		rs.Ring, rs.Head, rs.Fill, rs.Sum = r.tracker.ExportRing()
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
		// and squared norm (term for term as FromEntries would) without
		// materializing the support, and remember the record's byte span
		// as the resource's frozen state.
		start := r.Offset()
		var dot int64
		var norm2 float64
		posts, sum := scanResourceState(r, func(t tags.Tag, cnt int64) {
			norm2 += float64(cnt) * float64(cnt)
			if res.refCounts != nil {
				dot += cnt * res.refGet(t)
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

// Fork returns an independent engine equal to Restore(cfg, specs, p) for
// the payload p this engine was restored from, at the cost of a copy: the
// resource structs are copied into one slab and the shard aggregates
// carried over, while the frozen records and reference vectors — never
// written in place — are shared. specs supply the stable points and task
// costs, which may differ from call to call, and over-tagged resources
// are recounted under them; initial prefixes and references must be the
// ones the engine was restored over. Only a quiescent template can fork:
// an engine with a WAL, a subscriber or a hot resource is refused.
func (e *Engine) Fork(specs []ResourceSpec) (*Engine, error) {
	if len(specs) != e.n {
		return nil, fmt.Errorf("engine: fork of %d resources over %d specs", e.n, len(specs))
	}
	if err := checkSpecs(specs, e.cfg.IDs); err != nil {
		return nil, err
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	if e.cfg.WAL != nil || e.sub != nil {
		return nil, fmt.Errorf("engine: cannot fork an engine with a WAL or a subscriber")
	}
	f := &Engine{cfg: e.cfg, n: e.n, shards: make([]*shard, len(e.shards))}
	slab := make([]resource, e.n)
	for s, sh := range e.shards {
		fs := &shard{qsum: sh.qsum, qcomp: sh.qcomp, spent: sh.spent, posts: sh.posts, wasted: sh.wasted,
			res: make([]*resource, 0, len(sh.res))}
		for l, r := range sh.res {
			i := l*len(e.shards) + s
			if r.tracker != nil {
				return nil, fmt.Errorf("engine: cannot fork: resource %d is resident", i)
			}
			fr := &slab[i]
			*fr = *r
			fr.stableK, fr.cost, fr.lastTouch = specs[i].StableK, max(specs[i].Cost, 1), 0
			fs.index(fr, e.cfg.UnderThreshold)
		}
		f.shards[s] = fs
	}
	return f, nil
}

// Replay applies one recovered post to resource i without writing the
// WAL — the record already sits in the log. It is the recovery twin of
// Ingest: same validation, same metric deltas, no append. Replaying a
// record that was already reflected in a restored snapshot would double
// apply it; callers must feed only the WAL tail past State.LastSeq.
func (e *Engine) Replay(i int, p tags.Post) error {
	if i < 0 || i >= e.n {
		return fmt.Errorf("engine: resource index %d %w [0,%d)", i, ErrResourceRange, e.n)
	}
	if len(p) == 0 {
		return fmt.Errorf("engine: %w for resource %d", ErrEmptyPost, e.id(i))
	}
	sh, l := e.locate(i)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := e.ensureResidentLocked(sh.res[l], i); err != nil {
		return err
	}
	e.applyLocked(sh, sh.res[l], i, p)
	return nil
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
// frozen records, and Restore's cold index (scanResourceState) — one
// encoder, three consumers. i names the resource in errors.
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

// readResourceState decodes one appendResourceState record at the
// reader's position into rs.
func readResourceState(r *codec.Reader, rs *ResourceState) {
	rs.Posts = int(r.Uvarint("posts"))
	nt := r.Length("support size", maxStateSlice)
	if r.Err() != nil {
		return
	}
	rs.Tags = make([]tags.Tag, nt)
	rs.Counts = make([]int64, nt)
	d := codec.NewDelta(-1)
	for k := 0; k < nt && r.Err() == nil; k++ {
		t := d.Absorb(r.Uvarint("tag delta"))
		if t > int64(math.MaxInt32) {
			r.Fail("tag id %d overflows", t)
			return
		}
		rs.Tags[k] = tags.Tag(t)
		rs.Counts[k] = int64(r.Uvarint("count"))
	}
	nr := r.Length("ring size", maxStateSlice)
	if r.Err() != nil {
		return
	}
	rs.Ring = make([]float64, nr)
	for k := 0; k < nr && r.Err() == nil; k++ {
		rs.Ring[k] = r.Float64("ring entry")
	}
	rs.Head = int(r.Uvarint("ring head"))
	rs.Fill = int(r.Uvarint("ring fill"))
	rs.Sum = r.Float64("ring sum")
}

// scanResourceState structurally walks one record without materializing
// slices: entry (when non-nil) sees each (tag, count) support pair, the
// ring is skipped, and the scalars a cold resource retains — the post
// count and the MA window's running sum — are returned. It is the
// allocation-free twin of readResourceState used by Restore.
func scanResourceState(r *codec.Reader, entry func(t tags.Tag, n int64)) (posts int, sum float64) {
	posts = int(r.Uvarint("posts"))
	nt := r.Length("support size", maxStateSlice)
	if r.Err() != nil {
		return 0, 0
	}
	d := codec.NewDelta(-1)
	for k := 0; k < nt && r.Err() == nil; k++ {
		t := d.Absorb(r.Uvarint("tag delta"))
		if t > int64(math.MaxInt32) {
			r.Fail("tag id %d overflows", t)
			return 0, 0
		}
		n := int64(r.Uvarint("count"))
		if r.Err() == nil && entry != nil {
			entry(tags.Tag(t), n)
		}
	}
	nr := r.Length("ring size", maxStateSlice)
	if r.Err() != nil {
		return 0, 0
	}
	for k := 0; k < nr && r.Err() == nil; k++ {
		r.Float64("ring entry")
	}
	r.Uvarint("ring head")
	r.Uvarint("ring fill")
	sum = r.Float64("ring sum")
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
