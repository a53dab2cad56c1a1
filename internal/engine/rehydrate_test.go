package engine

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"incentivetag/internal/codec"
	"incentivetag/internal/quality"
	"incentivetag/internal/sparse"
	"incentivetag/internal/stability"
	"incentivetag/internal/synth"
	"incentivetag/internal/tags"
)

// oracleDecode is the record decoder decodeTracker replaced, kept as
// FuzzRehydrate's oracle: materialize the record's fields into slices
// (readResourceState), check the framing, rebuild the count vector from
// the slices, then restore a tracker from them — three passes where
// decodeTracker makes one. It makes every check decodeTracker makes
// except the ring position against the post count.
func oracleDecode(rec []byte, omega int) (*stability.Tracker, error) {
	var rs testRecord
	rd := codec.NewReader(rec, statePrefix)
	readResourceState(rd, &rs)
	if err := rd.Finish(); err != nil {
		return nil, err
	}
	counts := sparse.NewCounts()
	counts.Presize(rs.posts, len(rs.tags))
	for k, t := range rs.tags {
		if err := counts.Insert(t, rs.counts[k]); err != nil {
			return nil, err
		}
	}
	return stability.RestoreTracker(omega, counts, rs.ring, rs.head, rs.fill, rs.sum)
}

// testRecord is one record's fields, materialized.
type testRecord struct {
	posts  int
	tags   []tags.Tag
	counts []int64
	ring   []float64
	head   int
	fill   int
	sum    float64
}

// readResourceState decodes one appendRecord record at the reader's
// position into rs, field by field. Its slice lengths are bounded by the
// bytes left (an entry takes at least two, a ring float eight), so a
// fuzzed length cannot allocate gigabytes; a longer one is truncated
// and fails either way.
func readResourceState(r *codec.Reader, rs *testRecord) {
	rs.posts = int(r.Uvarint("posts"))
	nt := r.Length("support size", r.Remaining()/2)
	if r.Err() != nil {
		return
	}
	rs.tags = make([]tags.Tag, nt)
	rs.counts = make([]int64, nt)
	d := codec.NewDelta(-1)
	for k := 0; k < nt && r.Err() == nil; k++ {
		rs.tags[k], rs.counts[k] = readEntry(r, &d)
	}
	nr := r.Length("ring size", r.Remaining()/8)
	if r.Err() != nil {
		return
	}
	rs.ring = make([]float64, nr)
	for k := 0; k < nr && r.Err() == nil; k++ {
		rs.ring[k] = r.Float64("ring entry")
	}
	rs.head = int(r.Uvarint("ring head"))
	rs.fill = int(r.Uvarint("ring fill"))
	rs.sum = r.Float64("ring sum")
}

// readRecord decodes a whole record into its fields.
func readRecord(t *testing.T, rec []byte) testRecord {
	t.Helper()
	var rs testRecord
	rd := codec.NewReader(rec, statePrefix)
	readResourceState(rd, &rs)
	if err := rd.Finish(); err != nil {
		t.Fatal(err)
	}
	return rs
}

// encode writes rs back in the record layout with no check, so a test
// can damage any field: each tag is stored as its gap from the one
// before (from −1), wrapped to uint64, so descending or repeated tags
// encode as they would be misread.
func (rs testRecord) encode() []byte {
	buf := codec.AppendUvarint(nil, uint64(rs.posts))
	buf = codec.AppendUvarint(buf, uint64(len(rs.tags)))
	prev := int64(-1)
	for k, t := range rs.tags {
		buf = codec.AppendUvarint(buf, uint64(int64(t)-prev))
		buf = codec.AppendUvarint(buf, uint64(rs.counts[k]))
		prev = int64(t)
	}
	buf = codec.AppendUvarint(buf, uint64(len(rs.ring)))
	for _, f := range rs.ring {
		buf = codec.AppendFloat64(buf, f)
	}
	buf = codec.AppendUvarint(buf, uint64(rs.head))
	buf = codec.AppendUvarint(buf, uint64(rs.fill))
	return codec.AppendFloat64(buf, rs.sum)
}

// rawRecord encodes a record field by field with no check, so a test
// can damage any field: gaps are the stored tag deltas (from a −1 base)
// and the ring's length is len(ring).
func rawRecord(posts uint64, gaps, counts []uint64, ring []float64, head, fill uint64) []byte {
	buf := codec.AppendUvarint(nil, posts)
	buf = codec.AppendUvarint(buf, uint64(len(gaps)))
	for k, g := range gaps {
		buf = codec.AppendUvarint(buf, g)
		buf = codec.AppendUvarint(buf, counts[k])
	}
	buf = codec.AppendUvarint(buf, uint64(len(ring)))
	var sum float64
	for _, f := range ring {
		buf = codec.AppendFloat64(buf, f)
		sum += f
	}
	buf = codec.AppendUvarint(buf, head)
	buf = codec.AppendUvarint(buf, fill)
	return codec.AppendFloat64(buf, sum)
}

// recordOmega is the MA window of every hand-built record below.
const recordOmega = 5

// intactRecord is a valid record for ω = 5: 12 posts over tags 3, 7 and
// 9, the ring at head 12 mod 4 = 0 and full.
func intactRecord() []byte {
	return rawRecord(12, []uint64{4, 4, 2}, []uint64{12, 5, 1}, []float64{0.9, 0.95, 0.97, 0.99}, 0, 4)
}

// damagedRecords is one record per check decodeTracker makes. ringOff
// marks the one the old decoder accepted: a ring whose position
// contradicts the post count.
func damagedRecords() []struct {
	name    string
	rec     []byte
	ringOff bool
} {
	ring := []float64{0.9, 0.95, 0.97, 0.99}
	intact := intactRecord()
	big := uint64(math.MaxInt32) + 6 // head big mod 4 = 1
	return []struct {
		name    string
		rec     []byte
		ringOff bool
	}{
		{"duplicate tag", rawRecord(12, []uint64{4, 0, 2}, []uint64{12, 5, 1}, ring, 0, 4), false},
		{"descending gap", rawRecord(12, []uint64{6, math.MaxUint64 - 1, 7}, []uint64{12, 5, 1}, ring, 0, 4), false},
		{"count 0", rawRecord(12, []uint64{4, 4, 2}, []uint64{12, 0, 1}, ring, 0, 4), false},
		{"count above posts", rawRecord(12, []uint64{4, 4, 2}, []uint64{13, 5, 1}, ring, 0, 4), false},
		{"count above MaxInt32", rawRecord(big, []uint64{4, 4, 2}, []uint64{big - 2, 5, 1}, ring, 1, 4), false},
		{"tag overflow", rawRecord(12, []uint64{4, math.MaxInt32, 2}, []uint64{12, 5, 1}, ring, 0, 4), false},
		{"ring too short", rawRecord(12, []uint64{4, 4, 2}, []uint64{12, 5, 1}, ring[:3], 0, 3), false},
		{"ring too long", rawRecord(12, []uint64{4, 4, 2}, []uint64{12, 5, 1}, append(ring, 1), 0, 4), false},
		{"head out of range", rawRecord(12, []uint64{4, 4, 2}, []uint64{12, 5, 1}, ring, 4, 4), false},
		{"fill out of range", rawRecord(12, []uint64{4, 4, 2}, []uint64{12, 5, 1}, ring, 0, 5), false},
		{"truncated by one byte", intact[:len(intact)-1], false},
		{"truncated mid-support", intact[:5], false},
		{"support size past the bytes", codec.AppendUvarint(codec.AppendUvarint(nil, 12), 1<<27), false},
		{"trailing byte", append(slices.Clone(intact), 0), false},
		{"ring off its post count", rawRecord(12, []uint64{4, 4, 2}, []uint64{12, 5, 1}, ring, 3, 1), true},
	}
}

// sortedEntries is c's support ascending and the count of each tag.
func sortedEntries(c *sparse.Counts) ([]tags.Tag, []int64) {
	ts := c.Support()
	ns := make([]int64, len(ts))
	for k, tg := range ts {
		ns[k] = c.Get(tg)
	}
	return ts, ns
}

// requireSameTracker demands bit-identical decoded state: entries,
// norm², mass, post count, ring, head, fill and sum.
func requireSameTracker(t *testing.T, got, want *stability.Tracker) {
	t.Helper()
	gc, wc := got.Counts(), want.Counts()
	gts, gns := sortedEntries(gc)
	wts, wns := sortedEntries(wc)
	if !slices.Equal(gts, wts) || !slices.Equal(gns, wns) {
		t.Fatalf("entries %v %v, want %v %v", gts, gns, wts, wns)
	}
	if math.Float64bits(gc.Norm2()) != math.Float64bits(wc.Norm2()) || gc.Mass() != wc.Mass() || gc.Posts() != wc.Posts() {
		t.Fatalf("norm² %v mass %d posts %d, want %v %d %d", gc.Norm2(), gc.Mass(), gc.Posts(), wc.Norm2(), wc.Mass(), wc.Posts())
	}
	gr, gh, gf, gs := got.ExportRing()
	wr, wh, wf, ws := want.ExportRing()
	same := len(gr) == len(wr) && gh == wh && gf == wf && math.Float64bits(gs) == math.Float64bits(ws)
	for k := 0; same && k < len(gr); k++ {
		same = math.Float64bits(gr[k]) == math.Float64bits(wr[k])
	}
	if !same {
		t.Fatalf("ring %v head %d fill %d sum %v, want %v %d %d %v", gr, gh, gf, gs, wr, wh, wf, ws)
	}
}

// Every damaged record is refused by the one decoder, and every one but
// the ring-position case by the old decoder too.
func TestDecodeTrackerRejects(t *testing.T) {
	want, err := oracleDecode(intactRecord(), recordOmega)
	if err != nil {
		t.Fatalf("old decoder refused the intact record: %v", err)
	}
	got, err := decodeTracker(intactRecord(), recordOmega)
	if err != nil {
		t.Fatalf("intact record refused: %v", err)
	}
	requireSameTracker(t, got, want)
	for _, tc := range damagedRecords() {
		if _, err := decodeTracker(tc.rec, recordOmega); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := oracleDecode(tc.rec, recordOmega); (err == nil) != tc.ringOff {
			t.Errorf("%s: old decoder error %v", tc.name, err)
		}
	}
}

// FuzzRehydrate holds the one-pass decoder to the old three-pass chain
// on arbitrary record bytes: both accept or both refuse, and an accepted
// record decodes to bit-identical counts, norm², ring, head, fill and
// sum. The one allowed difference is the ring-position check the old
// chain lacked: decodeTracker alone refuses a ring whose head or fill
// contradicts the post count.
func FuzzRehydrate(f *testing.F) {
	f.Add(uint8(recordOmega-2), intactRecord())
	for _, tc := range damagedRecords() {
		f.Add(uint8(recordOmega-2), tc.rec)
	}
	specs := stateSpecs(6, 3)
	eng, err := New(Config{Omega: 7, Shards: 2}, specs)
	if err != nil {
		f.Fatal(err)
	}
	for i := range specs {
		if _, err := eng.Evict(i); err != nil {
			f.Fatal(err)
		}
		sh, l := eng.locate(i)
		f.Add(uint8(7-2), sh.res[l].frozen)
	}
	f.Fuzz(func(t *testing.T, w uint8, rec []byte) {
		omega := 2 + int(w%8)
		got, gerr := decodeTracker(rec, omega)
		want, werr := oracleDecode(rec, omega)
		switch {
		case werr != nil:
			if gerr == nil {
				t.Fatalf("accepted a record the old decoder refuses: %v", werr)
			}
		case gerr != nil:
			k, nr := want.Posts(), omega-1
			if _, head, fill, _ := want.ExportRing(); head == k%nr && fill == min(k, nr) {
				t.Fatalf("refused a record the old decoder accepts: %v", gerr)
			}
		default:
			requireSameTracker(t, got, want)
		}
	})
}

// A record whose MA ring position contradicts its post count is refused
// at rehydration — 12 posts under ω = 5 leave head 0 and fill 4, so a
// ring at head 3, fill 1 would have served a wrong MA from the next post
// on — as is a consistent record of another post count than the
// resource consumed, and a failed rehydration leaves the resource cold
// and unchanged.
func TestRehydrateRefusesRingOffPosts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	initial := make(tags.Seq, 12)
	for k := range initial {
		initial[k] = testPost(rng)
	}
	specs := []ResourceSpec{{Initial: initial, Ref: quality.NewReference(sparse.FromSeq(initial, 12))}}
	cfg := Config{Omega: 5, Shards: 1}
	eng, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evict(0); err != nil {
		t.Fatal(err)
	}
	intact := eng.shards[0].res[0].frozen
	rs := readRecord(t, intact)
	if rs.head != 0 || rs.fill != 4 {
		t.Fatalf("12 posts froze at head %d fill %d, want 0 and 4", rs.head, rs.fill)
	}
	for _, tamper := range [][3]int{{12, 3, 1}, {12, 0, 1}, {12, 1, 4}, {13, 1, 4}} {
		bad := rs
		bad.posts, bad.head, bad.fill = tamper[0], tamper[1], tamper[2]
		tampered := bad.encode()
		eng.shards[0].res[0].frozen = tampered
		ma, _ := eng.MA(0)
		before := eng.Residency()
		if err := eng.ensureResident(0); err == nil {
			t.Fatalf("%d posts at head %d fill %d accepted for 12 consumed", bad.posts, bad.head, bad.fill)
		}
		after := eng.Residency()
		if eng.Resident(0) || !bytes.Equal(eng.shards[0].res[0].frozen, tampered) || after != before {
			t.Fatalf("failed rehydration moved the resource: resident %v, census %+v → %+v", eng.Resident(0), before, after)
		}
		if got, _ := eng.MA(0); got != ma || eng.Count(0) != 12 {
			t.Fatalf("failed rehydration moved MA %v → %v or count to %d", ma, got, eng.Count(0))
		}
	}
	eng.shards[0].res[0].frozen = intact
	twin, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	p := testPost(rng)
	for _, e := range []*Engine{eng, twin} {
		if err := e.Ingest(0, p); err != nil {
			t.Fatal(err)
		}
	}
	assertEnginesBitIdentical(t, eng, twin)
}

// synthEngine builds an engine at cfg over the January state of an
// n = 2 000 synthetic corpus, the Figure-6 replay's scale; with all set,
// every recorded post is then ingested too.
func synthEngine(b *testing.B, cfg Config, all bool) *Engine {
	ds, err := synth.Generate(synth.DefaultConfig(2000, 311))
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]ResourceSpec, ds.N())
	for i, r := range ds.Resources {
		specs[i] = ResourceSpec{
			Initial: r.Seq[:r.Initial],
			Ref:     quality.NewReference(sparse.FromSeq(r.Seq, r.StableK)),
			StableK: r.StableK,
		}
	}
	eng, err := New(cfg, specs)
	if err != nil {
		b.Fatal(err)
	}
	for i, r := range ds.Resources {
		if !all {
			break
		}
		for _, p := range r.Seq[r.Initial:] {
			if err := eng.Ingest(i, p); err != nil {
				b.Fatal(err)
			}
		}
	}
	return eng
}

// BenchmarkRehydrate times one cold → hot transition (ensureResident on
// a cold resource) over synthEngine's January state: ns/op and
// allocs/op are per rehydration. Every resource is evicted, outside the
// timer, before each sweep.
func BenchmarkRehydrate(b *testing.B) {
	eng := synthEngine(b, Config{Shards: 1}, false)
	n := eng.N()
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i := k % n
		if i == 0 {
			b.StopTimer()
			eng.EvictColder(math.MaxUint64)
			b.StartTimer()
		}
		if err := eng.ensureResident(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFreeze times one hot → cold transition (Evict on a hot
// resource) over synthEngine's January state: ns/op and allocs/op are
// per freeze, the record's one exactly sized allocation included. Every
// resource is rehydrated, outside the timer, before each later sweep.
func BenchmarkFreeze(b *testing.B) {
	eng := synthEngine(b, Config{Shards: 1}, false)
	n := eng.N()
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i := k % n
		if i == 0 && k > 0 {
			b.StopTimer()
			for j := 0; j < n; j++ {
				if err := eng.ensureResident(j); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		if _, err := eng.Evict(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotExport times one AppendSnapshot — the whole payload,
// written under every shard lock — after every recorded post of
// synthEngine's corpus is ingested, with every resource hot and with
// three in four frozen (their records are copied verbatim).
func BenchmarkSnapshotExport(b *testing.B) {
	eng := synthEngine(b, Config{}, true)
	run := func(b *testing.B) {
		b.ReportAllocs()
		for k := 0; k < b.N; k++ {
			eng.AppendSnapshot(nil)
		}
	}
	b.Run("hot", run)
	for i := 0; i < eng.N(); i++ {
		if i%4 != 0 {
			if _, err := eng.Evict(i); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold3of4", run)
}
