package engine

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"incentivetag/internal/codec"
	"incentivetag/internal/quality"
	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
	"incentivetag/internal/tagstore"
)

// stateSpecs builds a small synthetic corpus of engine specs with
// references, initial prefixes and stable points.
func stateSpecs(n int, seed int64) []ResourceSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]ResourceSpec, n)
	for i := range specs {
		ref := sparse.NewCounts()
		var initial tags.Seq
		for k := 0; k < 8+rng.Intn(8); k++ {
			p := testPost(rng)
			ref.Add(p)
			if k < 4 {
				initial = append(initial, p)
			}
		}
		specs[i] = ResourceSpec{
			Initial: initial,
			Ref:     quality.NewReference(ref),
			StableK: 6 + rng.Intn(10),
		}
	}
	return specs
}

func testPost(rng *rand.Rand) tags.Post {
	n := 1 + rng.Intn(4)
	ts := make([]tags.Tag, n)
	for i := range ts {
		ts[i] = tags.Tag(rng.Intn(300))
	}
	p, err := tags.NewPost(ts...)
	if err != nil {
		panic(err)
	}
	return p
}

// assertEnginesBitIdentical compares every observable float and counter.
func assertEnginesBitIdentical(t *testing.T, a, b *Engine) {
	t.Helper()
	ma, mb := a.Snapshot(), b.Snapshot()
	if ma != mb {
		t.Fatalf("metric snapshots differ:\n%+v\n%+v", ma, mb)
	}
	for i := 0; i < a.N(); i++ {
		if qa, qb := a.QualityOf(i), b.QualityOf(i); qa != qb {
			t.Fatalf("resource %d quality %v != %v", i, qa, qb)
		}
		if ca, cb := a.Count(i), b.Count(i); ca != cb {
			t.Fatalf("resource %d count %d != %d", i, ca, cb)
		}
		maa, oka := a.MA(i)
		mab, okb := b.MA(i)
		if oka != okb || math.Float64bits(maa) != math.Float64bits(mab) {
			t.Fatalf("resource %d MA (%v,%v) != (%v,%v)", i, maa, oka, mab, okb)
		}
	}
	va, vb := a.VerifyMetrics(), b.VerifyMetrics()
	if va != vb {
		t.Fatalf("verify metrics differ:\n%+v\n%+v", va, vb)
	}
}

func TestExportRestoreBitIdentical(t *testing.T) {
	for _, universe := range []int{0, 512} {
		specs := stateSpecs(64, 7)
		cfg := Config{Omega: 5, Shards: 4, UnderThreshold: 10, TagUniverse: universe}
		live, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		for k := 0; k < 1500; k++ {
			if err := live.Ingest(rng.Intn(64), testPost(rng)); err != nil {
				t.Fatal(err)
			}
		}

		// Round-trip through the binary encoding, as recovery does. The
		// restored engine starts cold and must already read identically.
		payload := payloadOf(live)
		restored, _, err := Restore(cfg, specs, payload)
		if err != nil {
			t.Fatal(err)
		}
		assertEnginesBitIdentical(t, live, restored)

		// Rehydrating every resource must reproduce the exported state bit
		// for bit: nothing is lost or rounded on the way through a frozen
		// record.
		for i := 0; i < restored.N(); i++ {
			if err := restored.ensureResident(i); err != nil {
				t.Fatal(err)
			}
		}
		if st := restored.Residency(); st.Cold != 0 {
			t.Fatalf("ensureResident left %d resources cold", st.Cold)
		}
		if !bytes.Equal(payloadOf(restored), payload) {
			t.Fatal("re-exported state differs from the restored payload")
		}
		assertEnginesBitIdentical(t, live, restored)

		// Both engines must stay in lockstep under further identical
		// traffic — the restored state carries the full rounding history,
		// not just a value-equal approximation.
		for k := 0; k < 800; k++ {
			i, p := rng.Intn(64), testPost(rng)
			if err := live.Ingest(i, p); err != nil {
				t.Fatal(err)
			}
			if err := restored.Ingest(i, p); err != nil {
				t.Fatal(err)
			}
		}
		assertEnginesBitIdentical(t, live, restored)
	}
}

func TestReplayMatchesIngest(t *testing.T) {
	specs := stateSpecs(32, 3)
	cfg := Config{Omega: 5, Shards: 4, UnderThreshold: 10}
	a, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 600; k++ {
		i, p := rng.Intn(32), testPost(rng)
		if err := a.Ingest(i, p); err != nil {
			t.Fatal(err)
		}
		if err := b.Replay(i, p); err != nil {
			t.Fatal(err)
		}
	}
	assertEnginesBitIdentical(t, a, b)
	if err := b.Replay(-1, tags.MustPost(1)); err == nil {
		t.Fatal("out-of-range replay accepted")
	}
	if err := b.Replay(0, nil); err == nil {
		t.Fatal("empty replay accepted")
	}
}

// TestRestoreRejects pins the loud-failure contract of the one restore
// path: a payload that does not belong to this configuration and corpus,
// or that is structurally damaged, is refused — never half-restored.
func TestRestoreRejects(t *testing.T) {
	specs := stateSpecs(16, 11)
	cfg := Config{Omega: 5, Shards: 2, UnderThreshold: 10}
	eng, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 100; k++ {
		if err := eng.Ingest(rng.Intn(16), testPost(rng)); err != nil {
			t.Fatal(err)
		}
	}
	payload := payloadOf(eng)
	if _, _, err := Restore(cfg, specs, payload); err != nil {
		t.Fatalf("intact payload rejected: %v", err)
	}

	// A different corpus: longer initial prefixes than the state's post
	// counts.
	bigger := stateSpecs(16, 12)
	for i := range bigger {
		for len(bigger[i].Initial) < 200 {
			bigger[i].Initial = append(bigger[i].Initial, bigger[i].Initial[0])
		}
	}
	// Aggregates that disagree with the per-resource post counts.
	eng.shards[0].posts++
	skewedPayload := payloadOf(eng)
	eng.shards[0].posts--
	// The version is the payload's first varint.
	future := append([]byte{stateVersion + 1}, payload[1:]...)
	// A part of a larger corpus: the same state exported over ids 0, 2,
	// 4, …, restored over 1, 3, 5, ….
	partCfg := withIDs(cfg, 16, 0)
	part, err := New(partCfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	idsPayload := payloadOf(part)
	if _, _, err := Restore(partCfg, specs, idsPayload); err != nil {
		t.Fatalf("intact payload over ids rejected: %v", err)
	}
	// Spec values New refuses.
	negK := append([]ResourceSpec(nil), specs...)
	negK[3].StableK = -1
	negCost := append([]ResourceSpec(nil), specs...)
	negCost[3].Cost = -3

	cases := []struct {
		name    string
		cfg     Config
		sp      []ResourceSpec
		payload []byte
	}{
		{"omega mismatch", Config{Omega: 7, Shards: 2, UnderThreshold: 10}, specs, payload},
		{"shards mismatch", Config{Omega: 5, Shards: 4, UnderThreshold: 10}, specs, payload},
		{"threshold mismatch", Config{Omega: 5, Shards: 2, UnderThreshold: 3}, specs, payload},
		{"universe mismatch", Config{Omega: 5, Shards: 2, UnderThreshold: 10, TagUniverse: 64}, specs, payload},
		{"resource count mismatch", cfg, specs[:8], payload},
		{"posts below the primed prefix", cfg, bigger, payload},
		{"aggregates disagree with resources", cfg, specs, skewedPayload},
		{"unknown version", cfg, specs, future},
		{"empty payload", cfg, specs, nil},
		{"truncated mid-resource", cfg, specs, payload[:len(payload)/2]},
		{"truncated by one byte", cfg, specs, payload[:len(payload)-1]},
		{"trailing byte", cfg, specs, append(append([]byte{}, payload...), 0)},
		{"negative stable point", cfg, negK, payload},
		{"negative cost", cfg, negCost, payload},
		{"ids over an unfingerprinted state", withIDs(cfg, 16, 0), specs, payload},
		{"ids of another set", withIDs(cfg, 16, 1), specs, idsPayload},
		{"ids of another length", withIDs(cfg, 15, 0), specs, payload},
	}
	for _, tc := range cases {
		if _, _, err := Restore(tc.cfg, tc.sp, tc.payload); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// Restore refuses at boot a record that rehydration would refuse later:
// 24 posts under ω = 5 leave the ring at head 0, fill 4, so a head moved
// by one, a fill short of full, a count of 0 or above the post count,
// and tags that walk backwards (gaps 6 and 2⁶⁴−2 read as tags 5, 3) or
// repeat (a gap of 0) each fail Restore — before, such a snapshot booted,
// failed its first write, and every snapshot export panicked on it.
func TestRestoreRefusesRingOffPosts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	initial := make(tags.Seq, 24)
	for k := range initial {
		initial[k] = testPost(rng)
	}
	specs := []ResourceSpec{{Initial: initial, Ref: quality.NewReference(sparse.FromSeq(initial, 24))}}
	cfg := Config{Omega: 5, Shards: 1}
	eng, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	payload := payloadOf(eng)
	if _, _, err := Restore(cfg, specs, payload); err != nil {
		t.Fatalf("intact payload rejected: %v", err)
	}
	if _, err := eng.Evict(0); err != nil {
		t.Fatal(err)
	}
	rec := eng.shards[0].res[0].frozen
	rs := readRecord(t, rec)
	if rs.head != 0 || rs.fill != 4 || len(rs.tags) < 2 {
		t.Fatalf("24 posts froze at head %d fill %d over %d tags, want 0, 4 and two or more", rs.head, rs.fill, len(rs.tags))
	}
	at := bytes.Index(payload, rec)
	if at < 0 {
		t.Fatal("resource record not found in its payload")
	}
	encode := func(edit func(bad *testRecord)) []byte {
		bad := rs
		bad.counts = slices.Clone(rs.counts)
		edit(&bad)
		return bad.encode()
	}
	gaps := func(gs ...uint64) []byte {
		counts := make([]uint64, len(gs))
		for k := range counts {
			counts[k] = 1
		}
		return rawRecord(24, gs, counts, rs.ring, 0, 4)
	}
	for name, bad := range map[string][]byte{
		"head moved by one":    encode(func(b *testRecord) { b.head = 1 }),
		"fill short of full":   encode(func(b *testRecord) { b.fill = 3 }),
		"count above posts":    encode(func(b *testRecord) { b.counts[0] = 25 }),
		"count 0":              encode(func(b *testRecord) { b.counts[1] = 0 }),
		"descending gap":       gaps(6, math.MaxUint64-1),
		"repeated tag":         gaps(6, 0),
		"gap past int32 range": gaps(math.MaxInt32+2, 1),
	} {
		tampered := slices.Concat(payload[:at], bad, payload[at+len(rec):])
		if _, _, err := Restore(cfg, specs, tampered); err == nil {
			t.Errorf("%s: restored", name)
		}
	}
}

// withIDs is cfg declaring n resources with ids 2i+offset.
func withIDs(cfg Config, n int, offset uint32) Config {
	cfg.IDs = make([]uint32, n)
	for i := range cfg.IDs {
		cfg.IDs[i] = 2*uint32(i) + offset
	}
	return cfg
}

// A snapshot taken while four writers ingest is a consistent cut:
// Restore, which checks the shard aggregates against the posts the
// resource records imply, accepts every one, and the restored engine
// agrees with its own payload.
func TestExportStateConcurrentWithIngest(t *testing.T) {
	specs := stateSpecs(64, 21)
	cfg := Config{Omega: 5, Shards: 8, UnderThreshold: 10}
	eng, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := eng.Ingest(rng.Intn(64), testPost(rng)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for k := 0; k < 20; k++ {
		payload := payloadOf(eng)
		restored, _, err := Restore(cfg, specs, payload)
		if err != nil {
			t.Fatalf("inconsistent cut: %v", err)
		}
		if !bytes.Equal(payloadOf(restored), payload) {
			t.Fatal("restored engine re-exports another payload")
		}
	}
	close(stop)
	wg.Wait()
}

// Restore accepts only the state version this tree writes: a payload in
// the version-1 framing, which had no id fingerprint, is refused with
// the version error rather than read as one over the whole corpus.
func TestRestoreRefusesVersion1(t *testing.T) {
	specs := stateSpecs(16, 11)
	cfg := Config{Omega: 5, Shards: 2, UnderThreshold: 10}
	eng, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 100; k++ {
		if err := eng.Ingest(rng.Intn(16), testPost(rng)); err != nil {
			t.Fatal(err)
		}
	}
	payload := payloadOf(eng)
	r := codec.NewReader(payload, statePrefix)
	r.Uvarint("version")
	v1 := codec.AppendUvarint(nil, 1)
	v1 = codec.AppendUvarint(v1, r.Uvarint("omega"))
	v1 = codec.AppendUvarint(v1, r.Uvarint("shards"))
	v1 = codec.AppendVarint(v1, r.Varint("under threshold"))
	v1 = codec.AppendUvarint(v1, r.Uvarint("tag universe"))
	v1 = codec.AppendUvarint(v1, r.Uvarint("last seq"))
	if fp := r.Uvarint("ids fingerprint"); fp != 0 || r.Err() != nil {
		t.Fatalf("fingerprint %d, err %v", fp, r.Err())
	}
	v1 = append(v1, payload[r.Offset():]...)
	if _, _, err := Restore(cfg, specs, v1); err == nil || !strings.Contains(err.Error(), "version 1 not supported") {
		t.Fatalf("version-1 payload: err %v, want the version error", err)
	}
}

// TestSnapshotPayloadGolden pins the snapshot format byte for byte: one
// fixed corpus (ids, a tag universe and a WAL, so every header field is
// non-trivial) in three residency mixes — all hot; a third evicted and
// left cold while the rest ingest on; booted cold by Restore and then
// partly touched — each with its payload's length and FNV-64a. The
// pins were taken from the two-step export this encoder replaced, so a
// payload written before it restores here bit-identically.
func TestSnapshotPayloadGolden(t *testing.T) {
	const n = 48
	specs := stateSpecs(n, 13)
	wal, err := tagstore.Open(t.TempDir(), tagstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	cfg := withIDs(Config{Omega: 5, Shards: 4, UnderThreshold: 10, TagUniverse: 512}, n, 0)
	cfg.WAL = wal
	eng, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	ingest := func(e *Engine, posts int, skip func(i int) bool) {
		for k := 0; k < posts; k++ {
			i := rng.Intn(n)
			if skip(i) {
				continue
			}
			if err := e.Ingest(i, testPost(rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pin := func(name string, e *Engine, wantLen int, wantHash, wantSeq uint64) []byte {
		t.Helper()
		payload, seq := e.AppendSnapshot(nil)
		h := fnv.New64a()
		h.Write(payload)
		if len(payload) != wantLen || h.Sum64() != wantHash || seq != wantSeq {
			t.Fatalf("%s: %d bytes, fnv %#016x, last seq %d; want %d, %#016x, %d", name, len(payload), h.Sum64(), seq, wantLen, wantHash, wantSeq)
		}
		return payload
	}

	ingest(eng, 1500, func(int) bool { return false })
	hot := pin("all hot", eng, 9531, 0x54f8e0278e6f808c, 1500)
	for i := 0; i < n; i += 3 {
		if _, err := eng.Evict(i); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(payloadOf(eng), hot) {
		t.Fatal("evicting changed the payload")
	}
	ingest(eng, 400, func(i int) bool { return i%3 == 0 })
	parted := pin("part evicted", eng, 10569, 0x700987aeefdc1a2f, 1787)

	bootCfg := cfg
	bootCfg.WAL = nil
	booted, _, err := Restore(bootCfg, specs, parted)
	if err != nil {
		t.Fatal(err)
	}
	ingest(booted, 300, func(i int) bool { return i%4 != 1 })
	pin("booted, partly touched", booted, 10824, 0x1319bd9a69bf7d99, 0)
}
