package engine

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"incentivetag/internal/quality"
	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
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
		payload := marshaled(t, live)
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
		if !bytes.Equal(marshaled(t, restored), payload) {
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
	payload := marshaled(t, eng)
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
	skewed := eng.ExportState()
	skewed.Aggregates[0].Posts++
	skewedPayload, err := skewed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The version is the payload's first varint.
	future := append([]byte{stateVersion + 1}, payload[1:]...)
	// A part of a larger corpus: the same state exported over ids 0, 2,
	// 4, …, restored over 1, 3, 5, ….
	partCfg := withIDs(cfg, 16, 0)
	part, err := New(partCfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	idsPayload := marshaled(t, part)
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
// failed its first write, and every ExportState panicked on it.
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
	st := eng.ExportState()
	payload, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(cfg, specs, payload); err != nil {
		t.Fatalf("intact payload rejected: %v", err)
	}
	rs := st.Resources[0]
	if rs.Head != 0 || rs.Fill != 4 || len(rs.Tags) < 2 {
		t.Fatalf("24 posts froze at head %d fill %d over %d tags, want 0, 4 and two or more", rs.Head, rs.Fill, len(rs.Tags))
	}
	rec, err := appendResourceState(nil, 0, &rs)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(payload, rec)
	if at < 0 {
		t.Fatal("resource record not found in its payload")
	}
	encode := func(edit func(bad *ResourceState)) []byte {
		bad := rs
		bad.Counts = slices.Clone(rs.Counts)
		edit(&bad)
		b, err := appendResourceState(nil, 0, &bad)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	gaps := func(gs ...uint64) []byte {
		counts := make([]uint64, len(gs))
		for k := range counts {
			counts[k] = 1
		}
		return rawRecord(24, gs, counts, rs.Ring, 0, 4)
	}
	for name, bad := range map[string][]byte{
		"head moved by one":    encode(func(b *ResourceState) { b.Head = 1 }),
		"fill short of full":   encode(func(b *ResourceState) { b.Fill = 3 }),
		"count above posts":    encode(func(b *ResourceState) { b.Counts[0] = 25 }),
		"count 0":              encode(func(b *ResourceState) { b.Counts[1] = 0 }),
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

func TestExportStateConcurrentWithIngest(t *testing.T) {
	specs := stateSpecs(64, 21)
	eng, err := New(Config{Omega: 5, Shards: 8, UnderThreshold: 10}, specs)
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
		st := eng.ExportState()
		// A consistent cut: aggregate posts must equal the sum of
		// per-resource ingested counts at the cut.
		posts, implied := 0, 0
		for _, agg := range st.Aggregates {
			posts += agg.Posts
		}
		for i := range st.Resources {
			implied += st.Resources[i].Posts - len(specs[i].Initial)
		}
		if posts != implied {
			t.Fatalf("inconsistent cut: aggregates say %d posts, resources imply %d", posts, implied)
		}
	}
	close(stop)
	wg.Wait()
}
