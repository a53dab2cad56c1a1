package engine

import (
	"bytes"
	"math"
	"math/rand"
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
			if err := restored.EnsureResident(i); err != nil {
				t.Fatal(err)
			}
		}
		if st := restored.Residency(); st.Cold != 0 {
			t.Fatalf("EnsureResident left %d resources cold", st.Cold)
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
	}
	for _, tc := range cases {
		if _, _, err := Restore(tc.cfg, tc.sp, tc.payload); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
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
