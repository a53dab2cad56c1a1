package incentivetag

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"incentivetag/internal/ir"
	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// assertScoredEqual demands bit-identical rankings (same ids, same
// float bits, same length).
func assertScoredEqual(t *testing.T, ctx string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s rank %d: (%d, %v), want (%d, %v)",
				ctx, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// assertQueryOracle checks Service.TopK against the offline index built
// over the service's own rfd snapshot.
func assertQueryOracle(t *testing.T, svc *Service, subjects []int, k int) {
	t.Helper()
	oracle := ir.BuildInverted(svc.SnapshotRFDs())
	for _, subject := range subjects {
		got, _, err := svc.TopK(subject, k)
		if err != nil {
			t.Fatal(err)
		}
		assertScoredEqual(t, "topk", got, oracle.TopK(subject, k))
	}
}

// The online index behind Service.TopK/Search must stay bit-identical
// to a per-request rebuild after an arbitrary interleaving of organic
// ingest (single, batched, cross-resource), lease fulfillment and lease
// expiry — the full set of paths that mutate rfd state.
func TestServiceQueryEquivalence(t *testing.T) {
	ds := testDS(t)
	svc, err := NewService(ds, ServiceOptions{Strategy: "FP-MU"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rng := rand.New(rand.NewSource(7))
	post := func() Post {
		m := 1 + rng.Intn(3)
		ts := make([]Tag, m)
		for j := range ts {
			ts[j] = Tag(rng.Intn(ds.Vocab.Size()))
		}
		p, err := NewPost(ts...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	subjects := []int{0, 1, ds.N() / 2, ds.N() - 1}

	for step := 0; step < 120; step++ {
		switch rng.Intn(5) {
		case 0: // single organic post
			if err := svc.Ingest(rng.Intn(ds.N()), post()); err != nil {
				t.Fatal(err)
			}
		case 1: // single-resource batch
			i := rng.Intn(ds.N())
			if err := svc.IngestMany([]PostEvent{{Resource: i, Post: post()}, {Resource: i, Post: post()}}); err != nil {
				t.Fatal(err)
			}
		case 2: // cross-resource batch
			evs := make([]PostEvent, 3+rng.Intn(5))
			for i := range evs {
				evs[i] = PostEvent{Resource: rng.Intn(ds.N()), Post: post()}
			}
			if err := svc.IngestMany(evs); err != nil {
				t.Fatal(err)
			}
		case 3: // lease + fulfill
			if _, lease, ok := svc.Lease(1 << 20); ok {
				if err := svc.Fulfill(lease, post()); err != nil {
					t.Fatal(err)
				}
			}
		case 4: // lease + expire (no rfd change, but exercises the path)
			if _, lease, ok := svc.Lease(1 << 20); ok {
				if err := svc.Expire(lease); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step%30 == 29 {
			assertQueryOracle(t, svc, subjects, 10)
		}
	}
	assertQueryOracle(t, svc, subjects, 25)

	// Search equivalence: the query's unit-count vector cosine against
	// the exhaustive per-resource computation.
	rfds := svc.SnapshotRFDs()
	for trial := 0; trial < 10; trial++ {
		query := post()
		got, _, err := svc.Search(query, 8)
		if err != nil {
			t.Fatal(err)
		}
		// Exhaustive: score every resource with tag overlap.
		type cand struct {
			id    int
			score float64
		}
		var cands []cand
		for i, c := range rfds {
			overlap := false
			for _, tg := range query {
				if c.Get(tg) > 0 {
					overlap = true
					break
				}
			}
			if overlap {
				qc := sparse.NewCounts()
				qc.Add(query)
				cands = append(cands, cand{id: i, score: qc.Cosine(c)})
			}
		}
		for a := 0; a < len(cands); a++ {
			for b := a + 1; b < len(cands); b++ {
				if cands[b].score > cands[a].score ||
					(cands[b].score == cands[a].score && cands[b].id < cands[a].id) {
					cands[a], cands[b] = cands[b], cands[a]
				}
			}
		}
		if len(cands) > 8 {
			cands = cands[:8]
		}
		if len(got) != len(cands) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(cands))
		}
		for i := range cands {
			if got[i].ID != cands[i].id || got[i].Score != cands[i].score {
				t.Fatalf("trial %d rank %d: (%d,%v), want (%d,%v)",
					trial, i, got[i].ID, got[i].Score, cands[i].id, cands[i].score)
			}
		}
	}

	st := svc.QueryStats()
	if st.TopKQueries == 0 || st.SearchQueries == 0 || st.Epoch == 0 || st.Tags == 0 {
		t.Fatalf("QueryStats = %+v", st)
	}

	// Validation errors.
	if _, _, err := svc.TopK(-1, 5); err == nil {
		t.Error("negative subject accepted")
	}
	if _, _, err := svc.TopK(ds.N(), 5); err == nil {
		t.Error("out-of-range subject accepted")
	}
	if _, _, err := svc.TopK(0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := svc.Search(nil, 5); err == nil {
		t.Error("empty query accepted")
	}
}

// A post-crash service must answer queries bit-identically to the one
// that wrote the durable state: the online index is reseeded from the
// recovered engine (snapshot + WAL tail), never from scratch.
func TestServiceQueryRecoveryIdentical(t *testing.T) {
	ds := testDS(t)
	dir := t.TempDir()
	svc, err := NewService(ds, ServiceOptions{WALDir: dir, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range liveEvents(ds, 400) {
		if err := svc.Ingest(ev.Resource, ev.Post); err != nil {
			t.Fatal(err)
		}
	}
	subjects := []int{0, 3, ds.N() - 1}
	want := map[int][]Scored{}
	for _, s := range subjects {
		res, _, err := svc.TopK(s, 10)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = res
	}
	wantSearch, _, err := svc.Search(tags.MustPost(1, 2, 3), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewService(ds, ServiceOptions{WALDir: dir, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.RecoveryStats().Recovered {
		t.Fatal("service did not recover durable state")
	}
	for _, s := range subjects {
		got, _, err := re.TopK(s, 10)
		if err != nil {
			t.Fatal(err)
		}
		assertScoredEqual(t, "recovered topk", got, want[s])
	}
	gotSearch, _, err := re.Search(tags.MustPost(1, 2, 3), 10)
	if err != nil {
		t.Fatal(err)
	}
	assertScoredEqual(t, "recovered search", gotSearch, wantSearch)
	// And the recovered index must still track live traffic.
	assertQueryOracle(t, re, subjects, 10)
	if err := re.Ingest(0, tags.MustPost(4)); err != nil {
		t.Fatal(err)
	}
	assertQueryOracle(t, re, subjects, 10)
}

// Concurrent readers during batched ingest: the -race proof that the
// epoch-versioned read view and the subscriber-fed write path are
// sound under arbitrary client concurrency.
func TestServiceConcurrentQueriesDuringIngest(t *testing.T) {
	ds := testDS(t)
	svc, err := NewService(ds, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				evs := make([]PostEvent, 8)
				for i := range evs {
					p, err := NewPost(Tag(rng.Intn(ds.Vocab.Size())))
					if err != nil {
						t.Error(err)
						return
					}
					evs[i] = PostEvent{Resource: rng.Intn(ds.N()), Post: p}
				}
				if err := svc.IngestMany(evs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var lastEpoch uint64
	for q := 0; q < 500; q++ {
		res, epoch, err := svc.TopK(q%ds.N(), 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 10 {
			t.Fatalf("query %d: %d results", q, len(res))
		}
		if epoch < lastEpoch {
			t.Fatalf("epoch regressed: %d after %d", epoch, lastEpoch)
		}
		lastEpoch = epoch
		if _, _, err := svc.Search(tags.MustPost(Tag(q%ds.Vocab.Size())), 5); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	// Quiesced: back to exact oracle equality.
	assertQueryOracle(t, svc, []int{0, 1, ds.N() - 1}, 10)
}
