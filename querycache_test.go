package incentivetag

import (
	"fmt"
	"testing"

	"incentivetag/internal/tags"
)

// Unit behaviour of the epoch-keyed result cache: hits only at the
// exact epoch, delete-on-contact for stale entries, bounded capacity,
// and defensive copies in both directions.
func TestResultCacheUnit(t *testing.T) {
	c := newResultCache(4)
	res := []Scored{{ID: 1, Score: 0.5}, {ID: 2, Score: 0.25}}

	if _, ok := c.get(7, 2, 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(7, 2, 0, res)
	got, ok := c.get(7, 2, 0)
	if !ok {
		t.Fatal("miss after put at same epoch")
	}
	assertScoredEqual(t, "cache hit", got, res)

	// Defensive copies: mutating either the stored input or a returned
	// slice must not leak into later hits.
	res[0].Score = 99
	got[1].ID = -1
	again, ok := c.get(7, 2, 0)
	if !ok || again[0].Score != 0.5 || again[1].ID != 2 {
		t.Fatalf("cached value leaked a caller mutation: %+v", again)
	}

	// Epoch advance: the entry must stop serving and be dropped on
	// contact rather than lingering until eviction.
	if _, ok := c.get(7, 2, 1); ok {
		t.Fatal("stale entry served after epoch advance")
	}
	if _, _, entries := c.stats(); entries != 0 {
		t.Fatalf("stale entry not deleted on contact: %d entries", entries)
	}

	// Capacity: the map never exceeds cap regardless of distinct keys.
	for i := 0; i < 20; i++ {
		c.put(i, 5, 3, res)
	}
	hits, misses, entries := c.stats()
	if entries > 4 {
		t.Fatalf("cache grew past capacity: %d entries", entries)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("counters not advancing: hits=%d misses=%d", hits, misses)
	}
	// Same (subject, k) at a newer epoch replaces in place, no eviction.
	c.put(3, 5, 4, res)
	if _, _, after := c.stats(); after != entries {
		t.Fatalf("same-key refresh changed entry count: %d -> %d", entries, after)
	}
}

// Service-level cache semantics: repeat queries on a quiet index are
// served from the cache bit-identically, any ingest expires every
// entry, and the counters surface through QueryStats.
func TestServiceResultCache(t *testing.T) {
	ds := testDS(t)
	svc, err := NewService(ds, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	first, epoch1, err := svc.TopK(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	st := svc.QueryStats()
	if st.CacheMisses == 0 || st.CacheEntries == 0 {
		t.Fatalf("first query did not register a cache miss: %+v", st)
	}
	queriesBefore := st.TopKQueries

	second, epoch2, err := svc.TopK(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	assertScoredEqual(t, "cache hit", second, first)
	if epoch2 != epoch1 {
		t.Fatalf("cached answer changed epoch: %d vs %d", epoch2, epoch1)
	}
	st = svc.QueryStats()
	if st.CacheHits == 0 {
		t.Fatalf("repeat query did not hit: %+v", st)
	}
	if st.TopKQueries != queriesBefore {
		t.Fatalf("cache hit still executed the index query: %d -> %d", queriesBefore, st.TopKQueries)
	}

	// Mutating a served result must not poison the cache.
	second[0] = Scored{ID: -1, Score: 42}
	third, _, err := svc.TopK(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	assertScoredEqual(t, "post-mutation hit", third, first)

	// A different k is a distinct entry, not a truncation of the cached
	// k=10 answer.
	k3, _, err := svc.TopK(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertScoredEqual(t, "distinct k", k3, first[:3])

	// Ingest bumps the epoch: every cached entry expires, and the next
	// answer reflects the new state (checked against a cold rebuild).
	if err := svc.Ingest(2, tags.MustPost(1, 2)); err != nil {
		t.Fatal(err)
	}
	hitsBefore := svc.QueryStats().CacheHits
	fresh, epoch3, err := svc.TopK(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if epoch3 == epoch1 {
		t.Fatal("epoch did not advance across ingest")
	}
	if svc.QueryStats().CacheHits != hitsBefore {
		t.Fatal("query after ingest was served from the stale cache")
	}
	oracle := NewSimilarityIndex(svc.SnapshotRFDs())
	assertScoredEqual(t, "post-ingest", fresh, oracle.TopK(1, 10))

	// And the refilled entry serves again until the next post.
	refill, epoch4, err := svc.TopK(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	assertScoredEqual(t, "refill hit", refill, fresh)
	if epoch4 != epoch3 {
		t.Fatalf("refill hit changed epoch: %d vs %d", epoch4, epoch3)
	}
}

// Cached serving must hold under concurrency: hammer a handful of hot
// subjects from several goroutines with no ingest and every answer must
// be bit-identical to the first; then interleave ingest and re-verify
// against the oracle.
func TestServiceResultCacheConcurrent(t *testing.T) {
	ds := testDS(t)
	svc, err := NewService(ds, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	want := map[int][]Scored{}
	for s := 0; s < 4; s++ {
		res, _, err := svc.TopK(s, 10)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = res
	}
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for q := 0; q < 200; q++ {
				s := (w + q) % 4
				res, _, err := svc.TopK(s, 10)
				if err != nil {
					errs <- err
					return
				}
				for i := range want[s] {
					if res[i] != want[s][i] {
						errs <- fmt.Errorf("worker %d query %d subject %d rank %d: %+v vs %+v", w, q, s, i, res[i], want[s][i])
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := svc.QueryStats()
	if st.CacheHits < 700 {
		t.Fatalf("hot-subject workload barely hit the cache: %+v", st)
	}
	if err := svc.Ingest(0, tags.MustPost(3)); err != nil {
		t.Fatal(err)
	}
	assertQueryOracle(t, svc, []int{0, 1, 2, 3}, 10)
}
