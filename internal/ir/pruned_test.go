package ir

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// zipfPost draws a 1–4 tag post whose tag ids follow a Zipf law over
// dim tags: a few tags dominate every posting list while the tail stays
// sparse — the shape real tagging corpora have.
func zipfPost(rng *rand.Rand, z *rand.Zipf, dim int) tags.Post {
	m := 1 + rng.Intn(4)
	ts := make([]tags.Tag, 0, m)
	for j := 0; j < m; j++ {
		ts = append(ts, tags.Tag(z.Uint64()))
	}
	return tags.MustPost(ts...)
}

// zipfModel builds an n-resource corpus of Zipf-skewed posts. Every
// fifth resource starts empty (zero-norm path) and every seventh holds
// exactly one single-tag post (minimal-support path).
func zipfModel(seed int64, n, dim, posts int) ([]*sparse.Counts, *rand.Rand, *rand.Zipf) {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.3, 1.0, uint64(dim-1))
	model := make([]*sparse.Counts, n)
	for i := range model {
		model[i] = sparse.NewCounts()
		switch {
		case i%5 == 0: // zero-norm resource
		case i%7 == 0: // single-tag resource
			model[i].Add(tags.MustPost(tags.Tag(z.Uint64())))
		default:
			for p := 0; p < 1+rng.Intn(posts); p++ {
				model[i].Add(zipfPost(rng, z, dim))
			}
		}
	}
	return model, rng, z
}

// assertIdentical requires two rankings to match bit-for-bit: same
// length, same ids, same float64 score bits, same order.
func assertIdentical(t *testing.T, ctx string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results vs %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s rank %d: got (%d, %x) want (%d, %x)",
				ctx, i, got[i].ID, math.Float64bits(got[i].Score), want[i].ID, math.Float64bits(want[i].Score))
		}
	}
}

// The central serving property: on a Zipf-skewed corpus grown by
// incremental applies, the online index must stay bit-identical to a
// cold BuildInverted rebuild — the exhaustive oracle — for every subject
// at every k, including k past the corpus size, and for tag-set search.
func TestPrunedZipfBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		seed           int64
		n, dim, shards int
	}{
		{seed: 41, n: 90, dim: 30, shards: 8},
		{seed: 42, n: 61, dim: 200, shards: 7}, // n not divisible by shards
		{seed: 43, n: 40, dim: 12, shards: 1},  // single shard: no merge step
	} {
		model, rng, z := zipfModel(tc.seed, tc.n, tc.dim, 6)
		online := NewOnlineIndex(cloneAll(model), tc.shards)

		check := func(step int) {
			t.Helper()
			oracle := BuildInverted(model)
			for subject := 0; subject < tc.n; subject++ {
				for _, k := range []int{1, 5, 10, tc.n, 2 * tc.n} {
					got, _ := online.TopK(subject, k)
					assertIdentical(t, tSprintf("seed %d step %d subject %d k=%d online-vs-rebuild", tc.seed, step, subject, k), got, oracle.TopK(subject, k))
				}
			}
			for trial := 0; trial < 10; trial++ {
				q := zipfPost(rng, z, tc.dim)
				k := 1 + rng.Intn(12)
				got, _ := online.Search(q, k)
				assertIdentical(t, tSprintf("seed %d step %d search k=%d", tc.seed, step, k), got, oracle.Search(q, k))
			}
		}

		check(-1)
		for step := 0; step < 40; step++ {
			i := rng.Intn(tc.n)
			p := zipfPost(rng, z, tc.dim)
			model[i].Add(p)
			online.Apply(i, p)
			if step%20 == 19 {
				check(step)
			}
		}
		check(40)
	}
}

func tSprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// The ranking must stay exact when scores tie exactly at the heap
// threshold: a tie group of bit-identical vectors larger than k means
// the kth score equals the (k+1)th, and the rejectSlack margin on the
// fast reject must keep those boundary candidates alive for the
// deterministic id tiebreak. Identical resources are spread across all
// shards so the tie crosses the per-shard merge too.
func TestPrunedTiesAtThreshold(t *testing.T) {
	const n, shards, k = 40, 8, 5
	tie := tags.MustPost(3, 7, 11)
	model := make([]*sparse.Counts, n)
	for i := range model {
		model[i] = sparse.NewCounts()
		if i%2 == 0 { // 20 bit-identical resources — tie group far larger than k
			model[i].Add(tie)
		} else { // distinct filler sharing one tag, plus noise
			model[i].Add(tags.MustPost(3, tags.Tag(20+i)))
		}
	}
	online := NewOnlineIndex(cloneAll(model), shards)
	oracle := BuildInverted(model)
	for subject := 0; subject < n; subject++ {
		for _, kk := range []int{1, k, 19, 21, n} {
			got, _ := online.TopK(subject, kk)
			assertIdentical(t, tSprintf("ties subject %d k=%d online-vs-rebuild", subject, kk), got, oracle.TopK(subject, kk))
		}
	}
	// The even subjects see 19 other perfect-similarity resources; with
	// k=5 the cut falls inside the tie group and must resolve by
	// ascending id.
	got, _ := online.TopK(0, k)
	for i := 0; i < k; i++ {
		if got[i].Score != 1 || got[i].ID != 2*(i+1) {
			t.Fatalf("tie cut rank %d: got (%d, %v), want (%d, 1)", i, got[i].ID, got[i].Score, 2*(i+1))
		}
	}
}

// Degenerate shapes the ranking must not mangle: single-tag subjects
// (one-tag queries), zero-norm subjects (nothing to accumulate), and k
// at or past the corpus size (the heap never fills, so the fast reject
// never engages and every resource — including zero-norm padding — must
// appear).
func TestPrunedDegenerateShapes(t *testing.T) {
	const n, shards = 23, 4
	model := make([]*sparse.Counts, n)
	for i := range model {
		model[i] = sparse.NewCounts()
		switch {
		case i%4 == 0: // zero-norm
		case i%4 == 1:
			model[i].Add(tags.MustPost(5)) // single shared tag
		default:
			model[i].Add(tags.MustPost(5, tags.Tag(30+i%3)))
		}
	}
	online := NewOnlineIndex(cloneAll(model), shards)
	oracle := BuildInverted(model)
	for subject := 0; subject < n; subject++ {
		for _, k := range []int{1, n - 1, n, n + 1, 3 * n} {
			got, _ := online.TopK(subject, k)
			assertIdentical(t, tSprintf("degenerate subject %d k=%d online-vs-rebuild", subject, k), got, oracle.TopK(subject, k))
			if k >= n && len(got) != n-1 {
				t.Fatalf("subject %d k=%d: %d results, want all %d others", subject, k, len(got), n-1)
			}
		}
	}
}

// Regression for the duplicate-tag Search mis-scoring: a raw client
// query with repeated, unsorted tags must score exactly like its
// deduplicated form (the index normalizes internally — previously
// qNorm2 counted duplicates, deflating every cosine), and no cosine may
// exceed 1.
func TestSearchDuplicateTagsRegression(t *testing.T) {
	base := randomIndex(17, 60, 15)
	online := NewOnlineIndex(cloneAll(base.RFDs()), 4)
	raw := tags.Post{9, 2, 9, 5, 2, 9} // bypasses NewPost: duplicates, unsorted
	clean := tags.MustPost(2, 5, 9)
	for _, k := range []int{1, 7, 60} {
		got, _ := online.Search(raw, k)
		want := BuildInverted(base.RFDs()).Search(clean, k)
		assertIdentical(t, tSprintf("dup-query k=%d", k), got, want)
		assertIdentical(t, tSprintf("offline dup-query k=%d", k), base.Search(raw, k), want)
		for i, s := range got {
			if s.Score > 1 {
				t.Fatalf("dup-query k=%d rank %d: cosine %v > 1", k, i, s.Score)
			}
		}
	}
	// A resource holding exactly the clean tag set must score 1.0.
	probe := cloneAll(base.RFDs())
	probe = append(probe, sparse.NewCounts())
	probe[len(probe)-1].Add(clean)
	online2 := NewOnlineIndex(probe, 4)
	got, _ := online2.Search(raw, 1)
	if len(got) != 1 || got[0].Score != 1 || got[0].ID != len(probe)-1 {
		t.Fatalf("perfect match: got %+v, want (id=%d, score=1)", got, len(probe)-1)
	}
}

// The O(1) Stats census must agree with a full recount of the posting
// structure, both at seed time and after incremental applies.
func TestStatsCensusMatchesRecount(t *testing.T) {
	model, rng, z := zipfModel(77, 150, 20, 5)
	online := NewOnlineIndex(cloneAll(model), 8)
	recount := func(ctx string) {
		t.Helper()
		st := online.Stats()
		tagsN, postings, maxP := 0, 0, 0
		for _, tg := range online.Tags() {
			n := len(online.PostingEntries(tg))
			tagsN++
			postings += n
			if n > maxP {
				maxP = n
			}
		}
		if st.Tags != tagsN || st.Postings != postings || st.MaxPostings != maxP {
			t.Fatalf("%s: Stats{Tags:%d Postings:%d MaxPostings:%d} vs recount {%d %d %d}",
				ctx, st.Tags, st.Postings, st.MaxPostings, tagsN, postings, maxP)
		}
	}
	recount("seed")
	for step := 0; step < 300; step++ {
		online.Apply(rng.Intn(150), zipfPost(rng, z, 20))
		if step%100 == 99 {
			recount(tSprintf("step %d", step))
		}
	}
	recount("final")
}

// Queries racing concurrent ingest, under -race: writers bump and
// append to long Zipf posting lists on every shard while readers rank. Results must stay well-formed throughout, and
// after quiescing the index must again be bit-identical to a cold
// rebuild of its own state.
func TestPrunedConcurrentIngestRace(t *testing.T) {
	const n, dim, shards = 256, 30, 8
	model, _, _ := zipfModel(67, n, dim, 6)
	online := NewOnlineIndex(cloneAll(model), shards)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(500 + int64(w)))
			wz := rand.NewZipf(wrng, 1.3, 1.0, dim-1)
			for !stop.Load() {
				online.Apply(wrng.Intn(n), zipfPost(wrng, wz, dim))
			}
		}(w)
	}
	for q := 0; q < 600; q++ {
		res, _ := online.TopK(q%n, 10)
		if len(res) != 10 {
			t.Fatalf("query %d: %d results", q, len(res))
		}
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score ||
				(res[i].Score == res[i-1].Score && res[i].ID < res[i-1].ID) {
				t.Fatalf("query %d: ranking order broken at %d: %+v %+v", q, i, res[i-1], res[i])
			}
		}
		if q%8 == 0 {
			sres, _ := online.Search(tags.MustPost(tags.Tag(q%dim), tags.Tag((q+1)%dim)), 5)
			if len(sres) > 5 {
				t.Fatalf("search %d: %d > k results", q, len(sres))
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	oracle := BuildInverted(onlineSnapshot(online))
	for subject := 0; subject < n; subject += 5 {
		got, _ := online.TopK(subject, 10)
		assertIdentical(t, tSprintf("post-quiesce subject %d online-vs-rebuild", subject), got, oracle.TopK(subject, 10))
	}
}
