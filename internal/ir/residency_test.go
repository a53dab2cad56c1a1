package ir

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

func compareScored(t *testing.T, ctx string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results vs %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: %+v vs %+v", ctx, i, got[i], want[i])
		}
	}
}

// evictRandom freezes a random subset of the index's resources.
func evictRandom(rng *rand.Rand, ix *OnlineIndex, n int) {
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			ids = append(ids, i)
		}
	}
	ix.Evict(ids)
}

// The residency equivalence property: a tiered index under an arbitrary
// interleaving of applies and evictions answers every query surface —
// pruned, exhaustive, cluster-scatter — bit-identically to a
// never-evicted twin over the same state.
func TestResidencyQueriesBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		n, dim int
		shards int
	}{
		{seed: 31, n: 40, dim: 25, shards: 1},
		{seed: 32, n: 40, dim: 25, shards: 8},
		{seed: 33, n: 31, dim: 12, shards: 7},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		model := make([]*sparse.Counts, tc.n)
		for i := range model {
			model[i] = sparse.NewCounts()
			if i%5 != 0 { // leave some zero-norm resources
				for k := 0; k < rng.Intn(6); k++ {
					model[i].Add(randomPost(rng, tc.dim))
				}
			}
		}
		tiered := NewOnlineIndex(cloneAll(model), tc.shards)
		oracle := NewOnlineIndex(cloneAll(model), tc.shards)

		check := func(step int) {
			t.Helper()
			for subject := 0; subject < tc.n; subject++ {
				for _, k := range []int{1, 3, tc.n} {
					got, _ := tiered.TopK(subject, k)
					want, _ := oracle.TopK(subject, k)
					compareScored(t, tctx(t, tc.seed, step, "topk", subject, k), got, want)
				}
			}
			for trial := 0; trial < 6; trial++ {
				q := randomPost(rng, tc.dim)
				k := 1 + rng.Intn(8)
				got, _ := tiered.Search(q, k)
				want, _ := oracle.Search(q, k)
				compareScored(t, tctx(t, tc.seed, step, "search", trial, k), got, want)
			}
			// Cluster scatter surface: the subject rfd fetched from the
			// tiered index must produce the oracle's weighted ranking.
			subject := rng.Intn(tc.n)
			entries, norm2, posts, _ := tiered.RFDEntries(subject)
			wantE, wantN, wantP, _ := oracle.RFDEntries(subject)
			if norm2 != wantN || posts != wantP || len(entries) != len(wantE) {
				t.Fatalf("seed %d step %d: RFDEntries(%d) = (%d entries, %v, %d) vs (%d, %v, %d)",
					tc.seed, step, subject, len(entries), norm2, posts, len(wantE), wantN, wantP)
			}
			for i := range wantE {
				if entries[i] != wantE[i] {
					t.Fatalf("seed %d step %d: RFDEntries(%d)[%d] = %+v vs %+v", tc.seed, step, subject, i, entries[i], wantE[i])
				}
			}
			got, _ := tiered.TopKWeighted(entries, norm2, subject, 10, nil)
			want, _ := oracle.TopKWeighted(wantE, wantN, subject, 10, nil)
			compareScored(t, tctx(t, tc.seed, step, "weighted", subject, 10), got, want)
			owned := ownedSet(tc.n, func(id int) bool { return id%2 == 0 })
			oq := randomPost(rng, tc.dim)
			gs, _ := tiered.SearchOwned(oq, 5, owned)
			ws, _ := oracle.SearchOwned(oq, 5, owned)
			compareScored(t, tctx(t, tc.seed, step, "searchowned", subject, 5), gs, ws)
		}

		for step := 0; step < 40; step++ {
			i := rng.Intn(tc.n)
			p := randomPost(rng, tc.dim)
			tiered.Apply(i, p)
			oracle.Apply(i, p)
			evictRandom(rng, tiered, tc.n)
			if step%8 == 7 {
				// Exhaustive oracles on the tiered index itself: pruned
				// and exhaustive must agree whatever the residency mix.
				subject := rng.Intn(tc.n)
				got, _ := tiered.TopK(subject, 10)
				want, _ := tiered.TopKExhaustive(subject, 10)
				compareScored(t, tctx(t, tc.seed, step, "self-oracle", subject, 10), got, want)
				check(step)
			}
		}
		st := tiered.Stats()
		if st.VecEvictions == 0 || st.VecRehydrations == 0 {
			t.Fatalf("seed %d: run exercised no transitions: %+v", tc.seed, st)
		}
		if ost := oracle.Stats(); ost.ColdVecs != 0 || ost.VecEvictions != 0 {
			t.Fatalf("seed %d: oracle was evicted: %+v", tc.seed, ost)
		}
	}
}

// tctx formats a comparison context string.
func tctx(t *testing.T, seed int64, step int, what string, a, b int) string {
	t.Helper()
	return what + " " + itoa(int(seed)) + "/" + itoa(step) + " (" + itoa(a) + ",k=" + itoa(b) + ")"
}

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

// The frozen cold-boot constructor must answer every query bit-identically
// to the hot constructor over the same state, promote what queries touch,
// and absorb applies by thawing first.
func TestFrozenConstructorMatchesHot(t *testing.T) {
	const n, dim, shards = 36, 20, 4
	rng := rand.New(rand.NewSource(41))
	model := make([]*sparse.Counts, n)
	for i := range model {
		model[i] = sparse.NewCounts()
		if i%7 != 0 {
			for k := 0; k < 1+rng.Intn(5); k++ {
				model[i].Add(randomPost(rng, dim))
			}
		}
	}
	hot := NewOnlineIndex(cloneAll(model), shards)
	cold := NewOnlineIndexFrozen(n, shards, 0, func(i int, fn func(t tags.Tag, c int64)) int {
		model[i].ForEach(fn)
		return model[i].Posts()
	})
	if st := cold.Stats(); st.ColdVecs != n || st.FrozenBytes == 0 {
		t.Fatalf("frozen constructor residency: %+v", st)
	}
	// Postings are live even though every vector is cold.
	for _, tg := range hot.Tags() {
		got, want := cold.PostingEntries(tg), hot.PostingEntries(tg)
		if len(got) != len(want) {
			t.Fatalf("tag %d: %d postings vs %d", tg, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tag %d posting %d: %+v vs %+v", tg, i, got[i], want[i])
			}
		}
	}
	for subject := 0; subject < n; subject++ {
		got, _ := cold.TopK(subject, 10)
		want, _ := hot.TopK(subject, 10)
		compareScored(t, "cold-boot topk", got, want)
	}
	for trial := 0; trial < 10; trial++ {
		q := randomPost(rng, dim)
		got, _ := cold.Search(q, 6)
		want, _ := hot.Search(q, 6)
		compareScored(t, "cold-boot search", got, want)
	}
	// Queried subjects were promoted; posts thaw the rest on demand.
	if st := cold.Stats(); st.VecRehydrations == 0 {
		t.Fatalf("queries promoted nothing: %+v", st)
	}
	for step := 0; step < 200; step++ {
		i := rng.Intn(n)
		p := randomPost(rng, dim)
		cold.Apply(i, p)
		hot.Apply(i, p)
	}
	for subject := 0; subject < n; subject++ {
		got, _ := cold.TopK(subject, 10)
		want, _ := hot.TopK(subject, 10)
		compareScored(t, "post-traffic topk", got, want)
	}
	if cold.Epoch() != hot.Epoch() {
		t.Fatalf("epochs diverged: %d vs %d", cold.Epoch(), hot.Epoch())
	}
}

// Apply to a cold resource must rehydrate it before the bump — the
// vector and its postings never fork.
func TestApplyToColdRehydrates(t *testing.T) {
	base := randomIndex(43, 20, 15)
	ix := NewOnlineIndex(cloneAll(base.RFDs()), 4)
	ix.Evict([]int{7})
	if ix.ResidentVec(7) {
		t.Fatal("resource 7 still resident after Evict")
	}
	p := tags.MustPost(3, 9)
	ix.Apply(7, p)
	if !ix.ResidentVec(7) {
		t.Fatal("Apply left resource 7 cold")
	}
	// The thawed-and-bumped vector matches a never-evicted twin.
	twin := NewOnlineIndex(cloneAll(base.RFDs()), 4)
	twin.Apply(7, p)
	for subject := 0; subject < 20; subject++ {
		got, _ := ix.TopK(subject, 10)
		want, _ := twin.TopK(subject, 10)
		compareScored(t, "apply-to-cold topk", got, want)
	}
	st := ix.Stats()
	if st.VecEvictions != 1 || st.VecRehydrations != 1 || st.ColdVecs != 0 || st.FrozenBytes != 0 {
		t.Fatalf("transition counters: %+v", st)
	}
}

// Concurrent applies, evictions and queries under -race: answers stay
// well-formed and the quiesced state matches the oracle.
func TestResidencyConcurrentQueries(t *testing.T) {
	const n, dim, shards = 48, 24, 8
	rng := rand.New(rand.NewSource(47))
	rfds := make([]*sparse.Counts, n)
	for i := range rfds {
		rfds[i] = sparse.NewCounts()
		rfds[i].Add(randomPost(rng, dim))
	}
	ix := NewOnlineIndex(cloneAll(rfds), shards)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				ix.Apply(wrng.Intn(n), randomPost(wrng, dim))
			}
		}(200 + int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		erng := rand.New(rand.NewSource(300))
		for !stop.Load() {
			evictRandom(erng, ix, n)
		}
	}()
	for q := 0; q < 300; q++ {
		res, _ := ix.TopK(q%n, 10)
		if len(res) != 10 {
			t.Fatalf("query %d: %d results", q, len(res))
		}
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score {
				t.Fatalf("query %d: scores not descending at %d", q, i)
			}
		}
		if sres, _ := ix.Search(tags.MustPost(tags.Tag(q%dim)), 5); len(sres) > 5 {
			t.Fatalf("search returned %d > k results", len(sres))
		}
	}
	stop.Store(true)
	wg.Wait()
	// Quiesce: thaw everything via queries and compare to the oracle.
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	ix.Evict(all)
	for i := 0; i < n; i++ {
		ix.Apply(i, tags.MustPost(tags.Tag(i%dim)))
	}
	inv := BuildInverted(onlineSnapshot(ix))
	for _, subject := range []int{0, n / 2, n - 1} {
		got, _ := ix.TopK(subject, 10)
		want := inv.TopK(subject, 10)
		compareScored(t, "post-quiesce topk", got, want)
	}
}
