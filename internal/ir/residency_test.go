package ir

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"incentivetag/internal/engine"
	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// tieredVecs is the test-only Vectors with a residency tier: the count
// vectors its index reads, any of which can be marked cold. A cold
// resource answers nil from ViewCounts and streams its support in
// ascending tag order, as an engine record does. Every write — a post or
// a cold mark — is made under the index's view lock, which is the
// engine's protocol.
type tieredVecs struct {
	ix   *OnlineIndex
	vecs []*sparse.Counts
	cold []bool
	// evictions and rehydrations count hot→cold and cold→hot marks;
	// coldReads counts the index's reads of a cold resource.
	evictions, rehydrations, coldReads atomic.Uint64
}

// newTieredVecs builds an index over rfds (which it takes ownership of),
// every resource cold when cold is set.
func newTieredVecs(rfds []*sparse.Counts, shards int, cold bool) *tieredVecs {
	v := &tieredVecs{vecs: rfds, cold: make([]bool, len(rfds))}
	for i := range v.cold {
		v.cold[i] = cold
	}
	v.ix = NewOnlineIndexOver(v, len(rfds), shards)
	return v
}

func (v *tieredVecs) ViewCounts(i int) *sparse.Counts {
	if v.cold[i] {
		return nil
	}
	return v.vecs[i]
}

func (v *tieredVecs) ViewEntries(i int, fn func(t tags.Tag, n int64)) int {
	c := v.vecs[i]
	if !v.cold[i] {
		c.ForEach(fn)
		return c.Posts()
	}
	v.coldReads.Add(1)
	for _, t := range c.Support() {
		fn(t, c.Get(t))
	}
	return c.Posts()
}

// evict marks resource i cold.
func (v *tieredVecs) evict(i int) {
	v.ix.Lock(i)
	if !v.cold[i] {
		v.cold[i] = true
		v.evictions.Add(1)
	}
	v.ix.Unlock(i)
}

// apply ingests one post as the engine does: a cold resource is made
// hot under one view lock, then the post lands and is published under
// another.
func (v *tieredVecs) apply(i int, p tags.Post) {
	if i < 0 || i >= len(v.vecs) || len(p) == 0 {
		return
	}
	v.ix.Lock(i)
	if v.cold[i] {
		v.cold[i] = false
		v.rehydrations.Add(1)
	}
	v.ix.Unlock(i)
	v.ix.Lock(i)
	v.vecs[i].Add(p)
	v.ix.PostApplied(i, p, v.vecs[i].Norm2())
	v.ix.Unlock(i)
}

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

// evictRandom marks a random subset of the n resources cold, the same
// subset through every evict.
func evictRandom(rng *rand.Rand, n int, evicts ...func(int)) {
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			for _, evict := range evicts {
				evict(i)
			}
		}
	}
}

// The residency equivalence property: an index over tiered vectors
// under an arbitrary interleaving of applies and evictions answers every
// query surface — TopK, Search, cluster-scatter — bit-identically to a
// never-evicted twin over the same state, and to BuildInverted over it.
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
		tv := newTieredVecs(cloneAll(model), tc.shards, false)
		tiered := tv.ix
		oracle := NewOnlineIndex(cloneAll(model), tc.shards)
		owned := ownedSet(tc.n, func(id int) bool { return id%2 == 0 })
		ownedM := newMember(model, tc.shards, owned)

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
			oq := randomPost(rng, tc.dim)
			compareScored(t, tctx(t, tc.seed, step, "owned search", subject, 5), ownedM.search(oq, 5), searchOwnedExhaustive(oracle, oq, 5, owned))
		}

		for step := 0; step < 40; step++ {
			i := rng.Intn(tc.n)
			p := randomPost(rng, tc.dim)
			tv.apply(i, p)
			ownedM.apply(i, p)
			oracle.Apply(i, p)
			evictRandom(rng, tc.n, tv.evict, ownedM.evict)
			if step%8 == 7 {
				// The exhaustive oracle over the tiered index's own counts:
				// online and exhaustive must agree whatever the residency mix.
				subject := rng.Intn(tc.n)
				got, _ := tiered.TopK(subject, 10)
				want := BuildInverted(cloneAll(tv.vecs)).TopK(subject, 10)
				compareScored(t, tctx(t, tc.seed, step, "self-oracle", subject, 10), got, want)
				check(step)
			}
		}
		if tv.evictions.Load() == 0 || tv.rehydrations.Load() == 0 || tv.coldReads.Load() == 0 {
			t.Fatalf("seed %d: run exercised %d evictions, %d rehydrations, %d cold reads",
				tc.seed, tv.evictions.Load(), tv.rehydrations.Load(), tv.coldReads.Load())
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

// Seeding over cold resources (support streamed off records, ascending)
// must answer every query bit-identically to seeding over hot ones,
// leave every resource cold however it is queried, and absorb applies
// exactly as the hot index does.
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
	tv := newTieredVecs(cloneAll(model), shards, true)
	cold := tv.ix
	if got := tv.coldReads.Load(); got != n {
		t.Fatalf("cold seeding read %d cold resources, want %d", got, n)
	}
	// Postings are live even though every resource is cold.
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
	// Queries read cold subjects off their records and leave them cold.
	if tv.coldReads.Load() == n || tv.rehydrations.Load() != 0 {
		t.Fatalf("queries read no cold subject or rehydrated one: %d cold reads, %d rehydrations", tv.coldReads.Load(), tv.rehydrations.Load())
	}
	for i, c := range tv.cold {
		if !c {
			t.Fatalf("a query made resource %d hot", i)
		}
	}
	for step := 0; step < 200; step++ {
		i := rng.Intn(n)
		p := randomPost(rng, dim)
		tv.apply(i, p)
		hot.Apply(i, p)
	}
	for subject := 0; subject < n; subject++ {
		got, _ := cold.TopK(subject, 10)
		want, _ := hot.TopK(subject, 10)
		compareScored(t, "post-traffic topk", got, want)
	}
	if cold.Stats().Epoch != hot.Stats().Epoch {
		t.Fatalf("epochs diverged: %d vs %d", cold.Stats().Epoch, hot.Stats().Epoch)
	}
}

// engineIndex builds an engine over n resources primed with random posts
// and attaches an index over it, as a serving node does.
func engineIndex(t *testing.T, seed int64, n, dim, shards int) (*engine.Engine, *OnlineIndex) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	specs := make([]engine.ResourceSpec, n)
	for i := range specs {
		for k := 0; k < 5+rng.Intn(20); k++ {
			specs[i].Initial = append(specs[i].Initial, randomPost(rng, dim))
		}
	}
	eng, err := engine.New(engine.Config{Omega: 3, Shards: shards, UnderThreshold: -1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewOnlineIndexOver(eng, eng.N(), eng.Shards())
	eng.Subscribe(ix)
	return eng, ix
}

// A post to a cold engine resource makes it resident, and the index
// attached to that engine then answers bit-identically to one attached
// to a never-evicted twin — and to an index rebuilt from the engine's
// state.
func TestApplyToColdRehydrates(t *testing.T) {
	const n, dim = 20, 15
	eng, ix := engineIndex(t, 43, n, dim, 4)
	twinEng, twin := engineIndex(t, 43, n, dim, 4)
	if _, err := eng.Evict(7); err != nil {
		t.Fatal(err)
	}
	if eng.Resident(7) {
		t.Fatal("resource 7 still resident after Evict")
	}
	p := tags.MustPost(3, 9)
	if err := eng.Ingest(7, p); err != nil {
		t.Fatal(err)
	}
	if !eng.Resident(7) {
		t.Fatal("ingest left resource 7 cold")
	}
	if err := twinEng.Ingest(7, p); err != nil {
		t.Fatal(err)
	}
	inv := BuildInverted(eng.SnapshotRFDs())
	for subject := 0; subject < n; subject++ {
		got, _ := ix.TopK(subject, 10)
		want, _ := twin.TopK(subject, 10)
		compareScored(t, "apply-to-cold topk", got, want)
		compareScored(t, "apply-to-cold rebuilt", got, inv.TopK(subject, 10))
	}
	if ix.Stats().Epoch != 1 || twin.Stats().Epoch != 1 {
		t.Fatalf("epochs %d and %d after one post", ix.Stats().Epoch, twin.Stats().Epoch)
	}
}

// Concurrent applies, evictions and queries under -race: answers stay
// well-formed and the quiesced state matches the oracle, cold or hot.
func TestResidencyConcurrentQueries(t *testing.T) {
	const n, dim, shards = 48, 24, 8
	rng := rand.New(rand.NewSource(47))
	rfds := make([]*sparse.Counts, n)
	for i := range rfds {
		rfds[i] = sparse.NewCounts()
		rfds[i].Add(randomPost(rng, dim))
	}
	tv := newTieredVecs(cloneAll(rfds), shards, false)
	ix := tv.ix
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				tv.apply(wrng.Intn(n), randomPost(wrng, dim))
			}
		}(200 + int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		erng := rand.New(rand.NewSource(300))
		for !stop.Load() {
			evictRandom(erng, n, tv.evict)
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
	// Quiesce: compare to the oracle with every resource cold, then again
	// once a post has made each one hot.
	for i := 0; i < n; i++ {
		tv.evict(i)
	}
	for pass := 0; pass < 2; pass++ {
		inv := BuildInverted(cloneAll(tv.vecs))
		for _, subject := range []int{0, n / 2, n - 1} {
			got, _ := ix.TopK(subject, 10)
			compareScored(t, "post-quiesce topk", got, inv.TopK(subject, 10))
		}
		for i := 0; i < n; i++ {
			tv.apply(i, tags.MustPost(tags.Tag(i%dim)))
		}
	}
}
