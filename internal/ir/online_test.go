package ir

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"incentivetag/internal/engine"
	"incentivetag/internal/sim"
	"incentivetag/internal/sparse"
	"incentivetag/internal/synth"
	"incentivetag/internal/tags"
)

// randomPost draws a 1–3 tag post over the given tag-id dimension.
func randomPost(rng *rand.Rand, dim int) tags.Post {
	m := 1 + rng.Intn(3)
	ts := make([]tags.Tag, m)
	for j := range ts {
		ts[j] = tags.Tag(rng.Intn(dim))
	}
	p, err := tags.NewPost(ts...)
	if err != nil {
		panic(err)
	}
	return p
}

// cloneAll deep-copies an rfd slice (the online index takes ownership
// of what it is seeded with).
func cloneAll(rfds []*sparse.Counts) []*sparse.Counts {
	out := make([]*sparse.Counts, len(rfds))
	for i, c := range rfds {
		out[i] = c.Clone()
	}
	return out
}

// The core equivalence property: after an arbitrary interleaving of
// applied posts, the online index must be posting-for-posting identical
// to BuildInverted over the same accumulated state, and TopK must be
// bit-identical (same ids, same float bits) for every subject.
func TestOnlineMatchesBuildInverted(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		n, dim int
		shards int
	}{
		{seed: 1, n: 40, dim: 25, shards: 1},
		{seed: 2, n: 40, dim: 25, shards: 8},
		{seed: 3, n: 31, dim: 12, shards: 7}, // n not divisible by shards
		{seed: 4, n: 9, dim: 60, shards: 16}, // more shards than resources
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		// Model state: plain count vectors the oracle indexes are built
		// over. A few resources start empty to cover the zero-norm path.
		model := make([]*sparse.Counts, tc.n)
		for i := range model {
			model[i] = sparse.NewCounts()
			if i%5 != 0 {
				for k := 0; k < rng.Intn(6); k++ {
					model[i].Add(randomPost(rng, tc.dim))
				}
			}
		}
		online := NewOnlineIndex(cloneAll(model), tc.shards)

		check := func(step int) {
			t.Helper()
			oracle := BuildInverted(model)
			// Posting-for-posting identity over the union of tag sets.
			seen := map[tags.Tag]bool{}
			for _, tg := range append(online.tags(), oracle.tags()...) {
				if seen[tg] {
					continue
				}
				seen[tg] = true
				got, want := online.postingEntries(tg), oracle.postingEntries(tg)
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d tag %d: %d postings vs %d", tc.seed, step, tg, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d step %d tag %d posting %d: %+v vs %+v", tc.seed, step, tg, i, got[i], want[i])
					}
				}
			}
			// TopK bit-identity for every subject at several k.
			for subject := 0; subject < tc.n; subject++ {
				for _, k := range []int{1, 3, tc.n} {
					got, _ := online.TopK(subject, k)
					want := oracle.TopK(subject, k)
					if len(got) != len(want) {
						t.Fatalf("seed %d step %d subject %d k=%d: %d vs %d results", tc.seed, step, subject, k, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed %d step %d subject %d k=%d rank %d: %+v vs %+v",
								tc.seed, step, subject, k, i, got[i], want[i])
						}
					}
				}
			}
		}

		check(-1)
		// Arbitrary interleaving: random resources, occasional bursts to
		// one resource, posts applied to model and index in lockstep.
		for step := 0; step < 60; step++ {
			i := rng.Intn(tc.n)
			burst := 1
			if rng.Intn(4) == 0 {
				burst = 1 + rng.Intn(5)
			}
			for b := 0; b < burst; b++ {
				p := randomPost(rng, tc.dim)
				model[i].Add(p)
				online.Apply(i, p)
			}
			if step%10 == 9 {
				check(step)
			}
		}
		check(60)
		if online.Stats().Epoch == 0 {
			t.Fatalf("seed %d: epoch never advanced", tc.seed)
		}
	}
}

// Search, online and offline, must equal the brute-force cosine of the
// query's unit-count vector against every rfd, restricted to
// overlapping resources.
func TestOnlineSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := randomIndex(11, 50, 20)
	online := NewOnlineIndex(cloneAll(base.rfds), 4)
	for trial := 0; trial < 30; trial++ {
		query := randomPost(rng, 20)
		k := 1 + rng.Intn(8)
		got, _ := online.Search(query, k)

		// Brute force: cosine against a count vector holding the query.
		qv := sparse.NewCounts()
		qv.Add(query)
		type cand struct {
			id    int
			score float64
		}
		var cands []cand
		for i, c := range base.rfds {
			overlap := false
			for _, tg := range query {
				if c.Get(tg) > 0 {
					overlap = true
					break
				}
			}
			if !overlap {
				continue
			}
			cands = append(cands, cand{id: i, score: qv.Cosine(c)})
		}
		// Sort score desc, id asc; take k.
		for a := 0; a < len(cands); a++ {
			for b := a + 1; b < len(cands); b++ {
				if cands[b].score > cands[a].score ||
					(cands[b].score == cands[a].score && cands[b].id < cands[a].id) {
					cands[a], cands[b] = cands[b], cands[a]
				}
			}
		}
		if len(cands) > k {
			cands = cands[:k]
		}
		want := make([]Scored, len(cands))
		for i, c := range cands {
			want[i] = Scored{ID: c.id, Score: c.score}
		}
		assertIdentical(t, tSprintf("trial %d online", trial), got, want)
		assertIdentical(t, tSprintf("trial %d offline", trial), base.search(query, k), want)
	}
}

// Concurrent readers during ingest: queries under -race while writers
// apply posts on every shard. Results must always be well-formed (the
// bit-level answer is whatever epoch the reader landed on).
func TestOnlineConcurrentReadersDuringApply(t *testing.T) {
	const n, dim, shards = 64, 30, 8
	rng := rand.New(rand.NewSource(21))
	rfds := make([]*sparse.Counts, n)
	for i := range rfds {
		rfds[i] = sparse.NewCounts()
		rfds[i].Add(randomPost(rng, dim))
	}
	online := NewOnlineIndex(rfds, shards)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(100 + int64(w)))
			for !stop.Load() {
				online.Apply(wrng.Intn(n), randomPost(wrng, dim))
			}
		}(w)
	}
	var lastEpoch uint64
	for q := 0; q < 400; q++ {
		subject := q % n
		res, epoch := online.TopK(subject, 10)
		if len(res) != 10 {
			t.Fatalf("query %d: %d results", q, len(res))
		}
		if epoch < lastEpoch {
			t.Fatalf("epoch went backwards: %d after %d", epoch, lastEpoch)
		}
		lastEpoch = epoch
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score {
				t.Fatalf("query %d: scores not descending at %d", q, i)
			}
		}
		sres, _ := online.Search(tags.MustPost(tags.Tag(q%dim)), 5)
		if len(sres) > 5 {
			t.Fatalf("search returned %d > k results", len(sres))
		}
	}
	stop.Store(true)
	wg.Wait()

	// Quiesced: the final state must again match the oracle exactly.
	inv := BuildInverted(onlineSnapshot(online))
	for _, subject := range []int{0, 31, 63} {
		got, _ := online.TopK(subject, 10)
		want := inv.TopK(subject, 10)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("post-quiesce subject %d rank %d: %+v vs %+v", subject, i, got[i], want[i])
			}
		}
	}
}

// A reader sees a whole shard batch or none of it. One writer feeds an
// engine-attached index through IngestMany while TopK readers (on a few
// hot subjects, so answers are also served and folded from the cache)
// and Search readers run. The engine applies a call shard by shard in
// ascending order, each shard's events in slice order, so the epochs at
// which a shard batch ends are known up front: every reported epoch must
// be one of them, and every answer must equal BuildInverted over the
// state at its epoch.
func TestReadersSeeWholeShardBatches(t *testing.T) {
	const n, dim, shards, calls, k = 48, 20, 4, 80, 5
	eng, ix := engineIndex(t, 31, n, dim, shards)
	base := eng.SnapshotRFDs()
	rng := rand.New(rand.NewSource(32))
	batches := make([][]engine.PostEvent, calls)
	var applied []engine.PostEvent // every post in apply order
	ends := map[uint64]bool{0: true}
	for c := range batches {
		for range 40 + rng.Intn(400) {
			batches[c] = append(batches[c], engine.PostEvent{Resource: rng.Intn(n), Post: randomPost(rng, dim)})
		}
		for s := 0; s < shards; s++ {
			for _, ev := range batches[c] {
				if ev.Resource%shards == s {
					applied = append(applied, ev)
				}
			}
			ends[uint64(len(applied))] = true
		}
	}

	type answer struct {
		epoch   uint64
		subject int // -1 for a Search
		query   tags.Post
		res     []Scored
	}
	// Each reader stops at maxAnswers; the writer lets each answer at
	// least once between two calls, so answers spread over the run.
	const maxAnswers = 3000
	var stop atomic.Bool
	var wg sync.WaitGroup
	answers := make([][]answer, 2)
	var answered [2]atomic.Int64
	for r := range answers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(40 + int64(r)))
			for !stop.Load() && len(answers[r]) < maxAnswers {
				a := answer{subject: -1}
				if r == 0 {
					a.subject = rrng.Intn(3)
					a.res, a.epoch = ix.TopK(a.subject, k)
				} else {
					a.query = randomPost(rrng, dim)
					a.res, a.epoch = ix.Search(a.query, k)
				}
				answers[r] = append(answers[r], a)
				answered[r].Add(1)
			}
		}(r)
	}
	for _, b := range batches {
		seen := [2]int64{answered[0].Load(), answered[1].Load()}
		if err := eng.IngestMany(b); err != nil {
			t.Fatal(err)
		}
		for r := range answered {
			for answered[r].Load() == seen[r] && seen[r] < maxAnswers {
				runtime.Gosched()
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	all := slices.Concat(answers...)
	slices.SortStableFunc(all, func(a, b answer) int { return int(a.epoch) - int(b.epoch) })
	state, at := cloneAll(base), 0
	var inv *InvertedIndex
	for q, a := range all {
		if !ends[a.epoch] {
			t.Fatalf("answer %d reports epoch %d, inside a shard batch", q, a.epoch)
		}
		if inv == nil || at < int(a.epoch) {
			for ; at < int(a.epoch); at++ {
				state[applied[at].Resource].Add(applied[at].Post)
			}
			inv = BuildInverted(cloneAll(state))
		}
		if a.subject >= 0 {
			assertIdentical(t, tSprintf("topk %d at epoch %d", a.subject, a.epoch), a.res, inv.TopK(a.subject, k))
		} else {
			assertIdentical(t, tSprintf("search %v at epoch %d", a.query, a.epoch), a.res, inv.search(a.query, k))
		}
	}
	if got := ix.Stats().Epoch; got != uint64(len(applied)) {
		t.Fatalf("final epoch %d, want %d", got, len(applied))
	}
}

// onlineSnapshot clones the vectors an index built by NewOnlineIndex
// owns (test helper).
func onlineSnapshot(ix *OnlineIndex) []*sparse.Counts { return cloneAll(ix.own) }

func TestOnlineEdgeCases(t *testing.T) {
	online := NewOnlineIndex(nil, 4)
	if res, _ := online.TopK(0, 5); res != nil {
		t.Error("empty index answered TopK")
	}
	if res, _ := online.Search(tags.MustPost(1), 5); res != nil {
		t.Error("empty index answered Search")
	}

	base := randomIndex(31, 10, 8)
	online = NewOnlineIndex(cloneAll(base.rfds), 3)
	if res, _ := online.TopK(-1, 3); res != nil {
		t.Error("negative subject answered")
	}
	if res, _ := online.TopK(10, 3); res != nil {
		t.Error("out-of-range subject answered")
	}
	if res, _ := online.TopK(0, 0); res != nil {
		t.Error("k=0 answered")
	}
	if res, _ := online.Search(nil, 3); res != nil {
		t.Error("empty query answered")
	}
	// Out-of-range and empty applies are ignored, not panics.
	online.Apply(-1, tags.MustPost(1))
	online.Apply(99, tags.MustPost(1))
	online.Apply(0, nil)
	if online.Stats().Epoch != 0 {
		t.Errorf("invalid applies advanced the epoch to %d", online.Stats().Epoch)
	}
	st := online.Stats()
	if st.Resources != 10 || st.Shards != 3 || st.Tags == 0 || st.Postings == 0 || st.MaxPostings == 0 {
		t.Errorf("Stats = %+v", st)
	}
	if st.TopKQueries == 0 {
		t.Errorf("query counters not advancing: %+v", st)
	}
}

// The zero-norm-subject early return (read-path bugfix): a subject with
// no posts goes straight to zero-similarity padding, smallest ids first,
// on the offline and the online index alike.
func TestInvertedZeroNormSubject(t *testing.T) {
	rfds := make([]*sparse.Counts, 8)
	for i := range rfds {
		rfds[i] = sparse.NewCounts()
		if i != 3 { // resource 3 stays empty
			rfds[i].Add(tags.MustPost(tags.Tag(10+i), 5))
		}
	}
	inv := BuildInverted(rfds)
	online := NewOnlineIndex(cloneAll(rfds), 2)
	others := []Scored{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 4}, {ID: 5}, {ID: 6}, {ID: 7}}
	for _, k := range []int{1, 4, 7, 20} {
		want := others[:min(k, len(others))]
		assertIdentical(t, tSprintf("inverted k=%d", k), inv.TopK(3, k), want)
		got, _ := online.TopK(3, k)
		assertIdentical(t, tSprintf("online k=%d", k), got, want)
	}
}

func BenchmarkOnlineTopK(b *testing.B) {
	base := randomIndex(7, 2000, 400)
	online := NewOnlineIndex(cloneAll(base.rfds), 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		online.TopK(i%2000, 10)
	}
}

// Tags 0 and math.MaxInt32, the extremes the /ingest scanner accepts,
// through an engine-attached index: posting for posting against
// BuildInverted, and a hot subject's answer, folded from the write log
// across posts that carry both tags, against a rebuild.
func TestBoundaryTagIDsEndToEnd(t *testing.T) {
	const n, dim, k, subject = 24, 12, 5, 3
	eng, ix := engineIndex(t, 53, n, dim, 4)
	lo, hi := tags.Tag(0), tags.Tag(math.MaxInt32)
	ingest := func(i int, ts ...tags.Tag) {
		t.Helper()
		if err := eng.Ingest(i, tags.MustPost(ts...)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(ctx string) {
		t.Helper()
		inv := BuildInverted(eng.SnapshotRFDs())
		if got, want := ix.tags(), inv.tags(); !slices.Equal(got, want) {
			t.Fatalf("%s: tags %v, rebuild %v", ctx, got, want)
		}
		for _, tg := range inv.tags() {
			if got, want := ix.postingEntries(tg), inv.postingEntries(tg); !slices.Equal(got, want) {
				t.Fatalf("%s: tag %d postings %+v, rebuild %+v", ctx, tg, got, want)
			}
		}
		got, _ := ix.TopK(subject, k)
		compareScored(t, ctx, got, inv.TopK(subject, k))
	}
	ingest(subject, lo, hi)
	ingest(subject, hi)
	check("first query")
	ingest(7, hi)
	check("hot subject")
	for r := 0; r < n; r++ {
		if r != subject {
			ingest(r, lo, hi)
			ingest(r, tags.Tag(r%dim), hi)
		}
	}
	before := ix.Stats()
	check("folded")
	after := ix.Stats()
	if after.CacheHits != before.CacheHits+1 || after.CacheMisses != before.CacheMisses {
		t.Fatalf("the last query was not folded: hits %d → %d, misses %d → %d",
			before.CacheHits, after.CacheHits, before.CacheMisses, after.CacheMisses)
	}
	if st := ix.Stats(); st.Tags != len(ix.tags()) {
		t.Fatalf("census counts %d tags, the directory lists %d", st.Tags, len(ix.tags()))
	}
}

// benchEngineIndex is the serving write path's index rung set-up: an
// index attached to an engine as NewService attaches it, over the
// n = 2 000 corpus, and the corpus's recorded future posts, interleaved
// across resources round-robin.
func benchEngineIndex(b *testing.B) (*engine.Engine, []engine.PostEvent) {
	cfg := synth.DefaultConfig(2000, 1)
	ds, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	data := sim.FromDataset(ds, 0)
	eng, err := engine.New(engine.Config{
		Omega:          5,
		UnderThreshold: data.UnderThreshold,
		TagUniverse:    data.TagUniverse,
	}, data.EngineSpecs())
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Subscribe(NewOnlineIndexOver(eng, eng.N(), eng.Shards())); err != nil {
		b.Fatal(err)
	}
	var future []engine.PostEvent
	for k := 0; ; k++ {
		added := false
		for i, seq := range data.Seqs {
			if at := data.Initial[i] + k; at < len(seq) {
				future, added = append(future, engine.PostEvent{Resource: i, Post: seq[at]}), true
			}
		}
		if !added {
			return eng, future
		}
	}
}

// BenchmarkPostApplied feeds the rung one post per Ingest (wrapping once
// the futures are spent): an op is one post through the engine's apply
// and the index's PostsApplied as a shard batch of one, no WAL or HTTP,
// so ns/op and allocs/op are per post.
func BenchmarkPostApplied(b *testing.B) {
	eng, future := benchEngineIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp := future[i%len(future)]
		if err := eng.Ingest(fp.Resource, fp.Post); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestMany feeds the same rung 256-post IngestMany batches of
// consecutive futures, each across 256 resources and so across every
// shard, as ingest-http's /ingest batches arrive. An op is still one
// post, so ns/op compares with BenchmarkPostApplied's.
func BenchmarkIngestMany(b *testing.B) {
	const batch = 256
	eng, future := benchEngineIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i, at := 0, 0; i < b.N; i += batch {
		m := min(batch, b.N-i)
		if at+m > len(future) {
			at = 0
		}
		if err := eng.IngestMany(future[at : at+m]); err != nil {
			b.Fatal(err)
		}
		at += m
	}
}
