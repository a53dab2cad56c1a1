package ir

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// ownedSet materialises an ownership predicate over [0, n) — what
// Service does once at boot with ServiceOptions.Owned.
func ownedSet(n int, pred func(int) bool) []bool {
	set := make([]bool, n)
	for i := range set {
		set[i] = pred(i)
	}
	return set
}

// topKWeightedExhaustive is the test-only oracle for TopKWeighted: the
// exhaustive owned scan the product ran before the pruned executor took
// over. It touches every posting of every query tag, accumulates dots
// for owned, non-excluded resources in a map, scores each with the
// exhaustive score expression and pads smallest-owned-id-first.
func topKWeightedExhaustive(ix *OnlineIndex, query []WeightedTag, qNorm2 float64, exclude, k int, owned []bool) []Scored {
	if k <= 0 {
		return nil
	}
	ix.rlockAll()
	defer ix.runlockAll()
	subjNorm := math.Sqrt(qNorm2)
	dots := make(map[int32]float64)
	if subjNorm > 0 {
		for _, wt := range query {
			sc := float64(wt.Count)
			for _, sh := range ix.shards {
				pl := sh.postings[wt.Tag]
				if pl == nil {
					continue
				}
				for _, p := range pl.entries {
					if int(p.id) == exclude || (owned != nil && !owned[p.id]) {
						continue
					}
					dots[p.id] += sc * float64(p.count)
				}
			}
		}
	}
	sel := newTopKSelector(k)
	for id, dot := range dots {
		n2 := ix.norm2[id]
		if n2 == 0 {
			continue
		}
		s := dot / (subjNorm * math.Sqrt(n2))
		if s > 1 {
			s = 1
		}
		sel.push(int(id), s)
	}
	for id := 0; id < ix.n && sel.len() < k; id++ {
		if id == exclude || (owned != nil && !owned[id]) {
			continue
		}
		if _, overlapped := dots[int32(id)]; overlapped {
			continue
		}
		sel.push(id, 0)
	}
	return sel.results()
}

// searchOwnedExhaustive is the test-only oracle for SearchOwned:
// SearchExhaustive with an ownership filter on the postings.
func searchOwnedExhaustive(ix *OnlineIndex, query tags.Post, k int, owned []bool) []Scored {
	query = normalizeQuery(query)
	if k <= 0 || len(query) == 0 || ix.n == 0 {
		return nil
	}
	ix.rlockAll()
	defer ix.runlockAll()
	dots := make(map[int32]float64)
	for _, t := range query {
		for _, sh := range ix.shards {
			pl := sh.postings[t]
			if pl == nil {
				continue
			}
			for _, p := range pl.entries {
				if owned != nil && !owned[p.id] {
					continue
				}
				dots[p.id] += float64(p.count)
			}
		}
	}
	qNorm2 := float64(len(query))
	sel := newTopKSelector(k)
	for id, dot := range dots {
		n2 := ix.norm2[id]
		if n2 == 0 {
			continue
		}
		s := dot / math.Sqrt(qNorm2*n2)
		if s > 1 {
			s = 1
		}
		sel.push(int(id), s)
	}
	return sel.results()
}

// mergeScored merges per-node partial rankings under the engine's
// total order (score desc, id asc) and truncates to k — the gateway's
// merge, restated locally so the ir-level property is self-contained.
func mergeScored(lists [][]Scored, k int) []Scored {
	var all []Scored
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// The owned kernels' one equivalence property: on Zipf-skewed corpora
// (long lists, so tag defers and block skips engage) grown by applies
// and partly frozen, TopKWeighted and SearchOwned equal the exhaustive
// owned oracle bit for bit under every ownership shape — nil, empty, a
// single resource, random halves, 3-way partitions — and every query
// shape the wire can deliver, and 3-way partitions of one index merge
// into exactly its single-node TopK/Search.
func TestOwnedKernelsMatchExhaustiveOracle(t *testing.T) {
	for _, tc := range []struct {
		seed           int64
		n, dim, shards int
	}{
		{seed: 71, n: 300, dim: 30, shards: 4},
		{seed: 72, n: 257, dim: 40, shards: 7},
		{seed: 73, n: 64, dim: 12, shards: 1},
	} {
		model, rng, z := zipfModel(tc.seed, tc.n, tc.dim, 6)
		ix := NewOnlineIndex(cloneAll(model), tc.shards)
		for step := 0; step < 3*tc.n; step++ {
			ix.Apply(rng.Intn(tc.n), zipfPost(rng, z, tc.dim))
		}

		part := func(parts int) [][]bool {
			salt := rng.Intn(1 << 16)
			sets := make([][]bool, parts)
			for j := range sets {
				j := j
				sets[j] = ownedSet(tc.n, func(id int) bool { return int((uint64(id)*2654435761+uint64(salt))>>4%uint64(parts)) == j })
			}
			return sets
		}
		single := make([]bool, tc.n)
		single[rng.Intn(tc.n)] = true
		three := part(3)
		shapes := map[string][]bool{
			"nil":    nil,
			"empty":  make([]bool, tc.n),
			"single": single,
			"half":   part(2)[0],
			"third0": three[0],
			"third1": three[1],
			"third2": three[2],
		}
		count := func(set []bool) int {
			if set == nil {
				return tc.n
			}
			c := 0
			for _, o := range set {
				if o {
					c++
				}
			}
			return c
		}

		for round := 0; round < 12; round++ {
			// Re-freeze each round: queries promote the cold resources they
			// decode, and both cold candidates and a cold subject vector
			// must stay in play.
			evictRandom(rng, ix, tc.n)
			subject := rng.Intn(tc.n)
			if round%4 == 3 {
				subject = 5 * rng.Intn(tc.n/5) // a zero-norm subject (zipfModel leaves i%5 == 0 empty) unless an apply hit it
			}
			entries, norm2, _, _ := ix.RFDEntries(subject)
			absent := append(append([]WeightedTag(nil), entries...), WeightedTag{Tag: tags.Tag(tc.dim + 100), Count: 3})
			sq := zipfPost(rng, z, tc.dim)
			sqAbsent := tags.MustPost(append(append([]tags.Tag(nil), sq...), tags.Tag(tc.dim+100))...)

			for name, owned := range shapes {
				oc := count(owned)
				for _, k := range []int{1, 10, oc + 5, tc.n + 3} {
					for _, exclude := range []int{subject, -1, tc.n + 9, (subject + 1) % tc.n} {
						ctx := tSprintf("seed %d round %d owned=%s subject %d exclude %d k=%d", tc.seed, round, name, subject, exclude, k)
						got, _ := ix.TopKWeighted(entries, norm2, exclude, k, owned)
						assertIdentical(t, ctx, got, topKWeightedExhaustive(ix, entries, norm2, exclude, k, owned))
						if owned == nil && exclude == subject {
							want, _ := ix.TopK(subject, k)
							assertIdentical(t, ctx+" vs TopK", got, want)
						}
					}
					ctx := tSprintf("seed %d round %d owned=%s subject %d k=%d", tc.seed, round, name, subject, k)
					got, _ := ix.TopKWeighted(absent, norm2, subject, k, owned)
					assertIdentical(t, ctx+" absent tag", got, topKWeightedExhaustive(ix, absent, norm2, subject, k, owned))
					got, _ = ix.TopKWeighted(entries, 0, subject, k, owned)
					assertIdentical(t, ctx+" zero-norm query", got, topKWeightedExhaustive(ix, entries, 0, subject, k, owned))

					for _, q := range []tags.Post{sq, sqAbsent, tags.MustPost(tags.Tag(tc.dim + 100))} {
						gs, _ := ix.SearchOwned(q, k, owned)
						assertIdentical(t, tSprintf("%s search %v", ctx, q), gs, searchOwnedExhaustive(ix, q, k, owned))
					}
				}
			}

			for _, k := range []int{1, 10, tc.n + 3} {
				var tl, sl [][]Scored
				for _, owned := range three {
					l, _ := ix.TopKWeighted(entries, norm2, subject, k, owned)
					tl = append(tl, l)
					l, _ = ix.SearchOwned(sq, k, owned)
					sl = append(sl, l)
				}
				ctx := tSprintf("seed %d round %d subject %d k=%d 3-way merge", tc.seed, round, subject, k)
				want, _ := ix.TopK(subject, k)
				assertIdentical(t, ctx+" topk", mergeScored(tl, k), want)
				want, _ = ix.Search(sq, k)
				assertIdentical(t, ctx+" search", mergeScored(sl, k), want)
			}
		}
		if st := ix.Stats(); tc.n >= 200 && (st.BlocksSkipped == 0 || st.TagsDeferred == 0 || st.VecRehydrations == 0) {
			t.Fatalf("seed %d: run never pruned or never met a cold resource: %+v", tc.seed, st)
		}
	}
}

// A set that does not cover the corpus is a caller bug, refused loudly
// rather than indexed out of range halfway through a ranking.
func TestOwnedSetLengthMismatchPanics(t *testing.T) {
	ix := NewOnlineIndex(cloneAll(randomIndex(81, 10, 6).RFDs()), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("a short owned set was accepted")
		}
	}()
	ix.SearchOwned(tags.MustPost(1), 3, make([]bool, 9))
}

// The distributed execution property the whole cluster design rests on:
// partition resources across three "nodes" (each an OnlineIndex seeded
// with the same primed state, receiving only its owned posts), run the
// two-phase scatter — subject rfd from its owner, TopKWeighted with
// each node's owned set — merge under (score desc, id asc), and the
// result must be bit-identical to one index that absorbed every post.
// Same for SearchOwned.
func TestClusterPartitionMergesBitIdentical(t *testing.T) {
	for _, seed := range []int64{41, 42, 43} {
		rng := rand.New(rand.NewSource(seed))
		const n, dim, nodes = 45, 22, 3
		owner := func(id int) int { return int((int64(id)*2654435761 + 17) % nodes) } // arbitrary deterministic spread
		owned := make([][]bool, nodes)
		for j := range owned {
			j := j
			owned[j] = ownedSet(n, func(id int) bool { return owner(id) == j })
		}

		// Identical primed state everywhere, like nodes booting the same
		// -n/-seed corpus.
		primed := make([]*sparse.Counts, n)
		for i := range primed {
			primed[i] = sparse.NewCounts()
			if i%6 != 0 {
				for p := 0; p < rng.Intn(4); p++ {
					primed[i].Add(randomPost(rng, dim))
				}
			}
		}
		reference := NewOnlineIndex(cloneAll(primed), 4)
		shard := make([]*OnlineIndex, nodes)
		for j := range shard {
			shard[j] = NewOnlineIndex(cloneAll(primed), 1+j) // distinct shard widths on purpose
		}

		// Arbitrary interleaving of live posts, each applied to the
		// reference and to its owner node only.
		for step := 0; step < 300; step++ {
			id := rng.Intn(n)
			p := randomPost(rng, dim)
			reference.Apply(id, p)
			shard[owner(id)].Apply(id, p)
		}

		for subject := 0; subject < n; subject++ {
			entries, norm2, _, _ := shard[owner(subject)].RFDEntries(subject)
			for _, k := range []int{1, 7, n} {
				lists := make([][]Scored, nodes)
				for j := range shard {
					lists[j], _ = shard[j].TopKWeighted(entries, norm2, subject, k, owned[j])
				}
				want, _ := reference.TopK(subject, k)
				assertIdentical(t, tSprintf("seed %d subject %d k=%d merged vs single-node", seed, subject, k), mergeScored(lists, k), want)
			}
		}

		for trial := 0; trial < 30; trial++ {
			q := randomPost(rng, dim)
			k := 1 + rng.Intn(12)
			lists := make([][]Scored, nodes)
			for j := range shard {
				lists[j], _ = shard[j].SearchOwned(q, k, owned[j])
			}
			want, _ := reference.Search(q, k)
			assertIdentical(t, tSprintf("seed %d search trial %d merged vs single-node", seed, trial), mergeScored(lists, k), want)
		}
	}
}

// Owned queries racing concurrent ingest, under -race: results stay
// well-formed (owned ids only, ranking order intact) while writers
// mutate every shard, and after quiescing the kernels again equal the
// oracle.
func TestOwnedQueriesConcurrentApplyRace(t *testing.T) {
	const n, dim, shards = 256, 30, 8
	model, rng, z := zipfModel(91, n, dim, 6)
	ix := NewOnlineIndex(cloneAll(model), shards)
	owned := ownedSet(n, func(id int) bool { return id%3 == 1 })

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(900 + int64(w)))
			wz := rand.NewZipf(wrng, 1.3, 1.0, dim-1)
			for !stop.Load() {
				ix.Apply(wrng.Intn(n), zipfPost(wrng, wz, dim))
			}
		}(w)
	}
	wellFormed := func(ctx string, res []Scored, k int) {
		t.Helper()
		if len(res) > k {
			t.Fatalf("%s: %d > k results", ctx, len(res))
		}
		for i, r := range res {
			if !owned[r.ID] {
				t.Fatalf("%s: rank %d is resource %d, which is not owned", ctx, i, r.ID)
			}
			if i > 0 && (r.Score > res[i-1].Score || (r.Score == res[i-1].Score && r.ID < res[i-1].ID)) {
				t.Fatalf("%s: ranking order broken at %d: %+v %+v", ctx, i, res[i-1], r)
			}
		}
	}
	for q := 0; q < 400; q++ {
		subject := q % n
		entries, norm2, _, _ := ix.RFDEntries(subject)
		res, _ := ix.TopKWeighted(entries, norm2, subject, 10, owned)
		if len(res) != 10 {
			t.Fatalf("query %d: %d results", q, len(res))
		}
		wellFormed(tSprintf("topk %d", q), res, 10)
		sres, _ := ix.SearchOwned(tags.MustPost(tags.Tag(q%dim), tags.Tag((q+1)%dim)), 5, owned)
		wellFormed(tSprintf("search %d", q), sres, 5)
	}
	stop.Store(true)
	wg.Wait()

	for subject := 0; subject < n; subject += 5 {
		entries, norm2, _, _ := ix.RFDEntries(subject)
		got, _ := ix.TopKWeighted(entries, norm2, subject, 10, owned)
		assertIdentical(t, tSprintf("post-quiesce subject %d", subject), got, topKWeightedExhaustive(ix, entries, norm2, subject, 10, owned))
		q := zipfPost(rng, z, dim)
		gs, _ := ix.SearchOwned(q, 10, owned)
		assertIdentical(t, tSprintf("post-quiesce search %v", q), gs, searchOwnedExhaustive(ix, q, 10, owned))
	}
}

// RFDEntries round-trips the exact live vector: entries in ascending
// tag order, counts and norm matching the index's own view.
func TestRFDEntriesShape(t *testing.T) {
	base := randomIndex(51, 20, 15)
	ix := NewOnlineIndex(cloneAll(base.RFDs()), 2)
	ix.Apply(3, tags.MustPost(1, 2))
	entries, norm2, posts, epoch := ix.RFDEntries(3)
	if epoch != 1 {
		t.Fatalf("epoch = %d after one apply", epoch)
	}
	var rebuilt = sparse.NewCounts()
	prev := tags.Tag(-1)
	for _, e := range entries {
		if e.Tag <= prev {
			t.Fatalf("entries not in ascending tag order: %d after %d", e.Tag, prev)
		}
		prev = e.Tag
		for c := int64(0); c < e.Count; c++ {
			rebuilt.Add(tags.MustPost(e.Tag))
		}
	}
	if rebuilt.Norm2() != norm2 {
		t.Fatalf("norm2 %v does not match rebuilt %v", norm2, rebuilt.Norm2())
	}
	if posts == 0 {
		t.Fatal("posts = 0 after an apply")
	}
	if e, _, _, _ := ix.RFDEntries(-1); e != nil {
		t.Fatal("out-of-range id returned entries")
	}
	if e, _, _, _ := ix.RFDEntries(99); e != nil {
		t.Fatal("out-of-range id returned entries")
	}
}

// SubjectTopK is RFDEntries + TopKWeighted under one read view. On a
// quiesced index that is not observable: for every subject of the zipf
// corpus — hot, cold and zero-norm alike — the exported vector and the
// owned ranking are bit-identical to the two calls, and a twin index
// driven by the two calls ends with the same residency.
func TestSubjectTopKMatchesTwoCalls(t *testing.T) {
	const n, dim, shards, k = 300, 40, 8, 12
	model, rng, _ := zipfModel(17, n, dim, 8)
	one, two := NewOnlineIndex(cloneAll(model), shards), NewOnlineIndex(cloneAll(model), shards)
	var cold []int
	for id := 0; id < n; id++ {
		if rng.Intn(2) == 0 {
			cold = append(cold, id)
		}
	}
	one.Evict(cold)
	two.Evict(cold)
	owned := ownedSet(n, func(id int) bool { return id%3 != 1 })
	var zeroNorm, coldSubjects int
	for subject := 0; subject < n; subject++ {
		if !one.ResidentVec(subject) {
			coldSubjects++
		}
		wantEntries, wantNorm2, _, wantEpoch := two.RFDEntries(subject)
		want, _ := two.TopKWeighted(wantEntries, wantNorm2, subject, k, owned)
		entries, norm2, got, epoch := one.SubjectTopK(subject, k, owned)
		if epoch != wantEpoch || math.Float64bits(norm2) != math.Float64bits(wantNorm2) || len(entries) != len(wantEntries) {
			t.Fatalf("subject %d: vector (%d entries, norm2 %v, epoch %d), want (%d, %v, %d)",
				subject, len(entries), norm2, epoch, len(wantEntries), wantNorm2, wantEpoch)
		}
		for i := range entries {
			if entries[i] != wantEntries[i] {
				t.Fatalf("subject %d entry %d: %+v, want %+v", subject, i, entries[i], wantEntries[i])
			}
		}
		if norm2 == 0 {
			zeroNorm++
		}
		assertIdentical(t, tSprintf("subject %d", subject), got, want)
	}
	if zeroNorm == 0 || coldSubjects == 0 || coldSubjects == n {
		t.Fatalf("corpus exercised %d zero-norm and %d cold subjects of %d", zeroNorm, coldSubjects, n)
	}
	if a, b := one.Stats(), two.Stats(); a.ColdVecs != b.ColdVecs || a.VecRehydrations != b.VecRehydrations {
		t.Fatalf("residency diverged: one view %d cold / %d rehydrations, two calls %d / %d",
			a.ColdVecs, a.VecRehydrations, b.ColdVecs, b.VecRehydrations)
	}
	if e, _, top, _ := one.SubjectTopK(n, k, owned); e != nil || top != nil {
		t.Fatal("out-of-range subject returned an answer")
	}
	if e, _, top, _ := one.SubjectTopK(3, 0, owned); e != nil || top != nil {
		t.Fatal("k = 0 returned an answer")
	}
}

// The reason SubjectTopK exists: posts land on the subject while it is
// being queried, and every answer must still be of ONE epoch — the
// exported counts square-sum to the exported norm, which two separate
// reads cannot promise. Run under -race.
func TestSubjectTopKOneViewUnderApply(t *testing.T) {
	const n, dim, shards, subject = 64, 30, 4, 9
	model, _, _ := zipfModel(23, n, dim, 6)
	ix := NewOnlineIndex(cloneAll(model), shards)
	owned := ownedSet(n, func(id int) bool { return id%2 == 1 })

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(700 + int64(w)))
			wz := rand.NewZipf(wrng, 1.3, 1.0, dim-1)
			for i := 0; !stop.Load(); i++ {
				target := subject
				if i%4 == 3 {
					target = wrng.Intn(n)
				}
				ix.Apply(target, zipfPost(wrng, wz, dim))
				if i%64 == 0 {
					ix.Evict([]int{subject}) // cold exports go through the blob
				}
			}
		}(w)
	}
	var last uint64
	for q := 0; q < 500; q++ {
		entries, norm2, top, epoch := ix.SubjectTopK(subject, 5, owned)
		var sum float64
		for _, e := range entries {
			sum += float64(e.Count) * float64(e.Count)
		}
		if sum != norm2 {
			t.Fatalf("query %d at epoch %d: counts square-sum to %v, exported norm2 %v", q, epoch, sum, norm2)
		}
		if epoch < last || len(top) != 5 {
			t.Fatalf("query %d: epoch %d after %d, %d results", q, epoch, last, len(top))
		}
		last = epoch
	}
	stop.Store(true)
	wg.Wait()
}
