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

// member is a cluster member's index as a Service builds it: over the
// vectors of the resources it owns only, each under a local slot given
// in ascending global id order. Its methods take and return global ids,
// translating as Service does.
type member struct {
	tv   *tieredVecs
	ix   *OnlineIndex
	ids  []int // slot → global id, ascending
	slot []int // global id → slot, -1 where another member owns it
}

// newMember builds the member owning what owned admits (nil: every
// resource) over clones of model's vectors.
func newMember(model []*sparse.Counts, shards int, owned []bool) *member {
	m := &member{slot: make([]int, len(model))}
	var rfds []*sparse.Counts
	for g, c := range model {
		m.slot[g] = -1
		if owned == nil || owned[g] {
			m.slot[g] = len(m.ids)
			m.ids = append(m.ids, g)
			rfds = append(rfds, c.Clone())
		}
	}
	m.tv = newTieredVecs(rfds, shards, false)
	m.ix = m.tv.ix
	return m
}

// local is g's slot, or -1 when the member does not hold g.
func (m *member) local(g int) int {
	if g < 0 || g >= len(m.slot) {
		return -1
	}
	return m.slot[g]
}

// apply posts p to g when the member owns g: the gateway routes every
// post to its owner only.
func (m *member) apply(g int, p tags.Post) {
	if l := m.local(g); l >= 0 {
		m.tv.apply(l, p)
	}
}

// evict marks g cold when the member owns it.
func (m *member) evict(g int) {
	if l := m.local(g); l >= 0 {
		m.tv.evict(l)
	}
}

// global maps an answer's slots back to global ids.
func (m *member) global(res []Scored) []Scored {
	out := make([]Scored, len(res))
	for i, r := range res {
		out[i] = Scored{ID: m.ids[r.ID], Score: r.Score}
	}
	return out
}

// topKWeighted is TopKWeighted as the Service calls it: a global exclude
// the member does not hold excludes nothing.
func (m *member) topKWeighted(query []WeightedTag, qNorm2 float64, exclude, k int) []Scored {
	res, _ := m.ix.TopKWeighted(query, qNorm2, m.local(exclude), k, nil)
	return m.global(res)
}

// search is Search with the answer in global ids.
func (m *member) search(q tags.Post, k int) []Scored {
	res, _ := m.ix.Search(q, k)
	return m.global(res)
}

// assertOwnedPostings checks that the member holds exactly full's
// postings of the resources owned admits (nil admits all), under their
// slots, and a census that counts the same entries.
func assertOwnedPostings(t *testing.T, ctx string, m *member, full *OnlineIndex, owned []bool) {
	t.Helper()
	total := 0
	for _, tg := range full.tags() {
		var want []Posting
		for _, p := range full.postingEntries(tg) {
			if owned == nil || owned[p.ID] {
				want = append(want, p)
			}
		}
		got := m.ix.postingEntries(tg)
		if len(got) != len(want) {
			t.Fatalf("%s: tag %d has %d postings, want the %d owned ones", ctx, tg, len(got), len(want))
		}
		for i := range want {
			if g := (Posting{ID: int32(m.ids[got[i].ID]), Count: got[i].Count}); g != want[i] {
				t.Fatalf("%s: tag %d posting %d = %+v, want %+v", ctx, tg, i, g, want[i])
			}
		}
		total += len(want)
	}
	if st := m.ix.Stats(); st.Postings != total {
		t.Fatalf("%s: census counts %d postings, the owned lists hold %d", ctx, st.Postings, total)
	}
}

// topKWeightedExhaustive is the test-only oracle for TopKWeighted: an
// exhaustive owned scan with a map accumulator. It touches every posting of every query tag, accumulates dots
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
				pl := sh.postings.get(wt.Tag)
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

// searchOwnedExhaustive is the test-only oracle for an owned index's
// Search: InvertedIndex.search's scan with an ownership filter on the
// postings.
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
			pl := sh.postings.get(t)
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
// grown by applies and partly frozen, a member index built over every
// ownership shape — all, empty, a single resource, random halves, 3-way
// partitions — from its own resources' vectors answers TopKWeighted,
// TopK and Search, in global ids, bit for bit like the exhaustive owned
// oracle run over a full index, for every query shape the wire can
// deliver, and 3-way partitions merge into exactly the full index's
// TopK/Search. Each member receives the posts of the resources it owns
// only, so its norms are the full index's and the partitions' epochs sum
// to the full index's.
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
			"all":    nil,
			"empty":  make([]bool, tc.n),
			"single": single,
			"half":   part(2)[0],
			"third0": three[0],
			"third1": three[1],
			"third2": three[2],
		}
		full := newTieredVecs(cloneAll(model), tc.shards, false)
		members := make(map[string]*member, len(shapes))
		evicts := []func(int){full.evict}
		for name, owned := range shapes {
			members[name] = newMember(model, tc.shards, owned)
			evicts = append(evicts, members[name].evict)
		}
		for step := 0; step < 3*tc.n; step++ {
			id, p := rng.Intn(tc.n), zipfPost(rng, z, tc.dim)
			full.apply(id, p)
			for _, m := range members {
				m.apply(id, p)
			}
		}
		var partEpochs uint64
		for name, owned := range shapes {
			m := members[name]
			for l, g := range m.ids {
				if m.ix.norm2[l] != full.ix.norm2[g] {
					t.Fatalf("seed %d owned=%s: norm2[%d] = %v, full index %v", tc.seed, name, g, m.ix.norm2[l], full.ix.norm2[g])
				}
			}
			assertOwnedPostings(t, tSprintf("seed %d owned=%s", tc.seed, name), m, full.ix, owned)
			if name[:len(name)-1] == "third" {
				partEpochs += m.ix.Stats().Epoch
			}
		}
		if e := full.ix.Stats().Epoch; partEpochs != e || members["all"].ix.Stats().Epoch != e {
			t.Fatalf("seed %d: partition epochs sum to %d, all-owning member at %d, full index at %d", tc.seed, partEpochs, members["all"].ix.Stats().Epoch, e)
		}

		for round := 0; round < 12; round++ {
			// Re-freeze each round, so that cold candidates and a cold
			// subject vector stay in play.
			evictRandom(rng, tc.n, evicts...)
			subject := rng.Intn(tc.n)
			if round%4 == 3 {
				subject = 5 * rng.Intn(tc.n/5) // a zero-norm subject (zipfModel leaves i%5 == 0 empty) unless an apply hit it
			}
			entries, norm2, _, _ := full.ix.RFDEntries(subject)
			absent := append(append([]WeightedTag(nil), entries...), WeightedTag{Tag: tags.Tag(tc.dim + 100), Count: 3})
			sq := zipfPost(rng, z, tc.dim)
			sqAbsent := tags.MustPost(append(append([]tags.Tag(nil), sq...), tags.Tag(tc.dim+100))...)

			for name, owned := range shapes {
				m := members[name]
				for _, k := range []int{1, 10, len(m.ids) + 5, tc.n + 3} {
					for _, exclude := range []int{subject, -1, tc.n + 9, (subject + 1) % tc.n} {
						ctx := tSprintf("seed %d round %d owned=%s subject %d exclude %d k=%d", tc.seed, round, name, subject, exclude, k)
						want := topKWeightedExhaustive(full.ix, entries, norm2, exclude, k, owned)
						assertIdentical(t, ctx, m.topKWeighted(entries, norm2, exclude, k), want)
						if l := m.local(subject); exclude == subject && l >= 0 {
							got, _ := m.ix.TopK(l, k)
							assertIdentical(t, ctx+" TopK", m.global(got), want)
						}
					}
					ctx := tSprintf("seed %d round %d owned=%s subject %d k=%d", tc.seed, round, name, subject, k)
					assertIdentical(t, ctx+" absent tag", m.topKWeighted(absent, norm2, subject, k), topKWeightedExhaustive(full.ix, absent, norm2, subject, k, owned))
					assertIdentical(t, ctx+" zero-norm query", m.topKWeighted(entries, 0, subject, k), topKWeightedExhaustive(full.ix, entries, 0, subject, k, owned))

					for _, q := range []tags.Post{sq, sqAbsent, tags.MustPost(tags.Tag(tc.dim + 100))} {
						assertIdentical(t, tSprintf("%s search %v", ctx, q), m.search(q, k), searchOwnedExhaustive(full.ix, q, k, owned))
					}
				}
			}

			for _, k := range []int{1, 10, tc.n + 3} {
				var tl, sl [][]Scored
				for _, name := range []string{"third0", "third1", "third2"} {
					tl = append(tl, members[name].topKWeighted(entries, norm2, subject, k))
					sl = append(sl, members[name].search(sq, k))
				}
				ctx := tSprintf("seed %d round %d subject %d k=%d 3-way merge", tc.seed, round, subject, k)
				want, _ := full.ix.TopK(subject, k)
				assertIdentical(t, ctx+" topk", mergeScored(tl, k), want)
				want, _ = full.ix.Search(sq, k)
				assertIdentical(t, ctx+" search", mergeScored(sl, k), want)
			}
		}
		if tc.n >= 200 && full.coldReads.Load() == 0 {
			t.Fatalf("seed %d: run never met a cold resource", tc.seed)
		}
	}
}

// An index ranks what it holds: the owned set the five-argument
// TopKWeighted still takes must be nil, and any other is refused loudly.
func TestTopKWeightedRefusesOwnedSet(t *testing.T) {
	rfds := cloneAll(randomIndex(81, 10, 6).rfds)
	ix := NewOnlineIndex(rfds, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("an owned set passed to TopKWeighted was accepted")
		}
	}()
	ix.TopKWeighted(nil, 1, -1, 3, make([]bool, len(rfds)))
}

// The distributed execution property the whole cluster design rests on:
// partition resources across three member indexes (each seeded with the
// same primed state of the resources it owns, receiving only its owned
// posts), run the two-phase scatter — subject rfd from its owner,
// TopKWeighted on every node — merge under (score desc, id asc), and the
// result in global ids must be bit-identical to one index that absorbed
// every post. Same for Search. Each node holds exactly the reference's
// postings of the resources it owns, so together they hold the
// reference's.
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
		shard := make([]*member, nodes)
		for j := range shard {
			shard[j] = newMember(primed, 1+j, owned[j]) // distinct shard widths on purpose
		}

		// Arbitrary interleaving of live posts, each applied to the
		// reference and to its owner node only.
		for step := 0; step < 300; step++ {
			id := rng.Intn(n)
			p := randomPost(rng, dim)
			reference.Apply(id, p)
			shard[owner(id)].apply(id, p)
		}

		for j := range shard {
			assertOwnedPostings(t, tSprintf("seed %d node %d", seed, j), shard[j], reference, owned[j])
		}
		for subject := 0; subject < n; subject++ {
			o := shard[owner(subject)]
			entries, norm2, _, _ := o.ix.RFDEntries(o.local(subject))
			for _, k := range []int{1, 7, n} {
				lists := make([][]Scored, nodes)
				for j := range shard {
					lists[j] = shard[j].topKWeighted(entries, norm2, subject, k)
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
				lists[j] = shard[j].search(q, k)
			}
			want, _ := reference.Search(q, k)
			assertIdentical(t, tSprintf("seed %d search trial %d merged vs single-node", seed, trial), mergeScored(lists, k), want)
		}
	}
}

// Owned queries racing concurrent ingest, under -race: a member's
// answers stay well-formed (owned ids only, ranking order intact) while
// writers mutate every shard, and after quiescing its kernels again
// equal the oracle over a full index of the same state.
func TestOwnedQueriesConcurrentApplyRace(t *testing.T) {
	const n, dim, shards = 256, 30, 8
	model, rng, z := zipfModel(91, n, dim, 6)
	owned := ownedSet(n, func(id int) bool { return id%3 == 1 })
	m := newMember(model, shards, owned)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(900 + int64(w)))
			wz := rand.NewZipf(wrng, 1.3, 1.0, dim-1)
			for !stop.Load() {
				m.tv.apply(wrng.Intn(len(m.ids)), zipfPost(wrng, wz, dim))
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
		subject := q % len(m.ids)
		entries, norm2, _, _ := m.ix.RFDEntries(subject)
		res := m.topKWeighted(entries, norm2, m.ids[subject], 10)
		if len(res) != 10 {
			t.Fatalf("query %d: %d results", q, len(res))
		}
		wellFormed(tSprintf("topk %d", q), res, 10)
		wellFormed(tSprintf("search %d", q), m.search(tags.MustPost(tags.Tag(q%dim), tags.Tag((q+1)%dim)), 5), 5)
	}
	stop.Store(true)
	wg.Wait()

	state := cloneAll(model)
	for l, g := range m.ids {
		state[g] = m.tv.vecs[l].Clone()
	}
	full := NewOnlineIndex(state, shards)
	assertOwnedPostings(t, "post-quiesce", m, full, owned)
	for subject := 0; subject < n; subject += 5 {
		entries, norm2, _, _ := full.RFDEntries(subject)
		assertIdentical(t, tSprintf("post-quiesce subject %d", subject), m.topKWeighted(entries, norm2, subject, 10), topKWeightedExhaustive(full, entries, norm2, subject, 10, owned))
		q := zipfPost(rng, z, dim)
		assertIdentical(t, tSprintf("post-quiesce search %v", q), m.search(q, 10), searchOwnedExhaustive(full, q, 10, owned))
	}
}

// RFDEntries round-trips the exact live vector: entries in ascending
// tag order, counts and norm matching the index's own view.
func TestRFDEntriesShape(t *testing.T) {
	base := randomIndex(51, 20, 15)
	ix := NewOnlineIndex(cloneAll(base.rfds), 2)
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
// ranking are bit-identical to the two calls, and a twin index driven by
// the two calls ends with the same residency.
func TestSubjectTopKMatchesTwoCalls(t *testing.T) {
	const n, dim, shards, k = 300, 40, 8, 12
	model, rng, _ := zipfModel(17, n, dim, 8)
	tvOne, tvTwo := newTieredVecs(cloneAll(model), shards, false), newTieredVecs(cloneAll(model), shards, false)
	one, two := tvOne.ix, tvTwo.ix
	for id := 0; id < n; id++ {
		if rng.Intn(2) == 0 {
			tvOne.evict(id)
			tvTwo.evict(id)
		}
	}
	var zeroNorm, coldSubjects int
	for subject := 0; subject < n; subject++ {
		if tvOne.cold[subject] {
			coldSubjects++
		}
		wantEntries, wantNorm2, _, wantEpoch := two.RFDEntries(subject)
		want, _ := two.TopKWeighted(wantEntries, wantNorm2, subject, k, nil)
		entries, norm2, got, epoch := one.SubjectTopK(subject, k)
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
	for id := range tvOne.cold {
		if tvOne.cold[id] != tvTwo.cold[id] {
			t.Fatalf("residency of %d diverged: one view cold=%v, two calls cold=%v", id, tvOne.cold[id], tvTwo.cold[id])
		}
	}
	if a, b := tvOne.coldReads.Load(), tvTwo.coldReads.Load(); a == 0 || tvOne.rehydrations.Load()+tvTwo.rehydrations.Load() != 0 {
		t.Fatalf("cold reads: one view %d, two calls %d; queries must read cold subjects and leave them cold", a, b)
	}
	if e, _, top, _ := one.SubjectTopK(n, k); e != nil || top != nil {
		t.Fatal("out-of-range subject returned an answer")
	}
	if e, _, top, _ := one.SubjectTopK(3, 0); e != nil || top != nil {
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
	tv := newTieredVecs(cloneAll(model), shards, false)
	ix := tv.ix

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
				tv.apply(target, zipfPost(wrng, wz, dim))
				if i%64 == 0 {
					tv.evict(subject) // cold exports stream off the record
				}
			}
		}(w)
	}
	var last uint64
	for q := 0; q < 500; q++ {
		entries, norm2, top, epoch := ix.SubjectTopK(subject, 5)
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
