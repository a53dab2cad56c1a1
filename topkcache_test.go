package incentivetag

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incentivetag/internal/ir"
	"incentivetag/internal/tags"
)

// oracleTopK is a cold rebuild's answer over the service's own counts,
// restricted to the owned resources (nil owns all) the way a cluster
// member ranks: the full ranking with the others dropped.
func oracleTopK(svc *Service, owned func(int) bool, subject, k int) []Scored {
	ix := ir.BuildInverted(svc.SnapshotRFDs())
	if owned == nil {
		return ix.TopK(subject, k)
	}
	out := []Scored{}
	for _, s := range ix.TopK(subject, ix.N()) {
		if owned(s.ID) && len(out) < k {
			out = append(out, s)
		}
	}
	return out
}

// cacheDelta is how a QueryStats moved: the cache's three answers and
// the executor runs.
type cacheDelta struct{ serves, reranks, rebuilds, executed uint64 }

func deltaOf(a, b QueryStats) cacheDelta {
	return cacheDelta{
		serves:   b.CacheServes - a.CacheServes,
		reranks:  b.CacheReranks - a.CacheReranks,
		rebuilds: b.CacheRebuilds - a.CacheRebuilds,
		executed: (b.CacheMisses - b.CacheRebuilds) - (a.CacheMisses - a.CacheRebuilds),
	}
}

// absentTag returns a tag the resource has never been posted.
func absentTag(svc *Service, resource int) Tag {
	c := svc.SnapshotRFDs()[resource]
	for x := Tag(0); ; x++ {
		if c.Get(x) == 0 {
			return x
		}
	}
}

// The cache's decision table, one cause at a time on one subject: a
// repeat at the same epoch is served; a repeat after a post builds the
// subject's row; a post that cannot change the answer leaves it served;
// a post to an answer member reranks the row, as does another k; a post
// to the subject, a post longer than a log slot and a window longer than
// the write log rebuild it. Every answer equals a cold rebuild, a
// returned slice is the caller's own, and TopKQueries counts every
// answer.
func TestResultCacheUnit(t *testing.T) {
	svc, err := NewService(testDS(t), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const s = 1
	x := absentTag(svc, s)
	prev := svc.QueryStats()
	var last []Scored
	query := func(ctx string, k int, want cacheDelta) {
		t.Helper()
		res, _, err := svc.TopK(s, k)
		if err != nil {
			t.Fatal(err)
		}
		assertScoredEqual(t, ctx, res, oracleTopK(svc, nil, s, k))
		st := svc.QueryStats()
		if got := deltaOf(prev, st); got != want {
			t.Fatalf("%s: cache moved %+v, want %+v", ctx, got, want)
		}
		if st.TopKQueries != prev.TopKQueries+1 {
			t.Fatalf("%s: TopKQueries %d -> %d", ctx, prev.TopKQueries, st.TopKQueries)
		}
		prev, last = st, append([]Scored(nil), res...)
		res[0] = Scored{ID: -1, Score: 42} // the cache must not see this
	}
	ingest := func(resource int, p Post) {
		t.Helper()
		if err := svc.Ingest(resource, p); err != nil {
			t.Fatal(err)
		}
	}
	outsider := func() int {
		for r := 0; ; r++ {
			if r != s && !slices.ContainsFunc(last, func(a Scored) bool { return a.ID == r }) {
				return r
			}
		}
	}

	query("first", 10, cacheDelta{executed: 1})
	query("repeat", 10, cacheDelta{serves: 1})
	query("repeat after a caller mutation", 10, cacheDelta{serves: 1})
	ingest(outsider(), tags.MustPost(x))
	query("requeried after a post", 10, cacheDelta{rebuilds: 1})
	ingest(outsider(), tags.MustPost(x))
	query("outsider post off the subject's tags", 10, cacheDelta{serves: 1})
	ingest(last[0].ID, tags.MustPost(x))
	query("answer member posted", 10, cacheDelta{reranks: 1})
	query("another k", 3, cacheDelta{reranks: 1})
	query("another k repeated", 3, cacheDelta{serves: 1})
	ingest(s, tags.MustPost(x))
	query("subject posted", 3, cacheDelta{rebuilds: 1})
	long := make([]Tag, 20) // longer than a write-log slot
	for i := range long {
		long[i] = Tag(i)
	}
	ingest(outsider(), tags.MustPost(long...))
	query("post longer than a slot", 3, cacheDelta{rebuilds: 1})
	burst := make([]PostEvent, 2000) // more posts than the write log holds
	for i := range burst {
		burst[i] = PostEvent{Resource: outsider(), Post: tags.MustPost(x)}
	}
	if err := svc.IngestMany(burst); err != nil {
		t.Fatal(err)
	}
	query("window longer than the log", 3, cacheDelta{rebuilds: 1})
}

// Service-level contract: repeats on a quiet index are served
// bit-identically at the same epoch without running the executor; a
// different k is its own answer, not a truncation; a post the answer
// cannot feel leaves it served at the new epoch, bit-identical to a cold
// rebuild; and QueryStats adds the cache up: hits are serves plus
// reranks, misses are executor runs plus rebuilds.
func TestServiceResultCache(t *testing.T) {
	svc, err := NewService(testDS(t), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	first, epoch1, err := svc.TopK(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	st := svc.QueryStats()
	if st.CacheMisses != 1 || st.CacheEntries != 1 || st.CandidatesScored == 0 {
		t.Fatalf("first query did not run the executor into an entry: %+v", st)
	}
	scored := st.CandidatesScored
	second, epoch2, err := svc.TopK(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	assertScoredEqual(t, "cache hit", second, first)
	if epoch2 != epoch1 {
		t.Fatalf("cached answer changed epoch: %d vs %d", epoch2, epoch1)
	}
	if st = svc.QueryStats(); st.CacheHits != 1 || st.CandidatesScored != scored {
		t.Fatalf("repeat query was not served from the cache: %+v", st)
	}
	k3, _, err := svc.TopK(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertScoredEqual(t, "distinct k", k3, first[:3])

	// A post that moves the epoch: the subject's next query builds its
	// row; a post it cannot feel after that is served at the new epoch.
	if err := svc.Ingest(2, tags.MustPost(1, 2)); err != nil {
		t.Fatal(err)
	}
	fresh, epoch3, err := svc.TopK(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if epoch3 == epoch1 {
		t.Fatal("epoch did not advance across ingest")
	}
	assertScoredEqual(t, "post-ingest", fresh, oracleTopK(svc, nil, 1, 10))
	far := svc.N() - 1 // an outsider: neither the subject nor in the answer
	for slices.ContainsFunc(fresh, func(a Scored) bool { return a.ID == far }) {
		far--
	}
	if err := svc.Ingest(far, tags.MustPost(absentTag(svc, 1))); err != nil {
		t.Fatal(err)
	}
	before := svc.QueryStats()
	kept, epoch4, err := svc.TopK(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if epoch4 != epoch3+1 {
		t.Fatalf("epoch %d, want %d", epoch4, epoch3+1)
	}
	assertScoredEqual(t, "served across an unfelt post", kept, fresh)
	assertScoredEqual(t, "served vs rebuild", kept, oracleTopK(svc, nil, 1, 10))
	if d := deltaOf(before, svc.QueryStats()); d != (cacheDelta{serves: 1}) {
		t.Fatalf("unfelt post: cache moved %+v, want one serve", d)
	}
	st = svc.QueryStats()
	if st.CacheHits != st.CacheServes+st.CacheReranks || st.CacheRebuilds == 0 || st.CacheMisses <= st.CacheRebuilds {
		t.Fatalf("cache counters do not add up: %+v", st)
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

// layerPosts posts to resource until its counts reach want: post j holds
// every tag still short by more than j.
func layerPosts(t *testing.T, svc *Service, resource int, want map[Tag]int64) {
	t.Helper()
	have := svc.SnapshotRFDs()[resource]
	for j := int64(0); ; j++ {
		var p []Tag
		for tg, n := range want {
			if n-have.Get(tg) > j {
				p = append(p, tg)
			}
		}
		if len(p) == 0 {
			return
		}
		if err := svc.Ingest(resource, tags.MustPost(p...)); err != nil {
			t.Fatal(err)
		}
	}
}

// tieUp prepares an outsider r to rise to an exact tie with the kth
// entry m of subject s's answer. It posts to m and r until m's counts
// are V and r's are V minus one count of x, a tag of the subject's
// chosen so that r still ranks below m, and returns the k at which m is
// the kth entry. One more post of x to r then gives r m's counts: the
// same dot, the same norm, the same score bits.
func tieUp(t *testing.T, svc *Service, owned func(int) bool, s, m, r int) (k int, x Tag) {
	t.Helper()
	rfds := svc.SnapshotRFDs()
	cs, cm, cr := rfds[s], rfds[m], rfds[r]
	score := func(dot, n2 float64) float64 { return dot / (math.Sqrt(cs.Norm2()) * math.Sqrt(n2)) }
	found := false
	var v map[Tag]int64
	for _, x = range cs.Support() {
		v = map[Tag]int64{}
		for _, c := range []*Counts{cm, cr} {
			c.ForEach(func(tg Tag, n int64) { v[tg] = max(v[tg], n) })
		}
		v[x]++
		var dot, n2 float64
		for tg, n := range v {
			dot += float64(cs.Get(tg) * n)
			n2 += float64(n * n)
		}
		if score(dot-float64(cs.Get(x)), n2-float64(2*v[x]-1)) < score(dot, n2) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no tag of subject %d keeps %d below %d", s, r, m)
	}
	layerPosts(t, svc, m, v)
	v[x]--
	layerPosts(t, svc, r, v)
	full := oracleTopK(svc, owned, s, svc.N())
	pos := map[int]int{}
	for i, a := range full {
		pos[a.ID] = i
	}
	if pos[r] <= pos[m] {
		t.Fatalf("tie set-up: %d ranks at %d, not below %d at %d", r, pos[r], m, pos[m])
	}
	return pos[m] + 1, x
}

// Every Service.TopK answer equals a cold rebuild of the service's own
// counts, bit for bit, across random interleavings of queries on a few
// hot subjects at k ∈ {1, 3, 10, n+2} with posts to a subject, to members
// of its answer, to outsiders, posts longer than a log slot, IngestMany
// batches mixing all three (each shard's share reserves its epochs at
// once, and folds read them back post by post), and bursts longer than
// the write log — on a plain node, a tiered one whose policy
// pass leaves subjects and touched resources cold (and queries must not
// rehydrate them), and a cluster member with an owned set, whose posts
// all go to resources it owns, as the gateway routes them, and which
// refuses the one post to a resource it does not own. Each node also has
// an outsider rise to an exact tie with the kth entry, once from below
// it by id (the answer changes: rerank) and once from above (it stands:
// serve).
func TestTopKCacheMatchesRebuild(t *testing.T) {
	ds := testDS(t)
	for _, tc := range []struct {
		name  string
		opts  ServiceOptions
		owned func(int) bool
	}{
		{name: "plain"},
		{name: "tiered", opts: ServiceOptions{MaxResidentResources: 12, TierInterval: -1}},
		{name: "owned", owned: func(i int) bool { return i%3 != 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Owned = tc.owned
			svc, err := NewService(ds, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			n := svc.N()
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			hot := []int{3, 18, 42, 99}
			ks := []int{1, 3, 10, n + 2}
			var pool []Tag // the hot subjects' tags, so posts overlap them
			for _, s := range hot {
				pool = append(pool, svc.SnapshotRFDs()[s].Support()...)
			}
			post := func(m int) Post {
				ts := make([]Tag, m)
				for i := range ts {
					if rng.Intn(4) == 0 {
						ts[i] = Tag(rng.Intn(ds.Vocab.Size()))
					} else {
						ts[i] = pool[rng.Intn(len(pool))]
					}
				}
				return tags.MustPost(ts...)
			}
			ingest := func(r int, p Post) {
				if err := svc.Ingest(r, p); err != nil {
					t.Fatal(err)
				}
			}
			// outsider draws a resource the node holds: any on a plain
			// node, an owned one on a member.
			outsider := func() int {
				for {
					if r := rng.Intn(n); tc.owned == nil || tc.owned(r) {
						return r
					}
				}
			}
			if tc.owned != nil {
				stray := 1 // i%3 == 1: another member's
				before := svc.QueryStats().Epoch
				if err := svc.Ingest(stray, post(2)); !errors.Is(err, ErrResourceRange) {
					t.Fatalf("ingest to non-owned %d: %v, want ErrResourceRange", stray, err)
				}
				if after := svc.QueryStats().Epoch; after != before || svc.Snapshot().Posts != 0 {
					t.Fatalf("a refused post moved the node: epoch %d→%d, %d posts", before, after, svc.Snapshot().Posts)
				}
			}
			last := map[int][]Scored{}
			query := func(ctx string, s, k int) []Scored {
				t.Helper()
				res, _, err := svc.TopK(s, k)
				if err != nil {
					t.Fatal(err)
				}
				assertScoredEqual(t, ctx, res, oracleTopK(svc, tc.owned, s, k))
				last[s] = res
				return res
			}
			for step := 0; step < 300; step++ {
				s := hot[rng.Intn(len(hot))]
				switch op := rng.Intn(12); {
				case op < 5:
					query(fmt.Sprintf("step %d subject %d", step, s), s, ks[rng.Intn(len(ks))])
				case op == 5:
					ingest(s, post(1+rng.Intn(3)))
				case op == 6 && len(last[s]) > 0:
					ingest(last[s][rng.Intn(len(last[s]))].ID, post(1+rng.Intn(3)))
				case op == 7 || op == 8:
					ingest(outsider(), post(1+rng.Intn(3)))
				case op == 9:
					ingest(outsider(), post(16+rng.Intn(8)))
				case op == 11: // one IngestMany across shards: the subject, its answer, outsiders
					batch := make([]PostEvent, 2+rng.Intn(12))
					for i := range batch {
						r := outsider()
						if x := rng.Intn(4); x == 0 {
							r = s
						} else if x == 1 && len(last[s]) > 0 {
							r = last[s][rng.Intn(len(last[s]))].ID
						}
						batch[i] = PostEvent{Resource: r, Post: post(1 + rng.Intn(3))}
					}
					if err := svc.IngestMany(batch); err != nil {
						t.Fatal(err)
					}
				case op == 10 && tc.opts.MaxResidentResources > 0:
					if _, err := svc.TierNow(); err != nil {
						t.Fatal(err)
					}
					cold := svc.Residency()
					for _, h := range hot {
						query(fmt.Sprintf("step %d cold subject %d", step, h), h, ks[rng.Intn(len(ks))])
					}
					if after := svc.Residency(); after.Rehydrations != cold.Rehydrations || cold.Cold == 0 {
						t.Fatalf("step %d: queries rehydrated %d resources (%d cold)", step, after.Rehydrations-cold.Rehydrations, cold.Cold)
					}
				}
				if step%100 == 99 { // a window longer than the write log
					burst := make([]PostEvent, 1500)
					for i := range burst {
						burst[i] = PostEvent{Resource: outsider(), Post: post(1)}
					}
					if err := svc.IngestMany(burst); err != nil {
						t.Fatal(err)
					}
				}
			}

			// The exact tie, from below and from above the kth entry by id.
			s := hot[0]
			var members []int
			for i := 0; i < n; i++ {
				if i != s && (tc.owned == nil || tc.owned(i)) {
					members = append(members, i)
				}
			}
			for _, below := range []bool{true, false} {
				m, r := members[1], members[len(members)-2] // r above m by id
				if below {
					m, r = members[len(members)-1], members[0]
				}
				k, x := tieUp(t, svc, tc.owned, s, m, r)
				query("tie set-up", s, k+1)
				query("tie set-up row", s, k)
				before := svc.QueryStats()
				ingest(r, tags.MustPost(x))
				res := query(fmt.Sprintf("tie below=%v", below), s, k)
				want := cacheDelta{serves: 1}
				if below {
					want = cacheDelta{reranks: 1}
				}
				if d := deltaOf(before, svc.QueryStats()); d != want {
					t.Fatalf("tie below=%v: cache moved %+v, want %+v", below, d, want)
				}
				if kth := res[k-1]; (below && kth.ID != r) || (!below && kth.ID != m) {
					t.Fatalf("tie below=%v: kth entry %+v, want %d", below, kth, map[bool]int{true: r, false: m}[below])
				}
			}
			st := svc.QueryStats()
			if st.CacheServes == 0 || st.CacheReranks == 0 || st.CacheRebuilds == 0 {
				t.Fatalf("the interleaving missed a cache path: %+v", st)
			}
		})
	}
}

// Rows under contention, for -race: a writer per engine shard posts to
// that shard's resources — the hot subjects included — while readers
// hammer three hot subjects, so the same rows are folded, reranked and
// rebuilt from several goroutines at once. Every answer stays
// well-formed and, once the writers stop, exact.
func TestTopKCacheRowsContended(t *testing.T) {
	ds := testDS(t)
	const shards = 4
	svc, err := NewService(ds, ServiceOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	n := svc.N()
	hot := []int{0, 1, 2}
	var pool []Tag
	for _, s := range hot {
		pool = append(pool, svc.SnapshotRFDs()[s].Support()...)
	}
	// Both sides keep going past their quota until a row has been folded
	// and one rebuilt (or a deadline passes): when the writers outran
	// the readers, every query after the last write found nothing left
	// to fold.
	deadline := time.Now().Add(10 * time.Second)
	settled := func() bool {
		st := svc.QueryStats()
		return (st.CacheReranks > 0 && st.CacheRebuilds > 0) || time.Now().After(deadline)
	}
	var stop atomic.Bool
	var writers sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		writers.Add(1)
		go func(sh int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(sh)))
			for i := 0; (i < 3000 || !settled()) && !stop.Load(); i++ {
				r := sh + shards*rng.Intn((n-sh+shards-1)/shards)
				if err := svc.Ingest(r, tags.MustPost(pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])); err != nil {
					t.Error(err)
					return
				}
			}
		}(sh)
	}
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			var lastEpoch uint64
			for q := 0; q < 300 || !settled(); q++ {
				res, epoch, err := svc.TopK(hot[(w+q)%len(hot)], 10)
				if err != nil || len(res) != 10 || epoch < lastEpoch {
					t.Errorf("reader %d query %d: %d results at epoch %d after %d: %v", w, q, len(res), epoch, lastEpoch, err)
					return
				}
				lastEpoch = epoch
				for i := 1; i < len(res); i++ {
					if res[i].Score > res[i-1].Score || (res[i].Score == res[i-1].Score && res[i].ID < res[i-1].ID) {
						t.Errorf("reader %d query %d: order broken at %d: %+v %+v", w, q, i, res[i-1], res[i])
						return
					}
				}
			}
		}(w)
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	for _, k := range []int{10, 3} {
		assertQueryOracle(t, svc, hot, k)
	}
	if st := svc.QueryStats(); st.CacheReranks == 0 || st.CacheRebuilds == 0 {
		t.Fatalf("rows were not folded and rebuilt: %+v", st)
	}
}
