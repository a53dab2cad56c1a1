package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// recordingSub captures every published shard batch and checks the
// view-lock contract as it goes: each PostsApplied(s, …) must arrive
// between ViewLock(s).Lock and Unlock, name only shard s's resources,
// and carry each post's own norm² — checked against a shadow copy of
// every resource's counts that absorbs the posts in delivery order — and
// the counts read back through ViewCounts under that same view must
// match the shadow once the batch is in. Safe for the concurrent
// per-shard invocation the subscriber contract allows.
type recordingSub struct {
	eng     *Engine
	shards  int
	mu      sync.Mutex
	held    map[int]bool // shards whose view is held
	locks   int
	batches [][]PostEvent
	shadow  []*sparse.Counts
	deltas  int
	errs    []string
}

// newRecordingSub builds a recorder for eng; call it before Subscribe,
// since it seeds the shadow counts through SnapshotRFDs.
func newRecordingSub(eng *Engine) *recordingSub {
	return &recordingSub{eng: eng, shards: eng.Shards(), held: map[int]bool{},
		shadow: eng.SnapshotRFDs()}
}

func (r *recordingSub) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *recordingSub) Shards() int { return r.shards }

func (r *recordingSub) ViewLock(shard int) sync.Locker { return subView{r, shard} }

// subView is one shard's view lock as the recorder hands it out.
type subView struct {
	r     *recordingSub
	shard int
}

func (v subView) Lock() {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	if v.r.held[v.shard] {
		v.r.fail("view of shard %d locked while already held", v.shard)
	}
	v.r.held[v.shard] = true
	v.r.locks++
}

func (v subView) Unlock() {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	if !v.r.held[v.shard] {
		v.r.fail("view of shard %d unlocked without Lock", v.shard)
	}
	delete(v.r.held, v.shard)
}

func (r *recordingSub) PostsApplied(shard int, batch []PostEvent, norm2 []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.held[shard] {
		r.fail("PostsApplied(%d) outside its view lock", shard)
	}
	if len(batch) == 0 || len(norm2) != len(batch) {
		r.fail("PostsApplied(%d): %d posts with %d norms", shard, len(batch), len(norm2))
		return
	}
	rec := make([]PostEvent, len(batch))
	for k, ev := range batch {
		if ev.Resource%r.shards != shard {
			r.fail("PostsApplied(%d) carries resource %d of shard %d", shard, ev.Resource, ev.Resource%r.shards)
		}
		c := r.shadow[ev.Resource]
		c.Add(ev.Post)
		if c.Norm2() != norm2[k] {
			r.fail("resource %d post %v: norm² %v, want %v", ev.Resource, ev.Post, norm2[k], c.Norm2())
		}
		rec[k] = PostEvent{Resource: ev.Resource, Post: ev.Post.Clone()}
	}
	for _, ev := range batch {
		if c := r.eng.ViewCounts(ev.Resource); c == nil || !sameCounts(c, r.shadow[ev.Resource]) {
			r.fail("resource %d: the view's counts do not hold the batch", ev.Resource)
		}
	}
	r.batches = append(r.batches, rec)
	r.deltas += len(batch)
}

// sameCounts reports whether a and b hold the same posts and counts.
func sameCounts(a, b *sparse.Counts) bool {
	same := a.Posts() == b.Posts() && a.Len() == b.Len()
	a.ForEach(func(t tags.Tag, n int64) { same = same && b.Get(t) == n })
	return same
}

// check fails the test on any recorded contract violation and on a view
// left held.
func (r *recordingSub) check(t *testing.T) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.errs {
		t.Error(e)
	}
	if len(r.held) != 0 {
		t.Errorf("views still held: %v", r.held)
	}
}

// Every apply path — per-post, single-resource batch, cross-resource
// batch, and recovery replay — publishes each shard's share of a call as
// one batch under one view lock: every post exactly once, in apply
// order, with its own norm². An IngestMany batch holds its shard's
// events in slice order, shards in ascending order. Subscribe(nil)
// detaches.
func TestSubscriberSeesEveryPost(t *testing.T) {
	specs, _ := testSpecs(t, 12, 1)
	eng, err := New(Config{Omega: 3, Shards: 4, UnderThreshold: -1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	sub := newRecordingSub(eng)
	if err := eng.Subscribe(sub); err != nil {
		t.Fatal(err)
	}

	var want [][]PostEvent // the batches, in delivery order
	if err := eng.Ingest(1, tags.MustPost(1, 2)); err != nil {
		t.Fatal(err)
	}
	want = append(want, []PostEvent{{1, tags.MustPost(1, 2)}})
	if err := eng.IngestMany([]PostEvent{{2, tags.MustPost(3)}, {2, tags.MustPost(3, 4)}}); err != nil {
		t.Fatal(err)
	}
	want = append(want, []PostEvent{{2, tags.MustPost(3)}, {2, tags.MustPost(3, 4)}})
	events := []PostEvent{
		{Resource: 11, Post: tags.MustPost(5)},
		{Resource: 5, Post: tags.MustPost(1)},
		{Resource: 6, Post: tags.MustPost(2, 8)},
		{Resource: 1, Post: tags.MustPost(2)},
		{Resource: 5, Post: tags.MustPost(1, 6)},
		{Resource: 2, Post: tags.MustPost(4)},
	}
	if err := eng.IngestMany(events); err != nil {
		t.Fatal(err)
	}
	want = append(want,
		[]PostEvent{events[1], events[3], events[4]}, // shard 1
		[]PostEvent{events[2], events[5]},            // shard 2
		[]PostEvent{events[0]})                       // shard 3
	if err := eng.Replay(7, tags.MustPost(9)); err != nil {
		t.Fatal(err)
	}
	want = append(want, []PostEvent{{7, tags.MustPost(9)}})

	sub.check(t)
	if sub.locks != len(want) || len(sub.batches) != len(want) {
		t.Fatalf("subscriber saw %d batches under %d view locks, want %d of each", len(sub.batches), sub.locks, len(want))
	}
	for b, batch := range want {
		if !slices.EqualFunc(sub.batches[b], batch, func(x, y PostEvent) bool {
			return x.Resource == y.Resource && x.Post.Equal(y.Post)
		}) {
			t.Fatalf("batch %d: %v, want %v", b, sub.batches[b], batch)
		}
	}
	for i, c := range eng.SnapshotRFDs() {
		if !sameCounts(c, sub.shadow[i]) {
			t.Fatalf("resource %d: the published posts do not rebuild its counts", i)
		}
	}

	// Detach: no further posts and no further view locks.
	if err := eng.Subscribe(nil); err != nil {
		t.Fatal(err)
	}
	total, locks := sub.deltas, sub.locks
	if err := eng.Ingest(0, tags.MustPost(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evict(0); err != nil {
		t.Fatal(err)
	}
	if sub.deltas != total || sub.locks != locks {
		t.Fatalf("detached subscriber still notified (%d posts, %d view locks)", sub.deltas-total, sub.locks-locks)
	}
}

// Subscribe refuses a subscriber whose view locks are not the engine's
// shards — one view lock must cover exactly one shard batch — and leaves
// the engine without one.
func TestSubscribeRefusesShardMismatch(t *testing.T) {
	specs, _ := testSpecs(t, 12, 4)
	eng, err := New(Config{Omega: 3, Shards: 4, UnderThreshold: -1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 8} {
		sub := newRecordingSub(eng)
		sub.shards = shards
		if err := eng.Subscribe(sub); err == nil {
			t.Fatalf("a subscriber with %d view shards was attached to a %d-shard engine", shards, eng.Shards())
		}
		if err := eng.IngestMany([]PostEvent{{0, tags.MustPost(1)}, {3, tags.MustPost(2)}}); err != nil {
			t.Fatal(err)
		}
		if sub.locks != 0 || sub.deltas != 0 {
			t.Fatalf("a refused subscriber was notified (%d view locks, %d posts)", sub.locks, sub.deltas)
		}
	}
}

// Residency transitions take the view exactly once each: evicting a hot
// resource swaps in its record under one view lock, evicting a cold one
// takes none, and an ingest into a cold resource takes one view lock for
// the rehydration plus one per shard batch. Between transitions the view
// readers agree with SnapshotRFDs, hot or cold.
func TestSubscriberViewLockPerTransition(t *testing.T) {
	specs, _ := testSpecs(t, 8, 3)
	eng, err := New(Config{Omega: 3, Shards: 2, UnderThreshold: -1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	sub := newRecordingSub(eng)
	if err := eng.Subscribe(sub); err != nil {
		t.Fatal(err)
	}
	const i = 5
	step := func(what string, wantLocks, wantPosts int, fn func() error) {
		t.Helper()
		locks, posts := sub.locks, sub.deltas
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		if sub.locks-locks != wantLocks || sub.deltas-posts != wantPosts {
			t.Fatalf("%s: %d view locks and %d posts, want %d and %d", what, sub.locks-locks, sub.deltas-posts, wantLocks, wantPosts)
		}
		sub.check(t)
		want := eng.SnapshotRFDs()[i]
		got := map[tags.Tag]int64{}
		prev := tags.Tag(-1)
		cold := !eng.Resident(i)
		posts = eng.ViewEntries(i, func(tg tags.Tag, n int64) {
			if cold && tg <= prev {
				t.Fatalf("%s: cold record streamed tag %d after %d", what, tg, prev)
			}
			prev = tg
			got[tg] = n
		})
		if (eng.ViewCounts(i) == nil) != cold || posts != want.Posts() || len(got) != want.Len() {
			t.Fatalf("%s: view reads %d entries, %d posts (cold %v), want %d, %d", what, len(got), posts, cold, want.Len(), want.Posts())
		}
		for tg, n := range got {
			if want.Get(tg) != n {
				t.Fatalf("%s: tag %d count %d, want %d", what, tg, n, want.Get(tg))
			}
		}
	}
	evict := func() error { _, err := eng.Evict(i); return err }
	step("evict hot", 1, 0, evict)
	step("evict cold", 0, 0, evict)
	step("ingest cold", 2, 1, func() error { return eng.Ingest(i, tags.MustPost(1, 3)) })
	step("ingest hot", 1, 1, func() error { return eng.Ingest(i, tags.MustPost(3)) })
	step("evict hot again", 1, 0, evict)
	step("batch into cold", 1+1, 3, func() error {
		return eng.IngestMany([]PostEvent{{i, tags.MustPost(2)}, {i, tags.MustPost(2, 4)}, {i, tags.MustPost(7)}})
	})
	step("evict before many", 1, 0, evict)
	// Shard 1 (resources 5 and 7) and shard 0 (resource 2): one
	// rehydration, then one batch per shard.
	step("many into cold", 1+2, 4, func() error {
		return eng.IngestMany([]PostEvent{{i, tags.MustPost(1)}, {2, tags.MustPost(2)}, {7, tags.MustPost(3)}, {i, tags.MustPost(1, 9)}})
	})
	step("evict before ensure", 1, 0, evict)
	step("ensure resident", 1, 0, func() error { return eng.ensureResident(i) })
}

// Concurrent ingest with a subscriber attached — single posts and
// cross-shard IngestMany batches — must stay race-free, lose no posts
// and keep every view lock to one shard batch (the hook runs under the
// shard lock).
func TestSubscriberConcurrentIngest(t *testing.T) {
	specs, _ := testSpecs(t, 32, 2)
	eng, err := New(Config{Omega: 3, Shards: 8, UnderThreshold: -1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	sub := newRecordingSub(eng)
	if err := eng.Subscribe(sub); err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			posted := 0
			for k := 0; k < perWorker; k++ {
				i := (w + k*workers) % eng.N()
				p := tags.MustPost(tags.Tag(k % 7))
				var err error
				if k%3 == 0 {
					events := []PostEvent{{i, p}, {(i + 1) % eng.N(), p}, {(i + 9) % eng.N(), p}, {i, p}}
					err, posted = eng.IngestMany(events), posted+len(events)
				} else {
					err, posted = eng.Ingest(i, p), posted+1
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
			mu.Lock()
			total += posted
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	sub.check(t)
	if sub.deltas != total || sub.locks != len(sub.batches) {
		t.Fatalf("subscriber saw %d posts in %d batches under %d view locks, want %d posts and a lock per batch",
			sub.deltas, len(sub.batches), sub.locks, total)
	}
	if m := eng.Snapshot(); m.Posts != total {
		t.Fatalf("engine ingested %d posts, want %d", m.Posts, total)
	}
	for i, c := range eng.SnapshotRFDs() {
		if !sameCounts(c, sub.shadow[i]) {
			t.Fatalf("resource %d: the published posts do not rebuild its counts", i)
		}
	}
}
