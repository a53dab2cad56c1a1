package engine

import (
	"fmt"
	"sync"
	"testing"

	"incentivetag/internal/tags"
)

// recordingSub captures every published post and checks the view-lock
// contract as it goes: each PostApplied(i, …) must arrive between
// Lock(i) and Unlock(i) and carry i's absolute norm², read back through
// ViewCounts under that same view. Safe for the concurrent per-shard
// invocation the subscriber contract allows.
type recordingSub struct {
	eng    *Engine
	mu     sync.Mutex
	held   map[int]bool
	locks  int
	posts  map[int][]tags.Post
	norm2  map[int]float64
	deltas int
	errs   []string
}

func newRecordingSub(eng *Engine) *recordingSub {
	return &recordingSub{eng: eng, held: map[int]bool{}, posts: map[int][]tags.Post{}, norm2: map[int]float64{}}
}

func (r *recordingSub) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *recordingSub) Lock(resource int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.held[resource] {
		r.fail("Lock(%d) while its view is already held", resource)
	}
	r.held[resource] = true
	r.locks++
}

func (r *recordingSub) Unlock(resource int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.held[resource] {
		r.fail("Unlock(%d) without Lock", resource)
	}
	delete(r.held, resource)
}

func (r *recordingSub) PostApplied(resource int, p tags.Post, norm2 float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.held[resource] {
		r.fail("PostApplied(%d) outside Lock/Unlock", resource)
	}
	if c := r.eng.ViewCounts(resource); c == nil || c.Norm2() != norm2 {
		r.fail("PostApplied(%d) norm² %v does not match the view's counts", resource, norm2)
	}
	r.posts[resource] = append(r.posts[resource], p.Clone())
	r.norm2[resource] = norm2
	r.deltas++
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

// Every ingest path — per-post, single-resource batch, cross-resource
// batch, and recovery replay — must publish each applied post exactly
// once, under its resource's view lock, in per-resource apply order,
// with the resource's absolute norm²; Subscribe(nil) detaches.
func TestSubscriberSeesEveryPost(t *testing.T) {
	specs, _ := testSpecs(t, 12, 1)
	eng, err := New(Config{Omega: 3, Shards: 4, UnderThreshold: -1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	sub := newRecordingSub(eng)
	eng.Subscribe(sub)

	want := map[int][]tags.Post{}
	add := func(i int, p tags.Post) { want[i] = append(want[i], p) }

	if err := eng.Ingest(1, tags.MustPost(1, 2)); err != nil {
		t.Fatal(err)
	}
	add(1, tags.MustPost(1, 2))
	if err := eng.IngestBatch(2, []tags.Post{tags.MustPost(3), tags.MustPost(3, 4)}); err != nil {
		t.Fatal(err)
	}
	add(2, tags.MustPost(3))
	add(2, tags.MustPost(3, 4))
	events := []PostEvent{
		{Resource: 5, Post: tags.MustPost(1)},
		{Resource: 1, Post: tags.MustPost(2)},
		{Resource: 5, Post: tags.MustPost(1, 6)},
	}
	if err := eng.IngestMany(events); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		add(ev.Resource, ev.Post)
	}
	if err := eng.Replay(7, tags.MustPost(9)); err != nil {
		t.Fatal(err)
	}
	add(7, tags.MustPost(9))

	sub.check(t)
	total := 1 + 2 + len(events) + 1
	if sub.deltas != total || sub.locks != total {
		t.Fatalf("subscriber saw %d posts under %d view locks, want %d of each", sub.deltas, sub.locks, total)
	}
	for i, ps := range want {
		got := sub.posts[i]
		if len(got) != len(ps) {
			t.Fatalf("resource %d: %d posts, want %d", i, len(got), len(ps))
		}
		for k := range ps {
			if !got[k].Equal(ps[k]) {
				t.Fatalf("resource %d post %d: %v, want %v (order violated?)", i, k, got[k], ps[k])
			}
		}
		if after := eng.SnapshotRFDs()[i].Norm2(); sub.norm2[i] != after {
			t.Fatalf("resource %d: last published norm² %v, want %v", i, sub.norm2[i], after)
		}
	}

	// Detach: no further posts and no further view locks.
	eng.Subscribe(nil)
	if err := eng.Ingest(0, tags.MustPost(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evict(0); err != nil {
		t.Fatal(err)
	}
	if sub.deltas != total || sub.locks != total {
		t.Fatalf("detached subscriber still notified (%d posts, %d view locks)", sub.deltas, sub.locks)
	}
}

// Residency transitions take the view exactly once each: evicting a hot
// resource swaps in its record under one Lock/Unlock pair, evicting a
// cold one takes none, and an ingest into a cold resource takes one pair
// for the rehydration plus one per applied post. Between transitions the
// view readers agree with SnapshotRFDs, hot or cold.
func TestSubscriberViewLockPerTransition(t *testing.T) {
	specs, _ := testSpecs(t, 8, 3)
	eng, err := New(Config{Omega: 3, Shards: 2, UnderThreshold: -1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	sub := newRecordingSub(eng)
	eng.Subscribe(sub)
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
	step("batch into cold", 1+3, 3, func() error {
		return eng.IngestBatch(i, []tags.Post{tags.MustPost(2), tags.MustPost(2, 4), tags.MustPost(7)})
	})
	step("evict before ensure", 1, 0, evict)
	step("ensure resident", 1, 0, func() error { return eng.EnsureResident(i) })
}

// Concurrent ingest with a subscriber attached must stay race-free and
// lose no posts (the hook runs under the shard lock).
func TestSubscriberConcurrentIngest(t *testing.T) {
	specs, _ := testSpecs(t, 32, 2)
	eng, err := New(Config{Omega: 3, Shards: 8, UnderThreshold: -1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	sub := newRecordingSub(eng)
	eng.Subscribe(sub)

	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				i := (w + k*workers) % eng.N()
				var err error
				if k%3 == 0 {
					err = eng.IngestMany([]PostEvent{{Resource: i, Post: tags.MustPost(tags.Tag(k % 7))}})
				} else {
					err = eng.Ingest(i, tags.MustPost(tags.Tag(k%7)))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	sub.check(t)
	if sub.deltas != workers*perWorker {
		t.Fatalf("subscriber saw %d posts, want %d", sub.deltas, workers*perWorker)
	}
	if m := eng.Snapshot(); m.Posts != workers*perWorker {
		t.Fatalf("engine ingested %d posts, want %d", m.Posts, workers*perWorker)
	}
}
