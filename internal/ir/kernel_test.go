package ir

import (
	"math"
	"math/rand"
	"testing"

	"incentivetag/internal/tags"
)

// A seeded stream of bumps and first-touch appends against a naive
// map[int32]int32, checked after every step: the list holds each id once,
// in first-touch order, with the model's count, and keeps its id→slot
// index exactly when it is longer than scanMax. ids outnumber three
// times scanMax, so the stream crosses the moment the index is built.
func TestPostingListModel(t *testing.T) {
	const ids = 3*scanMax + 40
	run := func(t *testing.T, seed int64, pl *postingList, model map[int32]int32, order []int32, bumps int) {
		check := func(step int) {
			t.Helper()
			if len(pl.entries) != len(order) {
				t.Fatalf("step %d: %d entries for %d model ids", step, len(pl.entries), len(order))
			}
			for i, e := range pl.entries {
				if e.id != order[i] || e.count != model[e.id] {
					t.Fatalf("step %d entry %d: (%d, %d), model (%d, %d)", step, i, e.id, e.count, order[i], model[order[i]])
				}
				if pl.find(e.id) != i {
					t.Fatalf("step %d: find(%d) = %d, entry sits at %d", step, e.id, pl.find(e.id), i)
				}
			}
			if indexed := pl.slot != nil; indexed != (len(pl.entries) > scanMax) || (indexed && len(pl.slot) != len(pl.entries)) {
				t.Fatalf("step %d: %d entries with a %d-id slot index (nil: %v)", step, len(pl.entries), len(pl.slot), pl.slot == nil)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		z := rand.NewZipf(rng, 1.1, 4, ids-1)
		check(-1)
		for step := 0; step < bumps; step++ {
			id := int32(z.Uint64())
			if step%3 == 0 {
				id = int32(rng.Intn(ids)) // uniform draws fill the tail
			}
			_, known := model[id]
			if !known {
				order = append(order, id)
			}
			model[id]++
			if appended := pl.bump(id); appended == known {
				t.Fatalf("step %d: bump(%d) appended=%v for a known=%v id", step, id, appended, known)
			}
			check(step)
		}
		if len(pl.entries) <= 2*scanMax {
			t.Fatalf("stream left %d entries: never far past the slot index threshold", len(pl.entries))
		}
	}

	t.Run("grown", func(t *testing.T) {
		run(t, 1, &postingList{}, map[int32]int32{}, nil, 6000)
	})
	t.Run("seeded", func(t *testing.T) {
		// Constructor appends must leave a list bump can continue from, on
		// both sides of the slot index threshold.
		for _, seedIDs := range []int{scanMax - 3, 2*scanMax + 7} {
			rng := rand.New(rand.NewSource(int64(seedIDs)))
			model, order, pl := map[int32]int32{}, []int32(nil), &postingList{}
			for _, id := range rng.Perm(ids)[:seedIDs] {
				c := int32(1 + rng.Intn(4))
				model[int32(id)] = c
				order = append(order, int32(id))
				pl.add(int32(id), int64(c))
			}
			run(t, int64(seedIDs)+1, pl, model, order, 4000)
		}
	})
	t.Run("overflow", func(t *testing.T) {
		mustPanic := func(what string, f func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", what)
				}
			}()
			f()
		}
		pl := &postingList{}
		mustPanic("a count past int32", func() { pl.add(1, math.MaxInt32+1) })
		mustPanic("a zero count", func() { pl.add(1, 0) })
		pl.add(2, math.MaxInt32)
		mustPanic("a bump past int32", func() { pl.bump(2) })
		if e := pl.entries[len(pl.entries)-1]; e.id != 2 || e.count != math.MaxInt32 {
			t.Fatalf("the overflowing bump left %+v", e)
		}
	})
}

// BenchmarkApply is the write path's index share: ns/op is ns per post
// on a seeded index whose posting lists have the skew of a real tagging
// corpus (a few long head lists, a long tail of short ones).
func BenchmarkApply(b *testing.B) {
	const n, dim = 5000, 20000
	model, rng, z := zipfModel(5, n, dim, 20)
	online := NewOnlineIndex(model, 8)
	const mask = 1<<16 - 1
	ids := make([]int, mask+1)
	posts := make([]tags.Post, mask+1)
	for i := range posts {
		ids[i], posts[i] = rng.Intn(n), zipfPost(rng, z, dim)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		online.Apply(ids[i&mask], posts[i&mask])
	}
}
