package ir

import (
	"math/rand"
	"sort"
	"testing"

	"incentivetag/internal/tags"
)

// listModel is the naive reference a bmList is held to: id → count, plus
// each id's squared norm (which only ever grows, as a resource's does).
type listModel struct {
	count map[int32]int32
	norms []float64
}

// bump applies one +1 to the model and returns the id's norm² after it:
// the count's own c² → (c+1)² step plus growth from "other tags".
func (m *listModel) bump(rng *rand.Rand, id int32) float64 {
	c := m.count[id]
	m.count[id] = c + 1
	m.norms[id] += float64(2*c+1) + float64(rng.Intn(3))
	return m.norms[id]
}

// check holds the list to the model and to every structural invariant
// the query executor and the next bump rely on.
func (m *listModel) check(t *testing.T, step int, pl *bmList) {
	t.Helper()
	if len(pl.entries) != len(m.count) {
		t.Fatalf("step %d: %d entries for %d model ids", step, len(pl.entries), len(m.count))
	}
	want := make([]int32, 0, len(m.count))
	for _, c := range m.count {
		want = append(want, c)
	}
	sort.Slice(want, func(a, b int) bool { return want[a] > want[b] })
	if nb := (len(pl.entries) + blockSize - 1) / blockSize; len(pl.blockImpact) != nb {
		t.Fatalf("step %d: %d block bounds for %d blocks", step, len(pl.blockImpact), nb)
	}
	for i, e := range pl.entries {
		if e.count != m.count[e.id] {
			t.Fatalf("step %d entry %d: id %d count %d, model %d", step, i, e.id, e.count, m.count[e.id])
		}
		if e.count != want[i] {
			t.Fatalf("step %d entry %d: count %d breaks the descending order (sorted model has %d)", step, i, e.count, want[i])
		}
		blk := pl.blockImpact[i/blockSize]
		if imp := impactBound(int64(e.count), m.norms[e.id]); blk < imp {
			t.Fatalf("step %d entry %d: block bound %v < current impact %v", step, i, blk, imp)
		}
		if pl.maxImpact < blk {
			t.Fatalf("step %d block %d: list max %v < block bound %v", step, i/blockSize, pl.maxImpact, blk)
		}
	}
	if rowMax := pl.row.maxImpact(); rowMax < pl.maxImpact {
		t.Fatalf("step %d: row max %v < list max %v", step, rowMax, pl.maxImpact)
	}
	if n := pl.row.slots[pl.shard].n; int(n) != len(pl.entries) {
		t.Fatalf("step %d: row slot advertises %d entries, list has %d", step, n, len(pl.entries))
	}
	if len(pl.entries) <= blockSize {
		if pl.slot != nil {
			t.Fatalf("step %d: a %d-entry list carries a slot index", step, len(pl.entries))
		}
		return
	}
	if len(pl.slot) != len(pl.entries) {
		t.Fatalf("step %d: slot index holds %d ids for %d entries", step, len(pl.slot), len(pl.entries))
	}
	for i, e := range pl.entries {
		if got, ok := pl.slot[e.id]; !ok || int(got) != i {
			t.Fatalf("step %d: slot[%d] = %d,%v, entry sits at %d", step, e.id, got, ok, i)
		}
	}
}

// A seeded random bump stream against the naive model, checked after
// every bump. ids outnumber three blocks, so the stream crosses the
// moment the slot index is built and exercises the cross-block swap; the
// skewed draw keeps long equal-count runs (the tail of 1s) next to a few
// tall heads, which is what the run-head binary search has to get right.
func TestPostingListModel(t *testing.T) {
	const ids = 3*blockSize + 40
	newList := func() *bmList {
		row := &dirRow{slots: make([]rowSlot, 1)}
		pl := &bmList{row: row}
		row.slots[0].pl = pl
		return pl
	}
	run := func(t *testing.T, seed int64, pl *bmList, m *listModel, bumps int) {
		rng := rand.New(rand.NewSource(seed))
		z := rand.NewZipf(rng, 1.1, 4, ids-1)
		m.check(t, -1, pl)
		crossBlock := 0
		for step := 0; step < bumps; step++ {
			id := int32(z.Uint64())
			if step%3 == 0 {
				id = int32(rng.Intn(ids)) // uniform draws fill the tail
			}
			before := pl.find(id)
			_, known := m.count[id]
			appended := pl.bumpOne(id, m.bump(rng, id), m.norms)
			if appended == known {
				t.Fatalf("step %d: bumpOne(%d) appended=%v for a known=%v id", step, id, appended, known)
			}
			if before >= 0 && int(before)/blockSize != int(pl.find(id))/blockSize {
				crossBlock++
			}
			m.check(t, step, pl)
		}
		if len(pl.entries) <= 2*blockSize {
			t.Fatalf("stream left %d entries: fewer than three blocks", len(pl.entries))
		}
		if crossBlock == 0 {
			t.Fatal("stream never swapped an entry across a block boundary")
		}
	}

	t.Run("grown", func(t *testing.T) {
		m := &listModel{count: map[int32]int32{}, norms: make([]float64, ids)}
		run(t, 1, newList(), m, 6000)
	})
	t.Run("seeded", func(t *testing.T) {
		// finalize's output must be a state bumpOne can continue from, on
		// both sides of the one-block boundary.
		for _, seedIDs := range []int{blockSize - 3, 2*blockSize + 7} {
			rng := rand.New(rand.NewSource(int64(seedIDs)))
			m := &listModel{count: map[int32]int32{}, norms: make([]float64, ids)}
			pl := newList()
			for _, id := range rng.Perm(ids)[:seedIDs] {
				c := int32(1 + rng.Intn(4))
				m.count[int32(id)] = c
				m.norms[id] = float64(c*c) + float64(rng.Intn(9))
				pl.seedAppend(int32(id), int64(c))
			}
			pl.finalize(func(id int32) float64 { return m.norms[id] })
			run(t, int64(seedIDs)+1, pl, m, 4000)
		}
	})
}

// BenchmarkApply is the write path's index share: ns/op is ns per post
// on a seeded index whose posting lists have the skew of a real tagging
// corpus (a few multi-block head tags, a long tail of short lists).
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
