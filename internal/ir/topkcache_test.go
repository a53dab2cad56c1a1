package ir

import "testing"

// The write log's edges and the row budget, white-box: a row folds across
// exactly logSlots posts and is rebuilt past them; with a budget of one
// row, a second hot subject builds a scratch row while the first row can
// still fold, and takes the row over once that row's window has outrun
// the log. Every answer equals a cold rebuild.
func TestTopKCacheLogEdgesAndRowBudget(t *testing.T) {
	const n, a, b = 60, 1, 2
	model, rng, z := zipfModel(5, n, 20, 6)
	online := NewOnlineIndex(cloneAll(model), 4)
	online.cache.maxRows = 1
	c := &online.cache
	apply := func(posts int) {
		for i := 0; i < posts; i++ {
			r := 3 + rng.Intn(n-3) // never a or b
			p := zipfPost(rng, z, 20)
			model[r].Add(p)
			online.Apply(r, p)
		}
	}
	type moved struct{ serves, reranks, rebuilds, executed uint64 }
	prev := moved{}
	query := func(ctx string, s int, want func(m moved) bool) {
		t.Helper()
		got, _ := online.TopK(s, 10)
		assertIdentical(t, ctx, got, BuildInverted(model).TopK(s, 10))
		now := moved{c.serves.Load(), c.reranks.Load(), c.rebuilds.Load(), c.executed.Load()}
		d := moved{now.serves - prev.serves, now.reranks - prev.reranks, now.rebuilds - prev.rebuilds, now.executed - prev.executed}
		if !want(d) {
			t.Fatalf("%s: cache moved %+v", ctx, d)
		}
		prev = now
	}
	executed := func(m moved) bool { return m == moved{executed: 1} }
	rebuilt := func(m moved) bool { return m == moved{rebuilds: 1} }
	folded := func(m moved) bool { return m.serves+m.reranks == 1 && m.rebuilds+m.executed == 0 }

	query("a first", a, executed)
	apply(1)
	query("a hot", a, rebuilt)
	apply(logSlots)
	query("a after exactly the log", a, folded)
	apply(logSlots + 1)
	query("a past the log", a, rebuilt)

	query("b first", b, executed)
	apply(logSlots / 2)
	query("b hot, a's row still folds", b, executed)
	apply(logSlots/2 + 2)
	query("b hot, a's row outrun", b, rebuilt)
	if online.cache.rows[0].subject != b || len(online.cache.rows) != 1 {
		t.Fatalf("row not handed to b: %d rows", len(online.cache.rows))
	}
	apply(1)
	query("b folds", b, folded)
	query("a without its row", a, executed)
}

// The cache's two bounds, white-box: rows never exceed the budget, the
// entry table never exceeds maxEntries however many distinct subjects
// arrive, and eviction never drops an entry holding a row.
func TestTopKCacheBounds(t *testing.T) {
	const n = 60
	model, rng, z := zipfModel(7, n, 20, 6)
	online := NewOnlineIndex(cloneAll(model), 4)
	c := &online.cache
	c.maxRows = 2
	for round := 0; round < 3; round++ {
		for s := 0; s < 5; s++ {
			r := 10 + rng.Intn(n-10) // never a queried subject
			online.Apply(r, zipfPost(rng, z, 20))
			online.TopK(s, 10)
			if len(c.rows) > c.maxRows {
				t.Fatalf("round %d subject %d: %d rows, budget %d", round, s, len(c.rows), c.maxRows)
			}
		}
	}
	if len(c.rows) != c.maxRows {
		t.Fatalf("%d rows granted, want the budget %d", len(c.rows), c.maxRows)
	}
	for i := 0; i < 4*maxEntries; i++ { // several full tables
		c.entry(n + i) // entry does no range check
		if len(c.entries) > maxEntries {
			t.Fatalf("after %d distinct subjects: %d entries, cap %d", i+1, len(c.entries), maxEntries)
		}
	}
	for _, e := range c.rows {
		if c.entries[e.subject] != e {
			t.Fatalf("subject %d's entry was evicted while it held a row", e.subject)
		}
	}
}
