package strategy

import (
	"container/heap"
	"math/rand"
	"testing"
)

// fakeEnv is a minimal deterministic Env for unit-testing strategies in
// isolation from the simulator.
type fakeEnv struct {
	counts  []int
	ma      []float64
	maOK    []bool
	avail   []bool
	costs   []int
	weights []float64
	rng     *rand.Rand
}

func newFakeEnv(counts []int) *fakeEnv {
	n := len(counts)
	e := &fakeEnv{
		counts:  append([]int(nil), counts...),
		ma:      make([]float64, n),
		maOK:    make([]bool, n),
		avail:   make([]bool, n),
		costs:   make([]int, n),
		weights: make([]float64, n),
		rng:     rand.New(rand.NewSource(1)),
	}
	for i := range e.avail {
		e.avail[i] = true
		e.costs[i] = 1
		e.weights[i] = 1
	}
	return e
}

func (e *fakeEnv) N() int                      { return len(e.counts) }
func (e *fakeEnv) Count(i int) int             { return e.counts[i] }
func (e *fakeEnv) MA(i int) (float64, bool)    { return e.ma[i], e.maOK[i] }
func (e *fakeEnv) Available(i int) bool        { return e.avail[i] }
func (e *fakeEnv) Cost(i int) int              { return e.costs[i] }
func (e *fakeEnv) Rand() *rand.Rand            { return e.rng }
func (e *fakeEnv) OrganicWeight(i int) float64 { return e.weights[i] }

// step runs one CHOOSE/complete/UPDATE cycle.
func step(t *testing.T, s Strategy, e *fakeEnv, remaining int) int {
	t.Helper()
	i, ok := s.Choose(remaining)
	if !ok {
		t.Fatal("Choose returned nothing")
	}
	if !e.avail[i] {
		t.Fatalf("Choose returned unavailable resource %d", i)
	}
	e.counts[i]++
	s.Update(i)
	return i
}

func TestRRCycles(t *testing.T) {
	e := newFakeEnv([]int{0, 0, 0})
	s := NewRR()
	s.Init(e)
	var got []int
	for k := 0; k < 7; k++ {
		got = append(got, step(t, s, e, 100))
	}
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RR order %v, want %v", got, want)
		}
	}
}

func TestRRSkipsUnavailable(t *testing.T) {
	e := newFakeEnv([]int{0, 0, 0})
	e.avail[1] = false
	s := NewRR()
	s.Init(e)
	for k := 0; k < 4; k++ {
		if i := step(t, s, e, 100); i == 1 {
			t.Fatal("RR chose unavailable resource")
		}
	}
	e.avail[0], e.avail[2] = false, false
	if _, ok := s.Choose(100); ok {
		t.Error("RR chose with nothing available")
	}
}

func TestFPPicksFewestPosts(t *testing.T) {
	e := newFakeEnv([]int{5, 2, 9, 2})
	s := NewFP()
	s.Init(e)
	// Ties broken by id: resource 1 (count 2) before 3 (count 2).
	if i := step(t, s, e, 100); i != 1 {
		t.Fatalf("first pick %d, want 1", i)
	}
	if i := step(t, s, e, 100); i != 3 {
		t.Fatalf("second pick %d, want 3", i)
	}
	// Now counts are (5,3,9,3): 1 and 3 again.
	if i := step(t, s, e, 100); i != 1 {
		t.Fatalf("third pick %d, want 1", i)
	}
}

// FP equalizes counts (water-filling): after enough steps the spread of
// counts is at most 1.
func TestFPWaterFills(t *testing.T) {
	e := newFakeEnv([]int{10, 1, 7, 3, 0})
	s := NewFP()
	s.Init(e)
	for k := 0; k < 29; k++ { // enough to level everyone at 10
		step(t, s, e, 1000)
	}
	for i, c := range e.counts {
		if c < 10 || c > 11 {
			t.Errorf("resource %d count %d, want level ≈10", i, c)
		}
	}
}

func TestFPDropsExhausted(t *testing.T) {
	e := newFakeEnv([]int{0, 5})
	s := NewFP()
	s.Init(e)
	if i := step(t, s, e, 100); i != 0 {
		t.Fatalf("pick %d, want 0", i)
	}
	e.avail[0] = false
	s.Update(0) // simulator notifies once more after exhaustion
	for k := 0; k < 3; k++ {
		if i := step(t, s, e, 100); i != 1 {
			t.Fatalf("picked exhausted resource (got %d)", i)
		}
	}
}

func TestMUPicksSmallestMA(t *testing.T) {
	e := newFakeEnv([]int{10, 10, 10})
	e.ma = []float64{0.9, 0.5, 0.7}
	e.maOK = []bool{true, true, true}
	s := NewMU()
	s.Init(e)
	if i, _ := s.Choose(100); i != 1 {
		t.Fatalf("MU chose %d, want 1 (lowest MA)", i)
	}
}

func TestMUIgnoresYoungResources(t *testing.T) {
	e := newFakeEnv([]int{3, 10})
	e.ma = []float64{0, 0.99}
	e.maOK = []bool{false, true} // resource 0 has < ω posts
	s := NewMU()
	s.Init(e)
	for k := 0; k < 3; k++ {
		if i := step(t, s, e, 100); i != 1 {
			t.Fatalf("MU chose young resource %d", i)
		}
	}
}

func TestMUTracksUpdatedScores(t *testing.T) {
	e := newFakeEnv([]int{10, 10})
	e.ma = []float64{0.5, 0.6}
	e.maOK = []bool{true, true}
	s := NewMU()
	s.Init(e)
	if i := step(t, s, e, 100); i != 0 {
		t.Fatalf("first pick %d", i)
	}
	// Resource 0 is now very stable; MU must switch to 1.
	e.ma[0] = 0.95
	s.Update(0)
	if i, _ := s.Choose(100); i != 1 {
		t.Fatal("MU did not react to updated MA")
	}
}

func TestFPMUWarmupThenSwitch(t *testing.T) {
	// ω = 4: resources need (4−c) posts each: 4 + 1 + 0 = 5 warm-up.
	e := newFakeEnv([]int{0, 3, 9})
	e.maOK = []bool{false, false, true}
	e.ma = []float64{0, 0, 0.8}
	s := NewFPMU(4)
	s.Init(e)
	if s.warmup != 5 {
		t.Fatalf("warm-up budget %d, want 5", s.warmup)
	}
	for k := 0; k < 5; k++ {
		i := step(t, s, e, 100)
		if i == 2 {
			t.Fatal("warm-up stage touched an already-warm resource")
		}
		// Simulate MA becoming defined at ω posts.
		if e.counts[i] >= 4 {
			e.maOK[i] = true
			e.ma[i] = 0.5
		}
	}
	if s.inMU {
		t.Fatal("switched to MU before warm-up budget spent")
	}
	// Next choice flips to MU and targets the lowest-MA resource.
	i, ok := s.Choose(100)
	if !ok || !s.inMU {
		t.Fatalf("hybrid did not switch to MU (i=%d ok=%v)", i, ok)
	}
	if e.ma[i] != 0.5 {
		t.Fatalf("MU stage chose %d with MA %.2f, want a 0.5-scorer", i, e.ma[i])
	}
}

func TestFCFollowsPicker(t *testing.T) {
	e := newFakeEnv([]int{0, 0, 0})
	e.weights = []float64{0, 100, 0}
	s := NewFC() // popularity comes from OrganicWeight
	s.Init(e)
	for k := 0; k < 5; k++ {
		if i := step(t, s, e, 100); i != 1 {
			t.Fatalf("FC ignored popularity weights: picked %d", i)
		}
	}
}

func TestFCExhaustsGracefully(t *testing.T) {
	e := newFakeEnv([]int{0})
	e.weights = []float64{3}
	s := NewFC()
	s.Init(e)
	for k := 0; k < 3; k++ {
		step(t, s, e, 100)
	}
	// Weight decayed to zero: no more picks.
	if _, ok := s.Choose(100); ok {
		t.Error("FC picked after popularity exhausted")
	}
}

func TestCostAwareness(t *testing.T) {
	e := newFakeEnv([]int{0, 0})
	e.costs = []int{5, 1}
	for _, s := range []Strategy{NewFP(), NewRR()} {
		s.Init(e)
		i, ok := s.Choose(3) // only resource 1 affordable
		if !ok || i != 1 {
			t.Errorf("%s with remaining=3 chose %d,%v; want 1", s.Name(), i, ok)
		}
	}
}

// The unaffordable-now resource must not be lost: with enough budget it
// is chosen again.
func TestFPSkippedNotLost(t *testing.T) {
	e := newFakeEnv([]int{0, 7})
	e.costs = []int{5, 1}
	s := NewFP()
	s.Init(e)
	if i, ok := s.Choose(3); !ok || i != 1 {
		t.Fatalf("expected affordable fallback, got %d,%v", i, ok)
	}
	if i, ok := s.Choose(100); !ok || i != 0 {
		t.Fatalf("skipped resource lost: got %d,%v", i, ok)
	}
}

func TestLazyPQ(t *testing.T) {
	q := newLazyPQ(3)
	q.push(0, 5)
	q.push(1, 3)
	q.push(2, 4)
	q.push(1, 6) // re-push invalidates the key-3 entry
	if id, ok := q.pop(); !ok || id != 2 {
		t.Fatalf("pop = %d,%v; want 2 (stale 1@3 skipped)", id, ok)
	}
	q.invalidate(0)
	if id, ok := q.pop(); !ok || id != 1 {
		t.Fatalf("pop = %d,%v; want 1@6", id, ok)
	}
	if _, ok := q.pop(); ok {
		t.Error("pop from drained queue succeeded")
	}
	if len(q.h) != 0 {
		t.Error("queue not empty after drain")
	}
	// Into spare capacity, a push boxes nothing and allocates nothing.
	if a := testing.AllocsPerRun(100, func() { q.push(1, 2); q.pop() }); a != 0 {
		t.Errorf("push+pop allocates %v times", a)
	}
}

// refHeap adapts minHeap to container/heap — the oracle lazyPQ's typed
// sifts are held to.
type refHeap struct{ minHeap }

func (h refHeap) Len() int           { return len(h.minHeap) }
func (h refHeap) Less(a, b int) bool { return h.less(a, b) }
func (h refHeap) Swap(a, b int)      { h.minHeap[a], h.minHeap[b] = h.minHeap[b], h.minHeap[a] }
func (h *refHeap) Push(x any)        { h.minHeap = append(h.minHeap, x.(item)) }
func (h *refHeap) Pop() any {
	it := h.minHeap[len(h.minHeap)-1]
	h.minHeap = h.minHeap[:len(h.minHeap)-1]
	return it
}

// Over random push, pop and invalidate sequences with tied keys and
// re-pushed ids, lazyPQ holds the same array as container/heap after
// every operation and pops the same ids.
func TestLazyPQMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 8
		q, ref, refVersion := newLazyPQ(n), &refHeap{}, make([]uint32, n)
		for step := 0; step < 2000; step++ {
			id := rng.Intn(n)
			switch op := rng.Intn(20); {
			case op < 10:
				key := float64(rng.Intn(4))
				q.push(id, key)
				refVersion[id]++
				heap.Push(ref, item{key: key, id: id, version: refVersion[id]})
			case op < 17:
				got, gotOK := q.pop()
				want, wantOK := -1, false
				for ref.Len() > 0 {
					if it := heap.Pop(ref).(item); it.version == refVersion[it.id] {
						want, wantOK = it.id, true
						break
					}
				}
				if got != want || gotOK != wantOK {
					t.Fatalf("seed %d step %d: pop %d,%v; container/heap %d,%v", seed, step, got, gotOK, want, wantOK)
				}
			default:
				q.invalidate(id)
				refVersion[id]++
			}
			if len(q.h) != ref.Len() {
				t.Fatalf("seed %d step %d: %d entries, container/heap %d", seed, step, len(q.h), ref.Len())
			}
			for k := range q.h {
				if q.h[k] != ref.minHeap[k] {
					t.Fatalf("seed %d step %d: slot %d holds %+v, container/heap %+v", seed, step, k, q.h[k], ref.minHeap[k])
				}
			}
		}
	}
}

func TestStrategyNames(t *testing.T) {
	for _, tc := range []struct {
		s    Strategy
		want string
	}{
		{NewFC(), "FC"}, {NewRR(), "RR"}, {NewFP(), "FP"},
		{NewMU(), "MU"}, {NewFPMU(5), "FP-MU"},
	} {
		if tc.s.Name() != tc.want {
			t.Errorf("Name = %q, want %q", tc.s.Name(), tc.want)
		}
	}
}

func TestFPMURejectsBadOmega(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FP-MU with ω<2 accepted")
		}
	}()
	NewFPMU(1)
}

// Masked intersects availability with the caller's predicate and leaves
// every other observation untouched; capabilities beyond the Env method
// set (OrganicWeighter) are deliberately not forwarded.
func TestMaskedEnv(t *testing.T) {
	e := newFakeEnv([]int{3, 1, 2})
	e.avail[2] = false
	blocked := map[int]bool{0: true}
	m := Masked(e, func(i int) bool { return !blocked[i] })
	if m.Available(0) {
		t.Error("masked resource reported available")
	}
	if !m.Available(1) {
		t.Error("unmasked resource reported unavailable")
	}
	if m.Available(2) {
		t.Error("mask resurrected an unavailable resource")
	}
	if m.N() != 3 || m.Count(0) != 3 || m.Cost(1) != 1 {
		t.Error("masked env mangled pass-through observations")
	}
	if _, ok := m.(OrganicWeighter); ok {
		t.Error("mask forwarded the OrganicWeighter capability")
	}
	if Masked(e, nil) != Env(e) {
		t.Error("nil predicate should return env unchanged")
	}

	// The lease-settle shape: mask a resource only after Choose popped
	// it (a leased resource is never inside the heap), clear the mask on
	// Update. FP then hands out distinct resources while one is held and
	// returns to it after settlement.
	delete(blocked, 0)
	s := NewFP()
	s.Init(m)
	i, ok := s.Choose(100) // pops 1 (count 1); 2 is unavailable
	if !ok || i != 1 {
		t.Fatalf("Choose = %d, %v; want 1", i, ok)
	}
	blocked[1] = true // lease held on 1
	if j, ok := s.Choose(100); !ok || j != 0 {
		t.Fatalf("with 1 leased, Choose = %d, %v; want 0", j, ok)
	}
	s.Update(0)
	delete(blocked, 1) // lease settles
	s.Update(1)
	if j, ok := s.Choose(100); !ok || j != 1 {
		t.Fatalf("after settle, Choose = %d, %v; want 1", j, ok)
	}
}
