// Package strategy implements the incentive allocation strategies of
// Section IV: the framework of Algorithm 1 and the five concrete policies
// FC (Free Choice), RR (Round Robin), FP (Fewest Posts First), MU (Most
// Unstable First) and FP-MU (the hybrid). Strategies are online: they see
// only the posts received so far, never the future of the replay, and
// never a resource's true stable rfd.
//
// Complexities follow Table V: with n resources, budget B, window ω and
// tag universe T —
//
//	FC, RR:  O(n + B) time, O(n) space
//	FP:      O((n + B) log n) time, O(n) space
//	MU:      O((n + B) log n + (nω + B)|T|) time, O(nω + n|T|) space
//	FP-MU:   as MU
//
// (our MU implementation improves the |T| factors to the sparse post
// support via the incremental recurrence of Appendix C.4).
package strategy

import (
	"fmt"
	"math/rand"
)

// Env is what Algorithm 1 exposes to a strategy: the observable state of
// the tagging system. Counts and MA scores reflect all posts received so
// far (initial posts plus completed post tasks). An Env implementation is
// provided by the simulator (internal/sim) and by the public facade.
type Env interface {
	// N is the number of resources.
	N() int
	// Count returns c[i] + x[i], the posts resource i has received.
	Count(i int) int
	// MA returns the current MA score m_i(c_i+x_i, ω); ok is false while
	// the resource has fewer than ω posts (Definition 7).
	MA(i int) (float64, bool)
	// Available reports whether a post task on resource i can still be
	// completed (the replay has future posts left for it).
	Available(i int) bool
	// Cost returns the reward units one post task on i consumes (1 unless
	// the variable-cost extension is active).
	Cost(i int) int
	// Rand returns the deterministic RNG stream for stochastic choices.
	Rand() *rand.Rand
}

// Strategy is one incentive allocation policy, the CHOOSE/UPDATE pair of
// Algorithm 1. Implementations are single-goroutine state machines driven
// by a Runner; concurrent callers must serialize Choose/Update externally
// (internal/alloc wraps a Strategy behind one mutex and hands out leases).
//
// Choose may be called repeatedly before the matching Updates arrive —
// that is how a lease-based allocator keeps several post tasks in flight
// at once. The heap strategies (FP, MU, FP-MU) support this natively:
// Choose pops the resource from the priority queue and only the UPDATE
// step re-arms it, so successive Chooses return distinct resources.
// Cursor- and sampling-based strategies (RR, FC) re-read availability on
// every Choose instead; callers that need distinct in-flight resources
// must hide leased ones through the Env (see Masked).
type Strategy interface {
	// Name returns the paper's label for the strategy (FC, RR, ...).
	Name() string
	// Init is called once before the budget loop with the environment.
	Init(env Env)
	// Choose returns the resource to present to the next tagger. The
	// returned resource must be Available and affordable within remaining
	// budget; ok=false means the strategy has nothing to allocate (all
	// candidates exhausted or unaffordable).
	Choose(remaining int) (i int, ok bool)
	// Update is invoked after the post task on resource i completes, so
	// the strategy can refresh its bookkeeping (Algorithm 1's UPDATE()).
	Update(i int)
}

// item is a priority-queue entry with lazy invalidation: version tracks
// whether the entry is stale relative to the strategy's per-resource
// version counters.
type item struct {
	key     float64
	id      int
	version uint32
}

// minHeap is a binary min-heap over items ordered by key then id (the id
// tiebreak keeps runs deterministic).
type minHeap []item

func (h minHeap) less(a, b int) bool {
	if h[a].key != h[b].key {
		return h[a].key < h[b].key
	}
	return h[a].id < h[b].id
}

// lazyPQ is a priority queue with decrease/increase-key by lazy deletion:
// each push records the resource's current version; pops discard entries
// whose version is stale. This is the "priority queue" of Algorithms 3–4
// adapted to keys that change on every update. It sifts its typed slice
// with exactly container/heap's comparisons and swaps, so the pop order —
// ties between a stale and a fresh entry of one id included — is
// container/heap's, without its interface dispatch or per-push boxing.
type lazyPQ struct {
	h       minHeap
	version []uint32
}

func newLazyPQ(n int) *lazyPQ {
	return &lazyPQ{version: make([]uint32, n)}
}

func (q *lazyPQ) push(id int, key float64) {
	q.version[id]++
	h := append(q.h, item{key: key, id: id, version: q.version[id]})
	for j := len(h) - 1; j > 0; { // heap.up
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	q.h = h
}

// pop returns the smallest-key fresh entry, discarding stale ones.
func (q *lazyPQ) pop() (int, bool) {
	for len(q.h) > 0 {
		h := q.h
		n := len(h) - 1
		h[0], h[n] = h[n], h[0]
		for i := 0; ; { // heap.down over h[:n]
			j := 2*i + 1
			if j >= n {
				break
			}
			if j2 := j + 1; j2 < n && h.less(j2, j) {
				j = j2
			}
			if !h.less(j, i) {
				break
			}
			h[i], h[j] = h[j], h[i]
			i = j
		}
		it := h[n]
		q.h = h[:n]
		if it.version == q.version[it.id] {
			return it.id, true
		}
	}
	return -1, false
}

// invalidate drops any queued entry for id without pushing a replacement,
// permanently removing the resource until a future push.
func (q *lazyPQ) invalidate(id int) { q.version[id]++ }

// Masked wraps env so that Available(i) additionally requires ok(i); all
// other observations pass through unchanged. It is how a lease-based
// allocator hides resources with in-flight assignments from CHOOSE: a
// leased resource simply looks unavailable until its lease settles, which
// keeps cursor strategies (RR) from handing the same resource to two
// concurrent workers. When every Choose is settled before the next one
// (the sequential discipline), the mask is always the identity and the
// wrapped strategy's decisions are unchanged.
//
// The wrapper intentionally exposes only the Env method set: optional
// capabilities of the underlying environment (e.g. OrganicWeighter) are
// not forwarded, so FC's popularity falls back to uniform choice
// behind a mask — lease-based allocators serve incentive strategies, not
// organic-traffic models.
func Masked(env Env, ok func(i int) bool) Env {
	if ok == nil {
		return env
	}
	return &maskedEnv{Env: env, ok: ok}
}

type maskedEnv struct {
	Env
	ok func(i int) bool
}

func (m *maskedEnv) Available(i int) bool { return m.Env.Available(i) && m.ok(i) }

// validateEnv panics early on a nil environment; all strategies share it.
func validateEnv(env Env) {
	if env == nil {
		panic("strategy: Init with nil Env")
	}
	if env.N() < 0 {
		panic(fmt.Sprintf("strategy: negative resource count %d", env.N()))
	}
}
