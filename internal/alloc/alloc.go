// Package alloc turns the single-goroutine allocation strategies of
// Algorithm 1 into a concurrent, lease-based task allocator — the
// serving-side counterpart of the sharded ingest engine.
//
// The replay protocol drives CHOOSE → complete → UPDATE as one
// synchronous loop: exactly one post task is outstanding at any moment.
// A crowdsourcing deployment cannot work that way — a worker who accepts
// a task holds it for seconds or minutes while other workers keep asking
// for tasks. Allocator decouples the two halves of the loop into leases:
//
//	resource, lease, ok := a.Lease(remaining) // CHOOSE, task handed out
//	...                                       // worker tags the resource
//	err := a.Fulfill(lease, post)             // result ingested + UPDATE
//
// or, when the worker walks away,
//
//	err := a.Expire(lease)                    // task re-armed, no post
//
// # Budget ledger
//
// The allocator owns the incentive budget B of Algorithm 1. Lease
// reserves the chosen task's reward-unit cost when it hands the lease
// out, so concurrent workers can never collectively over-commit the
// budget; Fulfill converts the reservation into spend when the ingest
// succeeds and releases it when the ingest fails; Expire releases it.
// The remaining budget a Lease lets the strategy see is the smaller of
// the caller's bound and B − spent − reserved. A zero budget means
// unlimited.
//
// # Concurrency
//
// All methods are safe for arbitrary goroutines. Strategy state (the
// lazy priority queues of Algorithms 3–5 and their per-resource version
// counters) and the ledger are guarded by one allocator mutex: Lease
// clamps, runs Choose and reserves under it, Fulfill/Expire run Update
// and settle the ledger under it, and the engine ingest happens outside
// it, so lease bookkeeping never serializes against the sharded ingest
// path.
//
// N workers can hold outstanding leases simultaneously. The heap
// strategies (FP, MU, FP-MU) support that natively — Choose pops the
// resource and only UPDATE re-pushes it, so two in-flight leases never
// name the same resource and the lazy-PQ version invalidation stays
// correct (a lease's resource is simply absent from the heap until its
// settle-time Update pushes a fresh-keyed entry). Cursor strategies (RR)
// re-read availability instead; the allocator therefore maintains a
// per-resource in-flight count and masks leased resources out of the
// strategy's Env (strategy.Masked), so CHOOSE never hands one resource
// to two workers regardless of the policy.
//
// # Sequential equivalence
//
// Under the sequential discipline — every Lease settled by Fulfill
// before the next Lease — the in-flight mask is always the identity at
// Choose time and the Choose/Update interleaving is exactly the replay
// loop's, so the allocator reproduces the replay loop's decision
// sequence bit for bit (asserted by TestSequentialEquivalence).
package alloc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"incentivetag/internal/strategy"
	"incentivetag/internal/tags"
)

// Sink consumes fulfilled post tasks; *engine.Engine implements it.
type Sink interface {
	Ingest(resource int, p tags.Post) error
}

// LeaseID names one outstanding post-task assignment. IDs are unique for
// the allocator's lifetime and never reused, so a settled (fulfilled or
// expired) lease can be detected as such forever.
//
// Leases are not durable, yet an id from before a restart must not name
// a lease issued after it. So a boot's ids count up from its epoch
// shifted left by leaseSeqBits: the milliseconds from leaseEpochStart to
// New, plus the number of allocators the process has built. Two boots'
// ids meet only if the earlier one issued 2^leaseSeqBits leases per
// millisecond it lived. Ids stay below 2^48, above which a cluster
// gateway packs a node index, until 2058.
type LeaseID uint64

const leaseSeqBits = 8

var (
	leaseEpochStart = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	allocators      atomic.Uint64
)

// ErrUnknownLease is wrapped by Fulfill and Expire when the lease was
// never issued or has already settled. Test with errors.Is.
var ErrUnknownLease = errors.New("unknown or already settled")

// held is one outstanding lease: its resource and the reward units
// reserved for it.
type held struct {
	resource, cost int
}

// Allocator is a concurrent lease-based task allocator over one
// allocation strategy. Create with New; the zero value is not usable.
type Allocator struct {
	sink   Sink
	strat  strategy.Strategy
	env    strategy.Env
	budget int // 0 = unlimited

	mu       sync.Mutex
	inflight []int // outstanding leases per resource
	leases   map[LeaseID]held
	firstID  LeaseID // this boot's epoch, shifted
	issued   uint64
	settled  uint64 // fulfilled + expired, for Stats
	expired  uint64
	spent    int // cost of fulfilled leases whose ingest succeeded
	// reserved is the cost of every lease not yet charged or released:
	// outstanding ones and fulfilled ones whose ingest is still running.
	reserved int
}

// New builds an allocator that drives strat over env, ingests fulfilled
// posts into sink and spends at most budget reward units (0 means
// unlimited). It installs the in-flight mask into the environment and
// runs the strategy's Init under it, so strat must be fresh (not yet
// initialized) and must not be driven by anyone else afterwards.
func New(strat strategy.Strategy, env strategy.Env, sink Sink, budget int) *Allocator {
	epoch := uint64(max(time.Since(leaseEpochStart).Milliseconds(), 0)) + allocators.Add(1)
	a := &Allocator{
		sink:     sink,
		strat:    strat,
		env:      env,
		budget:   budget,
		inflight: make([]int, env.N()),
		leases:   make(map[LeaseID]held),
		firstID:  LeaseID(epoch << leaseSeqBits),
	}
	// The mask closure reads inflight only while a.mu is held: Init runs
	// before the allocator is published, and Choose/Update only ever run
	// under the mutex.
	strat.Init(strategy.Masked(env, func(i int) bool { return a.inflight[i] == 0 }))
	return a
}

// Lease asks the strategy which resource the next post task should
// target (Algorithm 1's CHOOSE) and hands out a lease on it, reserving
// its cost. remaining bounds the cost on top of the ledger; the strategy
// sees the smaller of the two. ok is false when nothing is allocatable —
// the budget is spent or reserved, or every candidate is exhausted,
// leased, or costs more than remains. The resource stays hidden from
// further Leases until the lease settles via Expire, or via Fulfill once
// its post is applied.
func (a *Allocator) Lease(remaining int) (resource int, lease LeaseID, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.budget > 0 {
		remaining = min(remaining, a.budget-a.spent-a.reserved)
	}
	if remaining <= 0 {
		return -1, 0, false
	}
	i, ok := a.strat.Choose(remaining)
	if !ok {
		return -1, 0, false
	}
	cost := a.env.Cost(i)
	a.issued++
	id := a.firstID + LeaseID(a.issued)
	a.leases[id] = held{resource: i, cost: cost}
	a.inflight[i]++
	a.reserved += cost
	return i, id, true
}

// settleLocked removes the lease from the lease bookkeeping; its
// reservation and its in-flight mark stay for the caller to release.
// Caller holds a.mu.
func (a *Allocator) settleLocked(lease LeaseID) (held, error) {
	h, ok := a.leases[lease]
	if !ok {
		return held{}, fmt.Errorf("alloc: lease %d: %w", lease, ErrUnknownLease)
	}
	delete(a.leases, lease)
	a.settled++
	return h, nil
}

// Fulfill settles a lease with the post its worker produced: the post is
// ingested into the sink, the lease's cost is charged if the ingest
// succeeded (released if it failed), and the strategy runs Algorithm 1's
// UPDATE. Fulfilling a lease that was never issued, was already
// fulfilled, or was expired returns an error wrapping ErrUnknownLease
// without touching engine, ledger or strategy state. The strategy is
// notified even when the ingest itself fails (e.g. a WAL write error),
// so a failed completion re-arms the resource instead of permanently
// removing it; the ingest error is returned.
func (a *Allocator) Fulfill(lease LeaseID, p tags.Post) error {
	a.mu.Lock()
	h, err := a.settleLocked(lease)
	a.mu.Unlock()
	if err != nil {
		return err
	}
	// Ingest outside the allocator mutex (the engine's shard locks
	// provide safety), then settle the ledger and UPDATE under it. The
	// reservation is held across the ingest, so a concurrent Lease can
	// never count these units as free, and so is the in-flight mark, so
	// the mask hides the resource until its post is applied: a cursor
	// strategy (RR) that handed it out again in between would have the
	// next worker read the old count. The order matters — MU's priority
	// key is the post-ingest MA score.
	err = a.sink.Ingest(h.resource, p)
	a.mu.Lock()
	a.inflight[h.resource]--
	a.reserved -= h.cost
	if err == nil {
		a.spent += h.cost
	}
	a.strat.Update(h.resource)
	a.mu.Unlock()
	return err
}

// Expire settles a lease without a post — the worker abandoned the task.
// Its reservation is released and the strategy's UPDATE runs so the
// resource is re-armed for future Leases (the same re-arm contract a
// failed completion has); no post is ingested and no budget is consumed.
// Expiring an unknown or already settled lease returns an error wrapping
// ErrUnknownLease.
func (a *Allocator) Expire(lease LeaseID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	h, err := a.settleLocked(lease)
	if err != nil {
		return err
	}
	a.expired++
	a.inflight[h.resource]--
	a.reserved -= h.cost
	a.strat.Update(h.resource)
	return nil
}

// Stats is a point-in-time census of the allocator's lease lifecycle
// and budget ledger.
type Stats struct {
	// Issued counts every lease ever handed out.
	Issued uint64
	// Outstanding counts unsettled leases.
	Outstanding int
	// Fulfilled counts leases settled with a post.
	Fulfilled uint64
	// Expired counts leases settled by abandonment.
	Expired uint64
	// Budget is the total budget the allocator was built with (0 =
	// unlimited).
	Budget int
	// Spent is the reward units charged by fulfilled leases whose ingest
	// succeeded.
	Spent int
	// Remaining is Budget − Spent − the cost reserved by unsettled
	// leases: what the next Lease may still commit. -1 when the budget is
	// unlimited.
	Remaining int
}

// StatsSnapshot reports the lease lifecycle counters and the ledger.
func (a *Allocator) StatsSnapshot() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	rem := -1
	if a.budget > 0 {
		rem = a.budget - a.spent - a.reserved
	}
	return Stats{
		Issued:      a.issued,
		Outstanding: len(a.leases),
		Fulfilled:   a.settled - a.expired,
		Expired:     a.expired,
		Budget:      a.budget,
		Spent:       a.spent,
		Remaining:   rem,
	}
}
