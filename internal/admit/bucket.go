// Package admit is the request-lifecycle robustness layer between the
// HTTP mux and the Service: SLO-aware admission control for a server
// that must keep interactive incentive-allocation latency bounded while
// bulk ingest floods in.
//
// Three small, dependency-free pieces compose it:
//
//   - TokenBucket: classic rate limiting with an exact Retry-After
//     hint derived from the refill rate — the contract a shed client
//     needs to back off productively instead of hammering.
//   - Controller: a concurrency limiter with a bounded PRIORITY queue
//     over two request classes. Interactive requests (allocate,
//     complete, expire, topk, search) may wait briefly for a slot in a
//     bounded FIFO; bulk requests (batch ingest) never queue at all —
//     under overload bulk is shed first, which is what keeps the
//     operator's interactive p99 flat while the crowd's post firehose
//     is pushed back with 429 + Retry-After.
//   - Histogram: a log-bucketed latency histogram exposing p50/p90/p99
//     and Prometheus-style cumulative buckets, cheap enough to sit on
//     every route.
//
// Everything is hand-rolled like the rest of the codebase: no external
// dependencies, atomic counters, one mutex per structure.
package admit

import (
	"math"
	"sync"
	"time"
)

// TokenBucket is a standard token-bucket rate limiter: capacity Burst
// tokens, refilled continuously at Rate tokens/second. take consumes
// one token or reports exactly how long until one accrues — that
// duration is the Retry-After a shed client should honor.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second, > 0
	burst  float64 // capacity
	tokens float64
	last   time.Time
	now    func() time.Time // injectable for tests
}

// newTokenBucket builds a bucket refilling at rate tokens/second with
// the given burst capacity (burst <= 0 selects one second's worth of
// tokens, minimum 1). A rate <= 0 means "unlimited" and returns nil;
// a nil *TokenBucket admits everything.
func newTokenBucket(rate float64, burst int) *TokenBucket {
	return newTokenBucketClock(rate, burst, time.Now)
}

// newTokenBucketClock is newTokenBucket with an injectable clock, the
// seam the refill-math tests drive.
func newTokenBucketClock(rate float64, burst int, now func() time.Time) *TokenBucket {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if burst <= 0 {
		b = math.Max(1, rate)
	}
	return &TokenBucket{
		rate:   rate,
		burst:  b,
		tokens: b, // a fresh bucket is full: bursts up to capacity pass
		last:   now(),
		now:    now,
	}
}

// refill credits tokens for the time elapsed since the last visit,
// capped at the burst capacity. Caller holds mu.
func (b *TokenBucket) refill() {
	now := b.now()
	if elapsed := now.Sub(b.last); elapsed > 0 {
		b.tokens = math.Min(b.burst, b.tokens+b.rate*elapsed.Seconds())
	}
	b.last = now
}

// take consumes one token if available. When the bucket is empty it
// reports ok=false and the exact duration until one token will have
// accrued — the Retry-After contract.
func (b *TokenBucket) take() (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill()
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, b.untilTokensLocked(1)
}

// nextToken reports how long until a full token is available without
// consuming anything — the retry hint for rejections that are not the
// bucket's own (e.g. a full queue), still derived from the refill rate
// so all Retry-After values a client sees share one clock.
func (b *TokenBucket) nextToken() time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill()
	if b.tokens >= 1 {
		return 0
	}
	return b.untilTokensLocked(1)
}

// untilTokensLocked computes the refill time to reach want tokens.
// Caller holds mu; rate is > 0 by construction.
func (b *TokenBucket) untilTokensLocked(want float64) time.Duration {
	need := want - b.tokens
	return time.Duration(need / b.rate * float64(time.Second))
}
