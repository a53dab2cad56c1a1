package admit

import (
	"math"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for exact refill math.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func bucketAt(rate float64, burst int) (*TokenBucket, *fakeClock) {
	clk := newFakeClock()
	return newTokenBucketClock(rate, burst, clk.now), clk
}

func TestBucketStartsFullAndDrains(t *testing.T) {
	b, _ := bucketAt(10, 3)
	for i := 0; i < 3; i++ {
		if ok, _ := b.take(); !ok {
			t.Fatalf("take %d of burst 3 refused", i)
		}
	}
	ok, retry := b.take()
	if ok {
		t.Fatal("4th take from a drained burst-3 bucket succeeded")
	}
	// Empty bucket at 10 tokens/sec: exactly 100ms to the next token.
	if want := 100 * time.Millisecond; retry != want {
		t.Fatalf("retry after = %v, want %v", retry, want)
	}
}

// tokens reports b's token count after refill.
func tokens(b *TokenBucket) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill()
	return b.tokens
}

func TestBucketRefillMath(t *testing.T) {
	b, clk := bucketAt(10, 5)
	for i := 0; i < 5; i++ {
		b.take()
	}
	if got := tokens(b); got != 0 {
		t.Fatalf("drained bucket holds %v tokens", got)
	}

	// 250ms at 10/sec accrues exactly 2.5 tokens.
	clk.advance(250 * time.Millisecond)
	if got := tokens(b); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("after 250ms tokens = %v, want 2.5", got)
	}
	if ok, _ := b.take(); !ok {
		t.Fatal("take with 2.5 tokens refused")
	}
	if ok, _ := b.take(); !ok {
		t.Fatal("take with 1.5 tokens refused")
	}
	// 0.5 tokens left: the next take must wait (1-0.5)/10 = 50ms.
	ok, retry := b.take()
	if ok {
		t.Fatal("take with 0.5 tokens succeeded")
	}
	want := 50 * time.Millisecond
	if retry != want {
		t.Fatalf("retry after = %v, want %v", retry, want)
	}
	if got := b.nextToken(); got != want {
		t.Fatalf("nextToken = %v, want %v", got, want)
	}

	// Refill caps at burst: a long idle period cannot bank more than 5.
	clk.advance(time.Hour)
	if got := tokens(b); got != 5 {
		t.Fatalf("after an hour tokens = %v, want burst cap 5", got)
	}
}

func TestBucketFractionalRate(t *testing.T) {
	// 0.5 tokens/sec: after the burst, takes are 2 seconds apart.
	b, clk := bucketAt(0.5, 1)
	if ok, _ := b.take(); !ok {
		t.Fatal("initial take refused")
	}
	ok, retry := b.take()
	if ok {
		t.Fatal("second immediate take succeeded")
	}
	if want := 2 * time.Second; retry != want {
		t.Fatalf("retry after = %v, want %v", retry, want)
	}
	clk.advance(2 * time.Second)
	if ok, _ := b.take(); !ok {
		t.Fatal("take after a full refill period refused")
	}
}

func TestBucketDefaults(t *testing.T) {
	if b := newTokenBucket(0, 10); b != nil {
		t.Fatal("rate 0 should disable the bucket (nil)")
	}
	var nilBucket *TokenBucket
	if ok, retry := nilBucket.take(); !ok || retry != 0 {
		t.Fatal("nil bucket must admit everything")
	}
	if d := nilBucket.nextToken(); d != 0 {
		t.Fatalf("nil bucket nextToken = %v", d)
	}
	// burst <= 0 defaults to one second's worth, min 1.
	b, _ := bucketAt(40, 0)
	if got := tokens(b); got != 40 {
		t.Fatalf("default burst at rate 40 = %v, want 40", got)
	}
	b, _ = bucketAt(0.25, 0)
	if got := tokens(b); got != 1 {
		t.Fatalf("default burst at rate 0.25 = %v, want 1", got)
	}
}
