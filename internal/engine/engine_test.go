package engine

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"incentivetag/internal/quality"
	"incentivetag/internal/sparse"
	"incentivetag/internal/stability"
	"incentivetag/internal/strategy"
	"incentivetag/internal/tags"
	"incentivetag/internal/tagstore"
)

// testSpecs builds n resources with deterministic post material: for
// each resource a full recorded sequence, an initial prefix, a stable
// point, and a reference rfd taken at the stable point.
func testSpecs(t *testing.T, n int, seed int64) ([]ResourceSpec, []tags.Seq) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	specs := make([]ResourceSpec, n)
	seqs := make([]tags.Seq, n)
	for i := 0; i < n; i++ {
		total := 30 + rng.Intn(40)
		seq := make(tags.Seq, total)
		// A small per-resource tag pool makes sequences converge.
		base := tags.Tag(rng.Intn(50))
		for k := range seq {
			m := 1 + rng.Intn(3)
			ts := make([]tags.Tag, m)
			for j := range ts {
				ts[j] = base + tags.Tag(rng.Intn(8))
			}
			p, err := tags.NewPost(ts...)
			if err != nil {
				t.Fatal(err)
			}
			seq[k] = p
		}
		seqs[i] = seq
		stableK := total * 2 / 3
		specs[i] = ResourceSpec{
			Initial: seq[:5+rng.Intn(10)],
			Ref:     quality.NewReference(sparse.FromSeq(seq, stableK)),
			StableK: stableK,
		}
	}
	return specs, seqs
}

// requireMetricsMatch asserts the incremental snapshot agrees with the
// full-scan oracle: integer metrics exactly, quality sum to float
// reassociation tolerance.
func requireMetricsMatch(t *testing.T, got, want Metrics) {
	t.Helper()
	if got.Spent != want.Spent || got.Posts != want.Posts {
		t.Fatalf("spent/posts: got %d/%d want %d/%d", got.Spent, got.Posts, want.Spent, want.Posts)
	}
	if got.OverTagged != want.OverTagged {
		t.Fatalf("over-tagged: got %d want %d", got.OverTagged, want.OverTagged)
	}
	if got.UnderTagged != want.UnderTagged {
		t.Fatalf("under-tagged: got %d want %d", got.UnderTagged, want.UnderTagged)
	}
	if got.WastedPosts != want.WastedPosts {
		t.Fatalf("wasted: got %d want %d", got.WastedPosts, want.WastedPosts)
	}
	if math.Abs(got.MeanQuality-want.MeanQuality) > 1e-12 {
		t.Fatalf("mean quality: got %.17g want %.17g", got.MeanQuality, want.MeanQuality)
	}
}

// The incremental metrics must track the full-scan oracle at every
// single step of a sequential ingest run.
func TestIncrementalMatchesFullScan(t *testing.T) {
	specs, seqs := testSpecs(t, 24, 1)
	e, err := New(Config{Omega: 5, Shards: 3, UnderThreshold: 10}, specs)
	if err != nil {
		t.Fatal(err)
	}
	requireMetricsMatch(t, e.Snapshot(), e.VerifyMetrics())
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 600; step++ {
		i := rng.Intn(e.N())
		if e.Count(i) >= len(seqs[i]) {
			continue
		}
		if err := e.Ingest(i, seqs[i][e.Count(i)]); err != nil {
			t.Fatal(err)
		}
		requireMetricsMatch(t, e.Snapshot(), e.VerifyMetrics())
	}
}

// Per-resource incremental quality must be bit-identical to the cosine
// the seed's full scan computed (integer-exact dot and norms).
func TestQualityOfBitIdentical(t *testing.T) {
	specs, seqs := testSpecs(t, 16, 3)
	e, err := New(Config{Omega: 5, Shards: 4, UnderThreshold: 10}, specs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 400; step++ {
		i := rng.Intn(e.N())
		if e.Count(i) >= len(seqs[i]) {
			continue
		}
		if err := e.Ingest(i, seqs[i][e.Count(i)]); err != nil {
			t.Fatal(err)
		}
		// Recompute the cosine exactly as the seed did.
		tr := stability.NewTracker(5)
		for k := 0; k < e.Count(i); k++ {
			tr.Observe(seqs[i][k])
		}
		want := specs[i].Ref.Of(tr.Counts())
		if got := e.QualityOf(i); got != want {
			t.Fatalf("resource %d after %d posts: quality %.17g != full-scan %.17g", i, e.Count(i), got, want)
		}
	}
}

// Concurrent ingest across goroutines: totals must be exact and the
// final metrics must agree with the full-scan oracle. Run under -race
// this also proves the shard locking is sound.
func TestConcurrentIngest(t *testing.T) {
	specs, seqs := testSpecs(t, 64, 5)
	e, err := New(Config{Omega: 5, Shards: 8, UnderThreshold: 10}, specs)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	var total int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := 0
			// Each worker replays the future posts of its own resource
			// stripe; stripes hit every shard, so shard locks are
			// exercised by concurrent neighbors.
			for i := w; i < e.N(); i += workers {
				for k := len(specs[i].Initial); k < len(seqs[i]); k++ {
					if err := e.Ingest(i, seqs[i][k]); err != nil {
						t.Error(err)
						return
					}
					n++
					// Interleave metric reads with writes.
					if n%16 == 0 {
						_ = e.Snapshot()
						_, _ = e.MA(i)
					}
				}
			}
			mu.Lock()
			total += int64(n)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	m := e.Snapshot()
	if int64(m.Posts) != total {
		t.Fatalf("ingested %d posts, engine counted %d", total, m.Posts)
	}
	if int64(m.Spent) != total {
		t.Fatalf("unit costs: spent %d != posts %d", m.Spent, total)
	}
	requireMetricsMatch(t, m, e.VerifyMetrics())
	for i := 0; i < e.N(); i++ {
		if e.Count(i) != len(seqs[i]) {
			t.Fatalf("resource %d: count %d != %d", i, e.Count(i), len(seqs[i]))
		}
	}
}

// Over-/under-tagged and waste transitions fire at the exact crossing
// posts.
func TestMetricTransitions(t *testing.T) {
	post := func(ts ...tags.Tag) tags.Post {
		p, err := tags.NewPost(ts...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ref := quality.NewReference(sparse.FromSeq(tags.Seq{post(1), post(1, 2)}, 2))
	e, err := New(Config{Omega: 2, Shards: 1, UnderThreshold: 2}, []ResourceSpec{
		{Ref: ref, StableK: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := e.Snapshot()
	if m.UnderTagged != 1 || m.OverTagged != 0 || m.WastedPosts != 0 {
		t.Fatalf("initial metrics: %+v", m)
	}
	steps := []struct {
		under, over, wasted int
	}{
		{1, 0, 0}, // count 1: still under (≤2)
		{1, 0, 0}, // count 2: still under
		{0, 0, 0}, // count 3: crossed threshold
		{0, 1, 0}, // count 4: reached stable point
		{0, 1, 1}, // count 5: first wasted post (ran at k ≥ k*)
		{0, 1, 2}, // count 6
	}
	for k, want := range steps {
		if err := e.Ingest(0, post(1, 2)); err != nil {
			t.Fatal(err)
		}
		m := e.Snapshot()
		if m.UnderTagged != want.under || m.OverTagged != want.over || m.WastedPosts != want.wasted {
			t.Fatalf("after post %d: got under=%d over=%d wasted=%d, want %+v",
				k+1, m.UnderTagged, m.OverTagged, m.WastedPosts, want)
		}
	}
}

// The WAL must record every ingested post (and none of the primed
// prefix), recoverable after reopening.
func TestWALRecordsIngest(t *testing.T) {
	dir := t.TempDir()
	wal, err := tagstore.Open(dir, tagstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs, seqs := testSpecs(t, 6, 7)
	e, err := New(Config{Omega: 5, Shards: 2, UnderThreshold: 10, WAL: wal}, specs)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < e.N(); i++ {
		for k := len(specs[i].Initial); k < len(seqs[i]); k++ {
			if err := e.Ingest(i, seqs[i][k]); err != nil {
				t.Fatal(err)
			}
			want++
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := tagstore.Open(dir, tagstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if int(re.Records()) != want {
		t.Fatalf("wal has %d records, want %d", re.Records(), want)
	}
	for i := 0; i < e.N(); i++ {
		got, err := re.Posts(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		futures := seqs[i][len(specs[i].Initial):]
		if len(got) != len(futures) {
			t.Fatalf("resource %d: wal has %d posts, want %d", i, len(got), len(futures))
		}
	}
}

// View satisfies the strategy.Env contract and can drive a real policy
// over live engine state.
func TestViewDrivesStrategy(t *testing.T) {
	specs, seqs := testSpecs(t, 12, 9)
	e, err := New(Config{Omega: 5, Shards: 4, UnderThreshold: 10}, specs)
	if err != nil {
		t.Fatal(err)
	}
	next := make([]int, e.N())
	for i := range next {
		next[i] = len(specs[i].Initial)
	}
	v := &View{
		Eng:         e,
		AvailableFn: func(i int) bool { return next[i] < len(seqs[i]) },
		Rng:         rand.New(rand.NewSource(1)),
	}
	s := strategy.NewFP()
	s.Init(v)
	for b := 0; b < 100; b++ {
		i, ok := s.Choose(100 - b)
		if !ok {
			break
		}
		if err := e.Ingest(i, seqs[i][next[i]]); err != nil {
			t.Fatal(err)
		}
		next[i]++
		s.Update(i)
	}
	if got := e.Snapshot().Posts; got != 100 {
		t.Fatalf("allocated %d posts, want 100", got)
	}
}

// Constructor validation.
func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Omega: 1}, nil); err == nil {
		t.Error("omega 1 accepted")
	}
	if _, err := New(Config{}, []ResourceSpec{{StableK: -1}}); err == nil {
		t.Error("negative stable point accepted")
	}
	if _, err := New(Config{}, []ResourceSpec{{Cost: -2}}); err == nil {
		t.Error("negative cost accepted")
	}
	e, err := New(Config{}, []ResourceSpec{{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(5, tags.Post{1}); err == nil {
		t.Error("out-of-range ingest accepted")
	}
	if err := e.Ingest(0, tags.Post{}); err == nil {
		t.Error("empty post accepted")
	}
}

// requireBitIdentical asserts two engines have bit-identical snapshots,
// verify-metrics and per-resource qualities.
func requireBitIdentical(t *testing.T, a, b *Engine) {
	t.Helper()
	ma, mb := a.Snapshot(), b.Snapshot()
	if ma != mb {
		t.Fatalf("snapshots diverge:\n%+v\n%+v", ma, mb)
	}
	va, vb := a.VerifyMetrics(), b.VerifyMetrics()
	if va != vb {
		t.Fatalf("verify metrics diverge:\n%+v\n%+v", va, vb)
	}
	if a.N() != b.N() {
		t.Fatalf("n %d vs %d", a.N(), b.N())
	}
	for i := 0; i < a.N(); i++ {
		if a.QualityOf(i) != b.QualityOf(i) {
			t.Fatalf("resource %d quality %.17g vs %.17g", i, a.QualityOf(i), b.QualityOf(i))
		}
		if a.Count(i) != b.Count(i) {
			t.Fatalf("resource %d count %d vs %d", i, a.Count(i), b.Count(i))
		}
	}
}

// eventStream flattens every resource's future posts into one
// deterministic interleaved event sequence.
func eventStream(specs []ResourceSpec, seqs []tags.Seq) []PostEvent {
	var events []PostEvent
	for k := 0; ; k++ {
		progress := false
		for i := range specs {
			at := len(specs[i].Initial) + k
			if at < len(seqs[i]) {
				events = append(events, PostEvent{Resource: i, Post: seqs[i][at]})
				progress = true
			}
		}
		if !progress {
			return events
		}
	}
}

// IngestBatch and IngestMany must be bit-identical to one-at-a-time
// Ingest — for both the map reference representation and the hybrid
// dense counts, with and without a declared tag universe.
func TestBatchMatchesSequential(t *testing.T) {
	for _, universe := range []int{0, 4096} {
		specs, seqs := testSpecs(t, 30, 11)
		cfg := Config{Omega: 5, Shards: 4, UnderThreshold: 10, TagUniverse: universe}
		seq, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		many, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		events := eventStream(specs, seqs)
		for _, ev := range events {
			if err := seq.Ingest(ev.Resource, ev.Post); err != nil {
				t.Fatal(err)
			}
		}
		// Per-resource IngestBatch in the same global order: feed each
		// event as a singleton batch interleaved with occasional runs.
		for k := 0; k < len(events); {
			run := 1
			for k+run < len(events) && run < 7 && events[k+run].Resource == events[k].Resource {
				run++
			}
			posts := make([]tags.Post, 0, run)
			for j := 0; j < run; j++ {
				posts = append(posts, events[k+j].Post)
			}
			if err := batched.IngestBatch(events[k].Resource, posts); err != nil {
				t.Fatal(err)
			}
			k += run
		}
		// Cross-resource IngestMany in chunks of 64.
		for k := 0; k < len(events); k += 64 {
			end := k + 64
			if end > len(events) {
				end = len(events)
			}
			if err := many.IngestMany(events[k:end]); err != nil {
				t.Fatal(err)
			}
		}
		requireBitIdentical(t, seq, batched)
		requireBitIdentical(t, seq, many)
	}
}

// The hybrid dense representation (TagUniverse > 0) must be bit-identical
// to the map reference representation under the same ingest stream.
func TestDenseUniverseMatchesMapReference(t *testing.T) {
	specs, seqs := testSpecs(t, 20, 13)
	mapEng, err := New(Config{Omega: 5, Shards: 2, UnderThreshold: 10}, specs)
	if err != nil {
		t.Fatal(err)
	}
	denseEng, err := New(Config{Omega: 5, Shards: 2, UnderThreshold: 10, TagUniverse: 64}, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range eventStream(specs, seqs) {
		if err := mapEng.Ingest(ev.Resource, ev.Post); err != nil {
			t.Fatal(err)
		}
		if err := denseEng.Ingest(ev.Resource, ev.Post); err != nil {
			t.Fatal(err)
		}
	}
	requireBitIdentical(t, mapEng, denseEng)
}

// Concurrent IngestMany across goroutines (resource-striped, so each
// resource's order is preserved) must agree with the sequential oracle.
// Run under -race this proves the batch path's locking is sound.
func TestConcurrentIngestMany(t *testing.T) {
	specs, seqs := testSpecs(t, 48, 17)
	cfg := Config{Omega: 5, Shards: 8, UnderThreshold: 10, TagUniverse: 4096}
	eng, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	events := eventStream(specs, seqs)
	for _, ev := range events {
		if err := oracle.Ingest(ev.Resource, ev.Post); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []PostEvent
			flush := func() {
				if len(buf) == 0 {
					return
				}
				if err := eng.IngestMany(buf); err != nil {
					t.Error(err)
				}
				buf = buf[:0]
			}
			for _, ev := range events {
				if ev.Resource%workers != w {
					continue
				}
				buf = append(buf, ev)
				if len(buf) >= 32 {
					flush()
				}
			}
			flush()
		}(w)
	}
	wg.Wait()
	// Concurrent apply order across shards differs, so compare against
	// the full-scan oracle (integer metrics exact, quality to within
	// reassociation of the compensated shard sums).
	requireMetricsMatch(t, eng.Snapshot(), eng.VerifyMetrics())
	requireMetricsMatch(t, eng.Snapshot(), oracle.VerifyMetrics())
	for i := 0; i < eng.N(); i++ {
		if eng.QualityOf(i) != oracle.QualityOf(i) {
			t.Fatalf("resource %d quality diverges", i)
		}
	}
}

// A batched run's WAL must contain exactly the records of a sequential
// run, in a per-resource order that replays to the identical engine
// state after recovery.
func TestWALGroupCommitRecovery(t *testing.T) {
	dir := t.TempDir()
	wal, err := tagstore.Open(dir, tagstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs, seqs := testSpecs(t, 10, 19)
	cfg := Config{Omega: 5, Shards: 3, UnderThreshold: 10, TagUniverse: 4096, WAL: wal}
	eng, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	events := eventStream(specs, seqs)
	for k := 0; k < len(events); k += 48 {
		end := k + 48
		if end > len(events) {
			end = len(events)
		}
		if err := eng.IngestMany(events[k:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-recovery: reopen the log, replay into a fresh engine.
	re, err := tagstore.Open(dir, tagstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if int(re.Records()) != len(events) {
		t.Fatalf("wal has %d records, want %d", re.Records(), len(events))
	}
	recovered, err := New(Config{Omega: 5, Shards: 3, UnderThreshold: 10, TagUniverse: 4096}, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < recovered.N(); i++ {
		posts, err := re.Posts(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := recovered.IngestBatch(i, posts); err != nil {
			t.Fatal(err)
		}
	}
	oracle, err := New(Config{Omega: 5, Shards: 3, UnderThreshold: 10, TagUniverse: 4096}, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := oracle.Ingest(ev.Resource, ev.Post); err != nil {
			t.Fatal(err)
		}
	}
	// Recovery replays resource by resource, a different aggregation
	// order than the live interleave, so the compensated quality sum can
	// differ by reassociation ULPs; counts, integer metrics and every
	// per-resource quality are exact.
	requireMetricsMatch(t, recovered.Snapshot(), oracle.VerifyMetrics())
	for i := 0; i < recovered.N(); i++ {
		if recovered.QualityOf(i) != oracle.QualityOf(i) {
			t.Fatalf("resource %d quality %.17g vs %.17g", i, recovered.QualityOf(i), oracle.QualityOf(i))
		}
		if recovered.Count(i) != oracle.Count(i) {
			t.Fatalf("resource %d count %d vs %d", i, recovered.Count(i), oracle.Count(i))
		}
	}
}

// The WAL record id must never silently truncate a resource index: New
// rejects WAL-configured engines whose resource count exceeds the
// 32-bit id space, and every ingest validates its index against n.
func TestWALResourceIDGuard(t *testing.T) {
	if !walCapacityOK(1 << 20) {
		t.Error("in-range resource count rejected")
	}
	// The boundary cases only exist where int can exceed 32 bits; on a
	// 32-bit platform no representable n can overflow the id space. The
	// limits go through int64 variables so the conversions stay legal
	// (and unexercised) in a GOARCH=386 build.
	if math.MaxInt > math.MaxUint32 {
		last := int64(math.MaxUint32)
		if !walCapacityOK(int(last)) || !walCapacityOK(int(last+1)) {
			t.Error("in-range resource counts rejected")
		}
		if walCapacityOK(int(last + 2)) {
			t.Error("first overflowing resource count accepted")
		}
		huge := int64(1) << 40
		if walCapacityOK(int(huge)) {
			t.Error("huge resource count accepted")
		}
	}
}

// Hybrid dense paths must tolerate malformed (negative) tag ids the way
// the map reference form does — counted, never an index panic — even
// through the engine's dense ref lookup.
func TestNegativeTagIDsSafe(t *testing.T) {
	h, m := sparse.NewHybridCounts(0), sparse.NewCounts()
	bad := tags.Post{-3, 1} // hand-built; NewPost would reject it
	if ho, mo := h.Add(bad), m.Add(bad); ho != mo {
		t.Fatalf("overlap %d vs %d", ho, mo)
	}
	if h.Get(-3) != 1 || h.Get(-3) != m.Get(-3) || h.Norm2() != m.Norm2() {
		t.Fatal("negative-id accounting diverges from map form")
	}
	h.Remove(bad)
	m.Remove(bad)
	if h.Get(-3) != 0 || h.Norm2() != m.Norm2() {
		t.Fatal("negative-id removal diverges from map form")
	}

	specs, _ := testSpecs(t, 4, 29)
	e, err := New(Config{Omega: 5, Shards: 2, UnderThreshold: 10, TagUniverse: 4096}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(1, bad); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestMany([]PostEvent{{Resource: 0, Post: bad}}); err != nil {
		t.Fatal(err)
	}
	requireMetricsMatch(t, e.Snapshot(), e.VerifyMetrics())
}

// Batch entry points validate like Ingest.
func TestBatchValidation(t *testing.T) {
	specs, _ := testSpecs(t, 4, 23)
	e, err := New(Config{Omega: 5, Shards: 2, UnderThreshold: 10}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(9, []tags.Post{{1}}); err == nil {
		t.Error("out-of-range batch accepted")
	}
	if err := e.IngestBatch(0, []tags.Post{{1}, {}}); err == nil {
		t.Error("empty post in batch accepted")
	}
	if err := e.IngestBatch(0, nil); err != nil {
		t.Errorf("empty batch rejected: %v", err)
	}
	if err := e.IngestMany([]PostEvent{{Resource: -1, Post: tags.Post{1}}}); err == nil {
		t.Error("negative index event accepted")
	}
	if err := e.IngestMany([]PostEvent{{Resource: 0, Post: tags.Post{}}}); err == nil {
		t.Error("empty post event accepted")
	}
	if err := e.IngestMany(nil); err != nil {
		t.Errorf("empty event batch rejected: %v", err)
	}
	// Callers classify these by identity (errors.Is), and the sentinels
	// stand inside the messages, so the texts are what they always were.
	for _, tc := range []struct {
		err  error
		is   error
		text string
	}{
		{e.Ingest(9, tags.Post{1}), ErrResourceRange, "engine: resource index 9 out of range [0,4)"},
		{e.Ingest(0, nil), ErrEmptyPost, "engine: empty post for resource 0"},
		{e.IngestBatch(-2, nil), ErrResourceRange, "engine: resource index -2 out of range [0,4)"},
		{e.IngestBatch(0, []tags.Post{{1}, {}}), ErrEmptyPost, "engine: empty post 1 for resource 0"},
		{e.IngestMany([]PostEvent{{0, tags.Post{1}}, {4, tags.Post{1}}}), ErrResourceRange, "engine: event 1: resource index 4 out of range [0,4)"},
		{e.IngestMany([]PostEvent{{3, nil}}), ErrEmptyPost, "engine: event 0: empty post for resource 3"},
		{e.Replay(4, tags.Post{1}), ErrResourceRange, "engine: resource index 4 out of range [0,4)"},
		{e.Replay(1, nil), ErrEmptyPost, "engine: empty post for resource 1"},
		{e.EnsureResident(7), ErrResourceRange, "engine: resource index 7 out of range [0,4)"},
	} {
		if !errors.Is(tc.err, tc.is) || tc.err.Error() != tc.text {
			t.Errorf("got %q (is %q: %v), want %q", tc.err, tc.is, errors.Is(tc.err, tc.is), tc.text)
		}
	}
	// Validation happens before any mutation.
	if got := e.Snapshot().Posts; got != 0 {
		t.Errorf("validation mutated state: %d posts", got)
	}
}
