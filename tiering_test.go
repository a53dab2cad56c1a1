package incentivetag

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incentivetag/internal/ir"
)

// nextPost returns resource i's next recorded live post, falling back
// to its last one when the recorded sequence is exhausted; cursor
// starts at the primed prefix like liveEvents.
func nextPost(ds *Dataset, cursor []int, i int) Post {
	r := &ds.Resources[i]
	k := cursor[i]
	cursor[i]++
	if k < len(r.Seq) {
		return r.Seq[k]
	}
	return r.Seq[len(r.Seq)-1]
}

func startCursor(ds *Dataset) []int {
	cursor := make([]int, ds.N())
	for i := range cursor {
		cursor[i] = ds.Resources[i].Initial
	}
	return cursor
}

// The Service-level residency property: a tiered service under a tiny
// resident budget, with evictions interleaved into an arbitrary mix of
// ingest, batch ingest, allocation and queries, stays bit-identical to
// an untiered twin on every observable surface — including the
// allocation decisions themselves, which read MA and quality aggregates
// that must survive freeze/rehydrate cycles exactly.
func TestServiceTieredBitIdentical(t *testing.T) {
	ds := testDS(t)
	plain, err := NewService(ds, ServiceOptions{Strategy: "FP-MU"})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	tiered, err := NewService(ds, ServiceOptions{
		Strategy:             "FP-MU",
		MaxResidentResources: 10,
		TierInterval:         -1, // policy runs only via TierNow, keeping the interleaving deterministic
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()

	rng := rand.New(rand.NewSource(77))
	cursor := startCursor(ds)
	for step := 0; step < 600; step++ {
		ctx := fmt.Sprintf("step %d", step)
		switch rng.Intn(10) {
		case 0, 1, 2:
			i := rng.Intn(ds.N())
			p := nextPost(ds, cursor, i)
			if err := plain.Ingest(i, p); err != nil {
				t.Fatal(err)
			}
			if err := tiered.Ingest(i, p); err != nil {
				t.Fatal(err)
			}
		case 3:
			i := rng.Intn(ds.N())
			posts := []PostEvent{{Resource: i, Post: nextPost(ds, cursor, i)}, {Resource: i, Post: nextPost(ds, cursor, i)}}
			if err := plain.IngestMany(posts); err != nil {
				t.Fatal(err)
			}
			if err := tiered.IngestMany(posts); err != nil {
				t.Fatal(err)
			}
		case 4:
			evs := make([]PostEvent, 3)
			for j := range evs {
				i := rng.Intn(ds.N())
				evs[j] = PostEvent{Resource: i, Post: nextPost(ds, cursor, i)}
			}
			if err := plain.IngestMany(evs); err != nil {
				t.Fatal(err)
			}
			if err := tiered.IngestMany(evs); err != nil {
				t.Fatal(err)
			}
		case 5:
			// The allocator reads MA/quality across the whole corpus: the
			// tiered service must CHOOSE the same resource.
			rp, lp, okp := plain.Lease(50)
			rt, lt, okt := tiered.Lease(50)
			if okp != okt || (okp && rp != rt) {
				t.Fatalf("%s: lease diverged: (%d,%v) vs (%d,%v)", ctx, rp, okp, rt, okt)
			}
			if !okp {
				break
			}
			if rng.Intn(4) == 0 {
				if err := plain.Expire(lp); err != nil {
					t.Fatal(err)
				}
				if err := tiered.Expire(lt); err != nil {
					t.Fatal(err)
				}
				break
			}
			p := nextPost(ds, cursor, rp)
			if err := plain.Fulfill(lp, p); err != nil {
				t.Fatal(err)
			}
			if err := tiered.Fulfill(lt, p); err != nil {
				t.Fatal(err)
			}
		case 6:
			if _, err := tiered.TierNow(); err != nil {
				t.Fatal(err)
			}
		case 7, 8:
			subject := rng.Intn(ds.N())
			k := 1 + rng.Intn(12)
			got, _, err := tiered.TopK(subject, k)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := plain.TopK(subject, k)
			if err != nil {
				t.Fatal(err)
			}
			assertScoredEqual(t, ctx+" topk", got, want)
		case 9:
			q := ds.Resources[rng.Intn(ds.N())].Seq[0]
			got, _, err := tiered.Search(q, 8)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := plain.Search(q, 8)
			if err != nil {
				t.Fatal(err)
			}
			assertScoredEqual(t, ctx+" search", got, want)
		}
		if math.Float64bits(tiered.Snapshot().MeanQuality) != math.Float64bits(plain.Snapshot().MeanQuality) {
			t.Fatalf("%s: quality diverged: %v vs %v", ctx, tiered.Snapshot().MeanQuality, plain.Snapshot().MeanQuality)
		}
	}
	// Final sweep over every subject, then the full metric comparison.
	for i := 0; i < ds.N(); i++ {
		got, _, err := tiered.TopK(i, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := plain.TopK(i, 10)
		if err != nil {
			t.Fatal(err)
		}
		assertScoredEqual(t, fmt.Sprintf("final topk %d", i), got, want)
	}
	assertServicesBitIdentical(t, plain, tiered)

	st := tiered.Residency()
	if !st.Enabled || st.MaxResident != 10 {
		t.Fatalf("residency config not surfaced: %+v", st)
	}
	if st.Evictions == 0 || st.Rehydrations == 0 {
		t.Fatalf("run exercised no tier transitions: %+v", st)
	}
	if st.RehydrateCount != st.Rehydrations {
		t.Fatalf("rehydrate histogram saw %d samples for %d rehydrations", st.RehydrateCount, st.Rehydrations)
	}
	if st.RehydrateP99 < st.RehydrateP50 || st.RehydrateP99 <= 0 {
		t.Fatalf("rehydrate quantiles malformed: p50=%v p99=%v", st.RehydrateP50, st.RehydrateP99)
	}
	if ust := plain.Residency(); ust.Enabled || ust.Cold != 0 || ust.Evictions != 0 {
		t.Fatalf("untiered service reports tier activity: %+v", ust)
	}
}

// A tiered service must boot COLD from a snapshot — zero
// resident resources — and still answer
// every query and metric read bit-identically to an untiered service
// recovered from the same directory.
func TestServiceTieredColdBootFromSnapshot(t *testing.T) {
	ds := testDS(t)
	dir := t.TempDir()
	seed, err := NewService(ds, durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range liveEvents(ds, 500) {
		if err := seed.Ingest(ev.Resource, ev.Post); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Close(); err != nil { // writes the final snapshot
		t.Fatal(err)
	}

	// Reference: plain recovery from a crash image of the directory.
	ref, err := NewService(ds, durableOpts(copyDir(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	opts := durableOpts(dir)
	opts.MaxResidentResources = 8
	opts.TierInterval = -1
	cold, err := NewService(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := cold.RecoveryStats()
	if !rec.SnapshotLoaded || rec.ReplayedRecords != 0 || rec.RecoveredPosts != 500 {
		t.Fatalf("cold-boot recovery stats: %+v", rec)
	}
	st := cold.Residency()
	if st.Resident != 0 || st.Cold != ds.N() {
		t.Fatalf("cold boot is not cold: %+v", st)
	}
	// Scalar surfaces answer without waking anything.
	if math.Float64bits(cold.Snapshot().MeanQuality) != math.Float64bits(ref.Snapshot().MeanQuality) {
		t.Fatalf("quality %v != %v", cold.Snapshot().MeanQuality, ref.Snapshot().MeanQuality)
	}
	if cold.Snapshot() != ref.Snapshot() {
		t.Fatalf("metrics differ:\nwant %+v\ngot  %+v", ref.Snapshot(), cold.Snapshot())
	}
	if got := cold.Residency(); got.Resident != 0 {
		t.Fatalf("scalar reads forced residency: %+v", got)
	}
	// Queries are exact straight off the frozen state, and only touched
	// subjects warm up.
	for i := 0; i < ds.N(); i++ {
		got, _, err := cold.TopK(i, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.TopK(i, 10)
		if err != nil {
			t.Fatal(err)
		}
		assertScoredEqual(t, fmt.Sprintf("cold-boot topk %d", i), got, want)
	}
	q := ds.Resources[3].Seq[0]
	got, _, err := cold.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	assertScoredEqual(t, "cold-boot search", got, want)

	// Live traffic lands on the cold-booted engine (rehydrate-on-touch), the
	// policy re-freezes, and the service shuts down through a final
	// snapshot taken over a mixed hot/cold corpus.
	cursor := startCursor(ds)
	for i := 0; i < 60; i++ {
		r := i % ds.N()
		p := nextPost(ds, cursor, r)
		if err := cold.Ingest(r, p); err != nil {
			t.Fatal(err)
		}
		if err := ref.Ingest(r, p); err != nil {
			t.Fatal(err)
		}
	}
	if st := cold.Residency(); st.Rehydrations == 0 {
		t.Fatalf("ingest rehydrated nothing: %+v", st)
	}
	if _, err := cold.TierNow(); err != nil {
		t.Fatal(err)
	}
	if st := cold.Residency(); st.Resident > 8 {
		t.Fatalf("TierNow left %d resident, budget 8", st.Resident)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	// The snapshot Close wrote from the tiered engine reopens into the
	// same state: freeze → export is bit-identical to export-while-hot.
	re, err := NewService(ds, durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if math.Float64bits(re.Snapshot().MeanQuality) != math.Float64bits(ref.Snapshot().MeanQuality) {
		t.Fatalf("reopened quality %v != %v", re.Snapshot().MeanQuality, ref.Snapshot().MeanQuality)
	}
	assertServicesBitIdentical(t, ref, re)
}

// The background tiering loop enforces the budget without any explicit
// TierNow calls, concurrently with ingest and queries (exercised under
// -race in CI).
func TestServiceTierLoopBackground(t *testing.T) {
	ds := testDS(t)
	svc, err := NewService(ds, ServiceOptions{
		Strategy:             "FP",
		MaxResidentResources: 6,
		TierInterval:         2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cursor := startCursor(ds)
		for i := 0; i < 400; i++ {
			r := i % ds.N()
			if err := svc.Ingest(r, nextPost(ds, cursor, r)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, _, err := svc.TopK(i%ds.N(), 5); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := svc.Residency()
		if st.Evictions > 0 && st.Resident <= 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tier loop never enforced the budget: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// The view-lock seam under -race: writers ingest into resources a tier
// pass keeps freezing, one goroutine loops TierNow, and readers query
// cold and hot subjects through TopK, SubjectTopK and Search while the
// index reads the engine's counts in place. Every SubjectTopK export
// must square-sum to its norm² (one view, never a half-applied post or a
// half-swapped residency), and once traffic stops every TopK equals an
// index rebuilt from the engine's state, bit for bit.
func TestServiceTieredViewLockRace(t *testing.T) {
	ds := testDS(t)
	svc, err := NewService(ds, ServiceOptions{Strategy: "FP", MaxResidentResources: 4, TierInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// One pass up front, so readers meet cold subjects even if the tier
	// goroutine is slow to be scheduled.
	if _, err := svc.TierNow(); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			post := func() (int, Post) {
				i := rng.Intn(ds.N())
				seq := ds.Resources[i].Seq
				return i, seq[rng.Intn(len(seq))]
			}
			for k := 0; !stop.Load(); k++ {
				var err error
				if k%4 == 0 {
					evs := make([]PostEvent, 3)
					for j := range evs {
						evs[j].Resource, evs[j].Post = post()
					}
					err = svc.IngestMany(evs)
				} else {
					err = svc.Ingest(post())
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := svc.TierNow(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(600))
	var cold, hot int
	for q := 0; q < 400 && !t.Failed(); q++ {
		subject := rng.Intn(ds.N())
		if svc.eng.Resident(subject) {
			hot++
		} else {
			cold++
		}
		if _, _, err := svc.TopK(subject, 5); err != nil {
			t.Fatal(err)
		}
		entries, norm2, _, epoch, err := svc.SubjectTopK(subject, 5)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, e := range entries {
			sum += float64(e.Count) * float64(e.Count)
		}
		if sum != norm2 {
			t.Fatalf("query %d, subject %d at epoch %d: counts square-sum to %v, exported norm² %v", q, subject, epoch, sum, norm2)
		}
		if _, _, err := svc.Search(ds.Resources[subject].Seq[0], 5); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if cold == 0 || hot == 0 {
		t.Fatalf("readers met %d cold and %d hot subjects; the schedule must cross both", cold, hot)
	}
	oracle := ir.BuildInverted(svc.SnapshotRFDs())
	for i := 0; i < ds.N(); i++ {
		got, _, err := svc.TopK(i, 10)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.TopK(i, 10)
		if len(got) != len(want) {
			t.Fatalf("subject %d: %d results, rebuilt index has %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].ID != want[j].ID || math.Float64bits(got[j].Score) != math.Float64bits(want[j].Score) {
				t.Fatalf("subject %d rank %d: %+v, rebuilt index has %+v", i, j, got[j], want[j])
			}
		}
	}
}
