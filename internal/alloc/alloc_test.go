package alloc_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"incentivetag/internal/alloc"
	"incentivetag/internal/engine"
	"incentivetag/internal/experiments"
	"incentivetag/internal/sim"
	"incentivetag/internal/strategy"
	"incentivetag/internal/synth"
	"incentivetag/internal/tags"
)

// servedStrategies are the policies a live allocator serves (FC models
// organic traffic, not incentive allocation, and is excluded the same
// way the public Service excludes it).
var servedStrategies = []string{"RR", "FP", "MU", "FP-MU"}

func newStrategy(t testing.TB, name string) strategy.Strategy {
	t.Helper()
	s, err := experiments.NewStrategy(name, 5)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	corpusOnce sync.Once
	corpusData *sim.Data
)

func corpus(t testing.TB) *sim.Data {
	t.Helper()
	corpusOnce.Do(func() {
		cfg := synth.DefaultConfig(80, 7)
		cfg.Drift = nil
		ds, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		corpusData = sim.FromDataset(ds, 0)
	})
	return corpusData
}

func newEngine(t testing.TB, data *sim.Data, shards int) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Config{
		Omega:          5,
		Shards:         shards,
		UnderThreshold: data.UnderThreshold,
		TagUniverse:    data.TagUniverse,
	}, data.EngineSpecs())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// postFor emulates a live tagger completing a task on resource i: the
// next recorded post, or a restatement of the final recorded post once
// the sequence is exhausted (the serving convention of cmd/tagserve).
func postFor(data *sim.Data, eng *engine.Engine, i int) tags.Post {
	seq := data.Seqs[i]
	if k := eng.Count(i); k < len(seq) {
		return seq[k]
	}
	return seq[len(seq)-1]
}

// TestSequentialEquivalence is the acceptance gate of the lease
// allocator: with one worker settling every lease before taking the
// next, the Lease/Fulfill path must reproduce Algorithm 1's sequential
// loop (Choose → Ingest → Update, driven on the bare strategy) decision
// for decision, and leave bit-identical engine state.
func TestSequentialEquivalence(t *testing.T) {
	data := corpus(t)
	const budget = 400
	for _, name := range servedStrategies {
		t.Run(name, func(t *testing.T) {
			// Reference: the strategy driven directly, no allocator.
			legacyEng := newEngine(t, data, engine.DefaultShards)
			legacy := newStrategy(t, name)
			legacy.Init(engine.NewView(legacyEng, 1))
			var legacyChoices []int
			for b := 0; b < budget; b++ {
				i, ok := legacy.Choose(budget - b)
				if !ok {
					break
				}
				if err := legacyEng.Ingest(i, postFor(data, legacyEng, i)); err != nil {
					t.Fatal(err)
				}
				legacy.Update(i)
				legacyChoices = append(legacyChoices, i)
			}

			// Lease path, sequential discipline.
			leaseEng := newEngine(t, data, engine.DefaultShards)
			a := alloc.New(newStrategy(t, name), engine.NewView(leaseEng, 1), leaseEng)
			var leaseChoices []int
			for b := 0; b < budget; b++ {
				i, lease, ok := a.Lease(budget - b)
				if !ok {
					break
				}
				if err := a.Fulfill(lease, postFor(data, leaseEng, i)); err != nil {
					t.Fatal(err)
				}
				leaseChoices = append(leaseChoices, i)
			}

			if len(leaseChoices) != len(legacyChoices) {
				t.Fatalf("lease path made %d allocations, legacy %d", len(leaseChoices), len(legacyChoices))
			}
			for k := range leaseChoices {
				if leaseChoices[k] != legacyChoices[k] {
					t.Fatalf("allocation %d diverges: lease chose %d, legacy %d", k, leaseChoices[k], legacyChoices[k])
				}
			}
			ml, me := leaseEng.Snapshot(), legacyEng.Snapshot()
			if ml != me {
				t.Fatalf("final metrics diverge:\nlease  %+v\nlegacy %+v", ml, me)
			}
		})
	}
}

// TestLeaseEdgeCases covers the settle-state machine: double fulfill,
// expire-then-fulfill, fulfill/expire of a never-issued lease, and the
// re-arm contract of Expire.
func TestLeaseEdgeCases(t *testing.T) {
	data := corpus(t)
	eng := newEngine(t, data, 1)
	a := alloc.New(strategy.NewFP(), engine.NewView(eng, 1), eng)

	i, lease, ok := a.Lease(1 << 20)
	if !ok {
		t.Fatal("no lease from a fresh allocator")
	}
	if got := a.InFlight(i); got != 1 {
		t.Fatalf("InFlight(%d) = %d after lease", i, got)
	}
	if err := a.Fulfill(lease, postFor(data, eng, i)); err != nil {
		t.Fatal(err)
	}
	if err := a.Fulfill(lease, postFor(data, eng, i)); err == nil {
		t.Fatal("double fulfill accepted")
	}
	if err := a.Expire(lease); err == nil {
		t.Fatal("expire of a fulfilled lease accepted")
	}

	// Expire re-arms: FP's key (the post count) is unchanged, so the
	// very next lease picks the same resource again.
	posts := eng.Snapshot().Posts
	j, lease2, ok := a.Lease(1 << 20)
	if !ok {
		t.Fatal("no second lease")
	}
	if err := a.Expire(lease2); err != nil {
		t.Fatal(err)
	}
	if eng.Snapshot().Posts != posts {
		t.Fatal("expire ingested a post")
	}
	if err := a.Fulfill(lease2, postFor(data, eng, j)); err == nil {
		t.Fatal("fulfill of an expired lease accepted")
	}
	j2, lease3, ok := a.Lease(1 << 20)
	if !ok || j2 != j {
		t.Fatalf("after expire, lease chose %d (ok=%v), want re-armed %d", j2, ok, j)
	}
	if err := a.Fulfill(lease3, postFor(data, eng, j2)); err != nil {
		t.Fatal(err)
	}

	if err := a.Fulfill(alloc.LeaseID(9999), postFor(data, eng, 0)); err == nil {
		t.Fatal("fulfill of a never-issued lease accepted")
	}
	if err := a.Expire(alloc.LeaseID(9999)); err == nil {
		t.Fatal("expire of a never-issued lease accepted")
	}

	st := a.StatsSnapshot()
	want := alloc.Stats{Issued: 3, Outstanding: 0, Fulfilled: 2, Expired: 1}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestConcurrentLeasesDistinct: leases held simultaneously must name
// distinct resources, for heap and cursor strategies alike (the cursor
// case is what the in-flight mask exists for).
func TestConcurrentLeasesDistinct(t *testing.T) {
	data := corpus(t)
	for _, name := range servedStrategies {
		t.Run(name, func(t *testing.T) {
			eng := newEngine(t, data, engine.DefaultShards)
			a := alloc.New(newStrategy(t, name), engine.NewView(eng, 1), eng)
			const hold = 12
			seen := make(map[int]alloc.LeaseID, hold)
			for k := 0; k < hold; k++ {
				i, lease, ok := a.Lease(1 << 20)
				if !ok {
					t.Fatalf("lease %d refused with %d outstanding", k, a.Outstanding())
				}
				if prev, dup := seen[i]; dup {
					t.Fatalf("resource %d leased twice concurrently (leases %d and %d)", i, prev, lease)
				}
				seen[i] = lease
			}
			if got := a.Outstanding(); got != hold {
				t.Fatalf("Outstanding = %d, want %d", got, hold)
			}
			for i, lease := range seen {
				if err := a.Fulfill(lease, postFor(data, eng, i)); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestLeaseExhaustion: with every resource leased, a heap strategy has
// nothing left to choose; settling one lease makes allocation possible
// again.
func TestLeaseExhaustion(t *testing.T) {
	data := corpus(t)
	eng := newEngine(t, data, 1)
	a := alloc.New(strategy.NewFP(), engine.NewView(eng, 1), eng)
	n := eng.N()
	leases := make(map[int]alloc.LeaseID, n)
	for k := 0; k < n; k++ {
		i, lease, ok := a.Lease(1 << 20)
		if !ok {
			t.Fatalf("lease %d/%d refused", k, n)
		}
		leases[i] = lease
	}
	if _, _, ok := a.Lease(1 << 20); ok {
		t.Fatal("lease granted with every resource in flight")
	}
	for i, lease := range leases {
		if err := a.Fulfill(lease, postFor(data, eng, i)); err != nil {
			t.Fatal(err)
		}
		break
	}
	if _, _, ok := a.Lease(1 << 20); !ok {
		t.Fatal("no lease after a resource was freed")
	}
}

// TestConcurrentLeaseRace drives many workers through the full lease
// lifecycle concurrently for every served strategy. Run under -race in
// CI. Each worker asserts single ownership of its leased resource via a
// CAS flag; the flag is released before settling, because the moment
// Fulfill/Expire runs the resource may legitimately be re-leased.
func TestConcurrentLeaseRace(t *testing.T) {
	data := corpus(t)
	for _, name := range servedStrategies {
		t.Run(name, func(t *testing.T) {
			eng := newEngine(t, data, engine.DefaultShards)
			a := alloc.New(newStrategy(t, name), engine.NewView(eng, 1), eng)
			owned := make([]int32, eng.N())
			const workers = 8
			const perWorker = 150
			var fulfilled, expired atomic.Int64
			var wg sync.WaitGroup
			var raced atomic.Bool
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := 0; k < perWorker; k++ {
						i, lease, ok := a.Lease(1 << 20)
						if !ok {
							continue
						}
						if !atomic.CompareAndSwapInt32(&owned[i], 0, 1) {
							raced.Store(true)
							return
						}
						p := data.Seqs[i][len(data.Seqs[i])-1]
						atomic.StoreInt32(&owned[i], 0)
						// Every 7th task is abandoned, exercising expiry
						// under contention.
						if (w+k)%7 == 0 {
							if err := a.Expire(lease); err != nil {
								t.Error(err)
								return
							}
							expired.Add(1)
							continue
						}
						if err := a.Fulfill(lease, p); err != nil {
							t.Error(err)
							return
						}
						fulfilled.Add(1)
					}
				}(w)
			}
			wg.Wait()
			if raced.Load() {
				t.Fatal("two workers held the same resource concurrently")
			}
			if a.Outstanding() != 0 {
				t.Fatalf("%d leases left outstanding", a.Outstanding())
			}
			m := eng.Snapshot()
			if int64(m.Posts) != fulfilled.Load() {
				t.Fatalf("engine saw %d posts, %d leases fulfilled", m.Posts, fulfilled.Load())
			}
			st := a.StatsSnapshot()
			if st.Fulfilled != uint64(fulfilled.Load()) || st.Expired != uint64(expired.Load()) {
				t.Fatalf("stats %+v, want fulfilled=%d expired=%d", st, fulfilled.Load(), expired.Load())
			}
		})
	}
}

func ExampleAllocator() {
	// A tiny two-resource engine: no references, so quality stays 0 —
	// the example only shows the lease lifecycle.
	specs := []engine.ResourceSpec{
		{Initial: tags.Seq{{0}, {0, 1}}},
		{Initial: tags.Seq{{1}}},
	}
	eng, _ := engine.New(engine.Config{Omega: 2}, specs)
	a := alloc.New(strategy.NewFP(), engine.NewView(eng, 1), eng)

	i, lease, _ := a.Lease(10)            // fewest-posts-first picks resource 1
	_ = a.Fulfill(lease, tags.Post{1, 2}) // worker's post is ingested
	fmt.Println(i, eng.Count(1))
	// Output: 1 2
}
