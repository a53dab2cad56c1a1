package engine

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// payloadOf is the strongest bit-identity probe: every count, every
// ring float, every compensated aggregate, byte for byte.
func payloadOf(e *Engine) []byte {
	payload, _ := e.AppendSnapshot(nil)
	return payload
}

// TestResidencyPropertyBitIdentical drives tiered engines and a
// never-evicted twin through a random interleaving of every mutating
// and residency operation and demands bit-identical observables
// throughout — the tentpole guarantee: eviction and rehydration are
// invisible to every read. The tiered side is an engine built hot and
// one booted cold by Restore, so the dot a cold resource retains —
// computed by Restore, kept by every freeze — is held to the twin's on
// every post that follows.
func TestResidencyPropertyBitIdentical(t *testing.T) {
	for _, universe := range []int{0, 512} {
		const n = 48
		specs := stateSpecs(n, 11)
		cfg := Config{Omega: 5, Shards: 4, UnderThreshold: 10, TagUniverse: universe}
		oracle, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		tiered, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		booted, _, err := Restore(cfg, specs, payloadOf(oracle))
		if err != nil {
			t.Fatal(err)
		}
		engines := []*Engine{tiered, booted}
		all := append([]*Engine{oracle}, engines...)
		rng := rand.New(rand.NewSource(23))
		for step := 0; step < 4000; step++ {
			i := rng.Intn(n)
			switch op := rng.Intn(10); {
			case op < 4: // single ingest
				p := testPost(rng)
				for _, e := range all {
					if err := e.Ingest(i, p); err != nil {
						t.Fatal(err)
					}
				}
			case op < 5: // same-resource batch
				posts := make([]PostEvent, 1+rng.Intn(3))
				for k := range posts {
					posts[k] = PostEvent{Resource: i, Post: testPost(rng)}
				}
				for _, e := range all {
					if err := e.IngestMany(posts); err != nil {
						t.Fatal(err)
					}
				}
			case op < 6: // cross-resource batch
				evs := make([]PostEvent, 1+rng.Intn(5))
				for k := range evs {
					evs[k] = PostEvent{Resource: rng.Intn(n), Post: testPost(rng)}
				}
				for _, e := range all {
					if err := e.IngestMany(evs); err != nil {
						t.Fatal(err)
					}
				}
			case op < 8: // evict: one resource, or everything colder than now
				one := rng.Intn(2) == 0
				for _, e := range engines {
					if one {
						if _, err := e.Evict(i); err != nil {
							t.Fatal(err)
						}
					} else {
						e.EvictColder(e.AccessClock() + 1)
					}
				}
			case op < 9: // explicit rehydrate-on-touch
				for _, e := range engines {
					if err := e.ensureResident(i); err != nil {
						t.Fatal(err)
					}
				}
			default: // LRU budget eviction
				budget := 1 + rng.Intn(n)
				for _, e := range engines {
					e.EvictToBudget(budget, 0)
				}
			}
			// Reads must agree at every step, whatever the residency mix.
			for k, e := range engines {
				if qa, qb := e.QualityOf(i), oracle.QualityOf(i); qa != qb {
					t.Fatalf("engine %d step %d: quality %v != %v", k, step, qa, qb)
				}
				maA, okA := e.MA(i)
				maB, okB := oracle.MA(i)
				if okA != okB || maA != maB {
					t.Fatalf("engine %d step %d: MA (%v,%v) != (%v,%v)", k, step, maA, okA, maB, okB)
				}
				if step%500 == 0 {
					assertEnginesBitIdentical(t, e, oracle)
				}
			}
		}
		for k, e := range engines {
			st := e.Residency()
			if st.Evictions == 0 || st.Rehydrations == 0 {
				t.Fatalf("universe %d engine %d: property run exercised no transitions: %+v", universe, k, st)
			}
			assertEnginesBitIdentical(t, e, oracle)
			if !bytes.Equal(payloadOf(e), payloadOf(oracle)) {
				t.Fatalf("universe %d engine %d: marshalled states differ after evict/rehydrate interleaving", universe, k)
			}
		}
	}
}

// TestRestoreColdBoot round-trips an engine through the marshalled
// payload into a fully cold engine and checks (a) nothing is resident,
// (b) scalar reads answer bit-identically without forcing residency,
// (c) traffic rehydrates on touch and converges to the hot twin.
func TestRestoreColdBoot(t *testing.T) {
	for _, universe := range []int{0, 512} {
		const n = 40
		specs := stateSpecs(n, 5)
		cfg := Config{Omega: 5, Shards: 4, UnderThreshold: 10, TagUniverse: universe}
		live, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		for k := 0; k < 1200; k++ {
			if err := live.Ingest(rng.Intn(n), testPost(rng)); err != nil {
				t.Fatal(err)
			}
		}
		payload := payloadOf(live)

		cold, lastSeq, err := Restore(cfg, specs, payload)
		if err != nil {
			t.Fatal(err)
		}
		if lastSeq != 0 {
			t.Fatalf("lastSeq %d for WAL-less state", lastSeq)
		}
		st := cold.Residency()
		if st.Resident != 0 || st.Cold != n {
			t.Fatalf("cold boot residency: %+v", st)
		}
		// Scalar reads must not rehydrate — and must agree bit for bit.
		for i := 0; i < n; i++ {
			if qa, qb := cold.QualityOf(i), live.QualityOf(i); qa != qb {
				t.Fatalf("resource %d quality %v != %v", i, qa, qb)
			}
			maA, okA := cold.MA(i)
			maB, okB := live.MA(i)
			if okA != okB || maA != maB {
				t.Fatalf("resource %d MA (%v,%v) != (%v,%v)", i, maA, okA, maB, okB)
			}
			if cold.Count(i) != live.Count(i) {
				t.Fatalf("resource %d count differs", i)
			}
		}
		if got := cold.Residency(); got.Resident != 0 {
			t.Fatalf("scalar reads forced residency: %+v", got)
		}
		// Full-vector reads agree without changing residency.
		assertEnginesBitIdentical(t, cold, live)
		if got := cold.Residency(); got.Resident != 0 {
			t.Fatalf("verification reads forced residency: %+v", got)
		}
		// Touching half the corpus rehydrates exactly those resources,
		// and continued traffic stays bit-identical.
		for k := 0; k < 800; k++ {
			i := rng.Intn(n / 2)
			p := testPost(rng)
			if err := cold.Ingest(i, p); err != nil {
				t.Fatal(err)
			}
			if err := live.Ingest(i, p); err != nil {
				t.Fatal(err)
			}
		}
		st = cold.Residency()
		if st.Resident == 0 || st.Resident > n/2 {
			t.Fatalf("after touching %d resources: %+v", n/2, st)
		}
		assertEnginesBitIdentical(t, cold, live)
		if !bytes.Equal(payloadOf(cold), payloadOf(live)) {
			t.Fatal("marshalled states differ after mapped boot + traffic")
		}
	}
}

// TestEvictToBudgetLRU checks the policy mechanics: the oldest-touched
// resources freeze first and the budget bounds the survivors.
func TestEvictToBudgetLRU(t *testing.T) {
	const n = 24
	specs := stateSpecs(n, 9)
	e, err := New(Config{Omega: 5, Shards: 4, UnderThreshold: 10, TagUniverse: 512}, specs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// Touch resources in index order so recency == index.
	for i := 0; i < n; i++ {
		if err := e.Ingest(i, testPost(rng)); err != nil {
			t.Fatal(err)
		}
	}
	evicted := e.EvictToBudget(6, 0)
	if len(evicted) != n-6 {
		t.Fatalf("evicted %d, want %d", len(evicted), n-6)
	}
	for _, id := range evicted {
		if id >= n-6 {
			t.Fatalf("evicted recently-touched resource %d", id)
		}
	}
	st := e.Residency()
	if st.Resident != 6 || st.Cold != n-6 {
		t.Fatalf("census after budget eviction: %+v", st)
	}
	// Bytes-only budget: evicting to a tiny byte budget leaves at most
	// one survivor over it.
	e.EvictToBudget(0, 1)
	if st := e.Residency(); st.Resident != 0 {
		t.Fatalf("byte budget of 1 left %d resident", st.Resident)
	}
	// A no-op budget call changes nothing.
	if ids := e.EvictToBudget(0, 0); ids != nil {
		t.Fatalf("unbounded budget evicted %v", ids)
	}
}

// TestResidencyConcurrent hammers ingest, eviction, rehydration and
// census reads from concurrent goroutines — the -race companion of the
// sequential property test.
func TestResidencyConcurrent(t *testing.T) {
	const n = 64
	specs := stateSpecs(n, 13)
	e, err := New(Config{Omega: 5, Shards: 4, UnderThreshold: 10, TagUniverse: 512}, specs)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const perWorker = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < perWorker; k++ {
				i := rng.Intn(n)
				switch rng.Intn(6) {
				case 0:
					if _, err := e.Evict(i); err != nil {
						t.Error(err)
						return
					}
				case 1:
					e.EvictToBudget(n/2, 0)
				case 2:
					e.Residency()
					e.MA(i)
					e.QualityOf(i)
				default:
					if err := e.Ingest(i, testPost(rng)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(w) + 100)
	}
	wg.Wait()
	m := e.Snapshot()
	want := 0
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w) + 100))
		for k := 0; k < perWorker; k++ {
			i := rng.Intn(n)
			switch rng.Intn(6) {
			case 0, 1:
			case 2:
				_ = i
			default:
				testPost(rng)
				want++
			}
		}
	}
	if m.Posts != want {
		t.Fatalf("ingested %d posts, metrics say %d", want, m.Posts)
	}
}
