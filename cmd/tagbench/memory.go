package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"incentivetag"
	"incentivetag/internal/benchkit"
	"incentivetag/internal/engine"
	"incentivetag/internal/ir"
	"incentivetag/internal/tagstore"
)

// MemoryReport captures the memory-tiering benchmarks: the live heap a
// corpus costs all-resident versus tiered cold-majority (booted off the
// mmap'd snapshot), per-resource evict/rehydrate latency, and the query
// cost of serving a subject whose forward vector is frozen. Before any
// measurement counts, a tiered service under an aggressive residency
// budget must answer bit-identically to a never-evicted one over the
// same stream, or the benchmark aborts.
type MemoryReport struct {
	N              int `json:"n"`
	ResidentBudget int `json:"resident_budget"`

	AllResidentHeapBytes        int64   `json:"all_resident_heap_bytes"`
	TieredHeapBytes             int64   `json:"tiered_heap_bytes"`
	AllResidentBytesPerResource float64 `json:"all_resident_bytes_per_resource"`
	TieredBytesPerResource      float64 `json:"tiered_bytes_per_resource"`
	// BytesPerResident is the reduction ratio gated in CI
	// (memory.bytes_per_resident): all-resident heap over tiered heap
	// for the same recovered corpus, both measured as live-heap deltas
	// after GC. Higher is better; the tiered boot serves cold records
	// straight out of the snapshot mapping, so its heap holds only the
	// live postings and per-resource scalars.
	BytesPerResident float64 `json:"bytes_per_resident"`

	N10x                           int     `json:"n_10x"`
	AllResidentBytesPerResource10x float64 `json:"all_resident_bytes_per_resource_10x"`
	TieredBytesPerResource10x      float64 `json:"tiered_bytes_per_resource_10x"`
	BytesPerResident10x            float64 `json:"bytes_per_resident_10x"`

	EvictP50Micros     float64 `json:"evict_p50_us"`
	EvictP99Micros     float64 `json:"evict_p99_us"`
	RehydrateP50Micros float64 `json:"rehydrate_p50_us"`
	RehydrateP99Micros float64 `json:"rehydrate_p99_us"`

	// Cold-query cost at the index layer: one pass of pruned top-k over
	// every subject with all forward vectors frozen (each query promotes
	// its subject) versus the same pass all-resident. The serving-path
	// result cache is deliberately out of the picture — it would answer
	// the hot pass from the cache and measure nothing.
	HotTopKPerSec  float64 `json:"hot_topk_per_sec"`
	ColdTopKPerSec float64 `json:"cold_topk_per_sec"`
	ColdSlowdown   float64 `json:"cold_query_slowdown"`
}

// heapAfterGC settles the heap and returns live bytes. Two collections:
// the first turns unreachable spans into sweepable garbage, the second
// reclaims anything the first's sweep exposed.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// serviceIngest streams events into the service in batch-sized chunks.
func serviceIngest(svc *incentivetag.Service, events []engine.PostEvent, batch int) {
	for off := 0; off < len(events); off += batch {
		end := off + batch
		if end > len(events) {
			end = len(events)
		}
		if err := svc.IngestMany(events[off:end]); err != nil {
			fail("memory ingest: %v", err)
		}
	}
}

// memoryIdentityGate proves evict+rehydrate invisible before any memory
// number is reported: the same stream flows into a never-evicted
// service and a tiered one whose policy runs between chunks, and every
// observable — integer metrics, mean quality bits, per-resource counts,
// pruned top-k answers — must match exactly.
func memoryIdentityGate(n int, seed int64, batch int) {
	ds, err := benchkit.RawDataset(n, seed)
	if err != nil {
		fail("memory gate: %v", err)
	}
	data, err := benchkit.Corpus(n, seed)
	if err != nil {
		fail("memory gate: %v", err)
	}
	plain, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{})
	if err != nil {
		fail("memory gate: %v", err)
	}
	defer plain.Close()
	budget := n / 16
	if budget < 1 {
		budget = 1
	}
	tiered, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{
		MaxResidentResources: budget,
		TierInterval:         -1,
	})
	if err != nil {
		fail("memory gate: %v", err)
	}
	defer tiered.Close()

	events := benchkit.FutureEvents(data)
	for off, chunk := 0, 0; off < len(events); off += batch {
		end := off + batch
		if end > len(events) {
			end = len(events)
		}
		if err := plain.IngestMany(events[off:end]); err != nil {
			fail("memory gate: %v", err)
		}
		if err := tiered.IngestMany(events[off:end]); err != nil {
			fail("memory gate: %v", err)
		}
		if chunk++; chunk%3 == 0 {
			if _, err := tiered.TierNow(); err != nil {
				fail("memory gate: %v", err)
			}
		}
	}
	if tiered.Residency().Evictions == 0 {
		fail("memory gate: tiering policy never evicted — the gate proved nothing")
	}
	if mp, mt := plain.Snapshot(), tiered.Snapshot(); mp != mt {
		fail("memory gate: metrics diverge under tiering:\nplain  %+v\ntiered %+v", mp, mt)
	}
	if math.Float64bits(plain.Quality()) != math.Float64bits(tiered.Quality()) {
		fail("memory gate: mean quality diverges: %v vs %v", plain.Quality(), tiered.Quality())
	}
	for i := 0; i < n; i++ {
		if plain.Count(i) != tiered.Count(i) {
			fail("memory gate: resource %d count %d vs %d", i, plain.Count(i), tiered.Count(i))
		}
	}
	const k = 10
	for s := 0; s < n; s += 17 {
		want, _, err := plain.TopK(s, k)
		if err != nil {
			fail("memory gate: %v", err)
		}
		got, _, err := tiered.TopK(s, k)
		if err != nil {
			fail("memory gate: %v", err)
		}
		if len(got) != len(want) {
			fail("memory gate: subject %d: %d vs %d results", s, len(got), len(want))
		}
		for r := range want {
			if got[r] != want[r] {
				fail("memory gate: subject %d rank %d: (%d,%v) vs (%d,%v)",
					s, r, got[r].ID, got[r].Score, want[r].ID, want[r].Score)
			}
		}
	}
}

// measureHeapScale seeds a durable engine snapshot, then measures the
// live-heap delta of restoring it (engine.Restore over the mmap'd file,
// every resource cold) at two residency levels: all-resident (every
// resource rehydrated — what an unbudgeted node converges to under
// traffic) and tiered (only a cold-majority working set of
// residentBudget resources rehydrated, the rest served as frozen records
// out of the mapping). The engine is measured in
// isolation on purpose: it is the layer whose bytes scale per resident
// resource — postings, allocator and cache state are identical in both
// configurations and would only dilute the ratio into an average over
// costs tiering does not touch. Returns (allResident, tiered) bytes.
func measureHeapScale(n int, seed int64, batch, residentBudget int) (int64, int64) {
	data, err := benchkit.Corpus(n, seed)
	if err != nil {
		fail("memory heap: %v", err)
	}
	dir, err := os.MkdirTemp("", "tagbench-memory-*")
	if err != nil {
		fail("memory heap: %v", err)
	}
	defer os.RemoveAll(dir)
	cfg := engine.Config{
		Omega:          5,
		Shards:         engine.DefaultShards,
		UnderThreshold: data.UnderThreshold,
		TagUniverse:    data.TagUniverse,
	}

	seedEng, err := benchkit.BuildEngine(data, engine.DefaultShards, true, nil)
	if err != nil {
		fail("memory heap: %v", err)
	}
	events := benchkit.FutureEvents(data)
	if err := benchkit.RunIngest(seedEng, benchkit.Partition(events, 1), batch); err != nil {
		fail("memory heap: %v", err)
	}
	st := seedEng.ExportState()
	payload, err := st.MarshalBinary()
	if err != nil {
		fail("memory heap: %v", err)
	}
	if _, err := tagstore.WriteSnapshot(dir, st.LastSeq, payload); err != nil {
		fail("memory heap: %v", err)
	}
	seedEng, payload, st = nil, nil, nil

	// restoreResident measures the live-heap delta of restoring the
	// snapshot and rehydrating the first `resident` resources.
	restoreResident := func(resident int) int64 {
		h0 := heapAfterGC()
		m, ok, _, err := tagstore.MapLatestSnapshot(dir)
		if err != nil || !ok {
			fail("memory heap: snapshot map: ok=%v err=%v", ok, err)
		}
		eng, _, err := engine.Restore(cfg, data.EngineSpecs(), m.Payload)
		if err != nil {
			fail("memory heap: %v", err)
		}
		for i := 0; i < resident; i++ {
			if err := eng.EnsureResident(i); err != nil {
				fail("memory heap: %v", err)
			}
		}
		h := heapAfterGC() - h0
		if res := eng.Residency(); res.Resident != resident || res.Cold != eng.N()-resident {
			fail("memory heap: census off: %+v (want %d resident)", res, resident)
		}
		if err := m.Close(); err != nil {
			fail("memory heap: %v", err)
		}
		if h < 1 {
			h = 1
		}
		return h
	}
	return restoreResident(data.N()), restoreResident(residentBudget)
}

// runMemoryBenchmark fills the MemoryReport for the scenario scale and
// 10x it. The identity gate runs first; no timing or heap number is
// reported for a configuration that answers differently.
func runMemoryBenchmark(sc benchkit.Scenario, batch int) MemoryReport {
	memoryIdentityGate(sc.N, sc.Seed, batch)

	budget := sc.N / 20
	if budget < 1 {
		budget = 1
	}
	rep := MemoryReport{N: sc.N, ResidentBudget: budget, N10x: sc.N * 10}

	hAll, hTier := measureHeapScale(sc.N, sc.Seed, batch, budget)
	rep.AllResidentHeapBytes = hAll
	rep.TieredHeapBytes = hTier
	rep.AllResidentBytesPerResource = float64(hAll) / float64(sc.N)
	rep.TieredBytesPerResource = float64(hTier) / float64(sc.N)
	rep.BytesPerResident = float64(hAll) / float64(hTier)

	budget10 := sc.N * 10 / 20
	if budget10 < 1 {
		budget10 = 1
	}
	hAll10, hTier10 := measureHeapScale(sc.N*10, sc.Seed, batch, budget10)
	rep.AllResidentBytesPerResource10x = float64(hAll10) / float64(sc.N*10)
	rep.TieredBytesPerResource10x = float64(hTier10) / float64(sc.N*10)
	rep.BytesPerResident10x = float64(hAll10) / float64(hTier10)

	// Per-resource evict/rehydrate latency at the engine layer, over a
	// fully primed corpus: every sampled cycle freezes a hot tracker to
	// its compact record and decodes it back (with the exact-integer
	// recompute that rehydration guarantees).
	data, err := benchkit.Corpus(sc.N, sc.Seed)
	if err != nil {
		fail("memory latency: %v", err)
	}
	eng, _ := ingestEngine(data, engine.DefaultShards, true, "")
	events := benchkit.FutureEvents(data)
	if err := benchkit.RunIngest(eng, benchkit.Partition(events, 1), batch); err != nil {
		fail("memory latency: %v", err)
	}
	const wantSamples = 4096
	evict := make([]float64, 0, wantSamples)
	rehydrate := make([]float64, 0, wantSamples)
	order := rand.New(rand.NewSource(11)).Perm(sc.N)
	for len(evict) < wantSamples {
		for _, i := range order {
			t0 := time.Now()
			ok, err := eng.Evict(i)
			d := time.Since(t0)
			if err != nil {
				fail("memory latency evict: %v", err)
			}
			if ok {
				evict = append(evict, float64(d.Nanoseconds())/1e3)
			}
			t0 = time.Now()
			if err := eng.EnsureResident(i); err != nil {
				fail("memory latency rehydrate: %v", err)
			}
			rehydrate = append(rehydrate, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	sort.Float64s(evict)
	sort.Float64s(rehydrate)
	rep.EvictP50Micros = evict[len(evict)/2]
	rep.EvictP99Micros = evict[len(evict)*99/100]
	rep.RehydrateP50Micros = rehydrate[len(rehydrate)/2]
	rep.RehydrateP99Micros = rehydrate[len(rehydrate)*99/100]

	// Cold-query slowdown at the index layer: a full subject sweep with
	// every forward vector frozen (each query decodes and promotes its
	// subject) versus the same sweep all-resident.
	idxEng, _ := ingestEngine(data, engine.DefaultShards, true, "")
	idx := ir.NewOnlineIndex(idxEng.SnapshotRFDs(), idxEng.Shards())
	idxEng.Subscribe(idx)
	if err := benchkit.RunIngest(idxEng, benchkit.Partition(events, 1), batch); err != nil {
		fail("memory cold query: %v", err)
	}
	all := make([]int, sc.N)
	for i := range all {
		all[i] = i
	}
	const k = 10
	idx.Evict(all)
	t0 := time.Now()
	for s := 0; s < sc.N; s++ {
		idx.TopK(s, k)
	}
	rep.ColdTopKPerSec = float64(sc.N) / time.Since(t0).Seconds()

	count := 0
	t0 = time.Now()
	for time.Since(t0) < 400*time.Millisecond {
		for s := 0; s < sc.N; s++ {
			idx.TopK(s, k)
			count++
		}
	}
	rep.HotTopKPerSec = float64(count) / time.Since(t0).Seconds()
	if rep.ColdTopKPerSec > 0 {
		rep.ColdSlowdown = rep.HotTopKPerSec / rep.ColdTopKPerSec
	}

	fmt.Fprintf(os.Stderr, "tagbench: memory %d KiB all-resident vs %d KiB tiered (%.1fx; %.1fx at 10x scale); evict p50 %.1fµs p99 %.1fµs, rehydrate p50 %.1fµs p99 %.1fµs; cold sweep %.0f topk/sec vs hot %.0f (%.1fx)\n",
		rep.AllResidentHeapBytes>>10, rep.TieredHeapBytes>>10,
		rep.BytesPerResident, rep.BytesPerResident10x,
		rep.EvictP50Micros, rep.EvictP99Micros,
		rep.RehydrateP50Micros, rep.RehydrateP99Micros,
		rep.ColdTopKPerSec, rep.HotTopKPerSec, rep.ColdSlowdown)
	return rep
}
