// Command tagbench runs the engine's ingest/checkpoint benchmarks and
// emits a machine-readable BENCH_engine.json, so the performance
// trajectory of the tagging engine is tracked across PRs.
//
// Usage:
//
//	tagbench [-n 2000] [-budget 10000] [-every 100] [-seed 1]
//	         [-batch 256] [-out BENCH_engine.json]
//
// Three scenario families run:
//
//   - the checkpoint-dense Figure-6 shape: one strategy run of the full
//     budget, snapshotting metrics every -every spent units, under the
//     testing.Benchmark harness for both snapshot paths (the engine's
//     O(1) incremental read and the seed's O(n·|tags|) full scan);
//   - the serving ingest path: every recorded future post of the corpus
//     streamed into a live engine, comparing the per-post map-backed
//     hot path (the PR 1 baseline) against the batched dense pipeline
//     (hybrid dense counts + IngestMany + group-commit WAL), including
//     a multi-goroutine throughput matrix over shard and worker counts
//     and allocations-per-post from runtime.MemStats;
//   - the lease allocation path: concurrent workers running full
//     Lease/Fulfill cycles through internal/alloc, across the served
//     strategies (RR, FP, MU, FP-MU) and worker counts;
//   - the crash-recovery path: the same stream group-committed into a
//     segmented WAL with a snapshot at 90%, then timed recoveries —
//     snapshot+tail versus full-log replay (wall clock and bytes read)
//     — plus the disk reclaimed by snapshot-driven compaction. Both
//     recovered engines must match the live engine bit for bit;
//   - the memory-tiering path: live heap of the corpus restored off
//     the mmap'd snapshot and fully rehydrated versus restored under a
//     cold-majority residency budget (at the scenario scale and 10x),
//     per-resource evict/rehydrate latency, and the cold-query cost of
//     the pruned executor on frozen forward vectors. A tiered service
//     must first answer bit-identically to a never-evicted one over
//     the same interleaved stream, or the benchmark aborts.
//
// Before any timing, both ingest representations run one checked pass:
// integer metrics must match exactly and per-resource qualities must be
// bit-identical, or the benchmark aborts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incentivetag"
	"incentivetag/internal/benchkit"
	"incentivetag/internal/engine"
	"incentivetag/internal/ir"
	"incentivetag/internal/sim"
	"incentivetag/internal/tags"
	"incentivetag/internal/tagstore"
)

// IngestPoint is one cell of the multi-goroutine throughput matrix.
type IngestPoint struct {
	Shards      int     `json:"shards"`
	Workers     int     `json:"workers"`
	PostsPerSec float64 `json:"posts_per_sec"`
}

// IngestReport captures the serving-path ingest benchmarks. "Baseline"
// is the PR 1 hot path: per-post Ingest over map-backed counts.
// "DenseBatch" is the batched pipeline: hybrid dense counts ingested
// through IngestMany. Both run on two stream shapes: "scan" (round-robin
// across resources — the cache-adversarial extreme, every post touches a
// cold resource) and "burst" (resource-major — the cache-friendly
// extreme of bursty live traffic). WAL variants add a durable tagstore
// log (per-post appends vs group commit). Bytes/allocs per post are
// process-wide runtime.MemStats deltas over one single-threaded pass of
// the full scan stream against a freshly built engine.
//
// The pr1_* fields are the PR 1-style engine numbers measured in the
// same process: the fig6 checkpoint run (which is how PR 1 recorded
// engine cost — per-run construction plus per-post ingest plus O(1)
// checkpoints) normalized per post. dense_batch_vs_pr1_* compare the new
// serving pipeline against them on the same machine and corpus.
type IngestReport struct {
	Posts     int `json:"posts"`
	BatchSize int `json:"batch_size"`

	ScanBaselinePostsPerSec   float64 `json:"scan_baseline_posts_per_sec"`
	ScanDenseBatchPostsPerSec float64 `json:"scan_dense_batch_posts_per_sec"`
	ScanSpeedup               float64 `json:"scan_speedup"`

	BurstBaselinePostsPerSec   float64 `json:"burst_baseline_posts_per_sec"`
	BurstDenseBatchPostsPerSec float64 `json:"burst_dense_batch_posts_per_sec"`
	BurstSpeedup               float64 `json:"burst_speedup"`

	BaselineBytesPerPost    float64 `json:"baseline_bytes_per_post"`
	BaselineAllocsPerPost   float64 `json:"baseline_allocs_per_post"`
	DenseBatchBytesPerPost  float64 `json:"dense_batch_bytes_per_post"`
	DenseBatchAllocsPerPost float64 `json:"dense_batch_allocs_per_post"`

	WALBaselinePostsPerSec    float64 `json:"wal_baseline_posts_per_sec"`
	WALGroupCommitPostsPerSec float64 `json:"wal_group_commit_posts_per_sec"`
	WALSpeedup                float64 `json:"wal_speedup"`

	Throughput []IngestPoint `json:"throughput"`

	PR1PostsPerSec      float64 `json:"pr1_fig6_posts_per_sec"`
	PR1BytesPerPost     float64 `json:"pr1_fig6_bytes_per_post"`
	VsPR1Throughput     float64 `json:"dense_batch_vs_pr1_throughput"`
	VsPR1AllocReduction float64 `json:"dense_batch_vs_pr1_alloc_reduction"`
}

// QueryPoint is one cell of the readers×writers query matrix: total
// online top-k queries/sec across the readers while the writers stream
// batched ingest into the same engine.
type QueryPoint struct {
	Readers       int     `json:"readers"`
	Writers       int     `json:"writers"`
	QueriesPerSec float64 `json:"queries_per_sec"`
}

// QueryReport captures the live query path: the incrementally
// maintained online index versus the per-request-rebuild baseline (the
// pre-online /topk implementation: clone every rfd, rebuild the
// inverted index, then query), plus tag-set search throughput and the
// readers×writers mixed-load matrix. Before any timing, the online
// index must answer bit-identically to an exhaustive rebuild over the
// same state, or the benchmark aborts.
type QueryReport struct {
	K int `json:"k"`

	OnlineQPS  float64 `json:"online_topk_per_sec"`
	RebuildQPS float64 `json:"rebuild_topk_per_sec"`
	// Speedup is gated in CI (query.speedup_vs_rebuild).
	Speedup   float64 `json:"speedup_vs_rebuild"`
	SearchQPS float64 `json:"search_per_sec"`

	// ExhaustiveQPS is the same online index with pruning disabled —
	// every overlapping candidate accumulated and scored (the PR 5
	// execution strategy, kept as the in-tree oracle). PrunedSpeedup is
	// OnlineQPS over it: the win attributable purely to block-max
	// pruning on identical data structures. Gated in CI
	// (query.pruned_speedup).
	ExhaustiveQPS float64 `json:"exhaustive_topk_per_sec"`
	PrunedSpeedup float64 `json:"pruned_speedup"`

	// Per-query latency of the pruned online path, microseconds.
	TopKP50Micros float64 `json:"topk_p50_us"`
	TopKP99Micros float64 `json:"topk_p99_us"`

	// CachedQPS drives the full Service serving path (validation +
	// epoch-keyed result cache + online index) on a hot-subject working
	// set between ingest bursts — the shape the result cache exists for.
	// CachedSpeedup compares it against the exhaustive execution, i.e.
	// the /topk serving path before this engine landed.
	CachedQPS     float64 `json:"cached_topk_per_sec"`
	CachedSpeedup float64 `json:"cached_speedup_vs_exhaustive"`
	CacheHitRate  float64 `json:"cache_hit_rate"`

	Matrix []QueryPoint `json:"matrix"`
}

// AllocPoint is one cell of the allocate-throughput matrix.
type AllocPoint struct {
	Strategy     string  `json:"strategy"`
	Workers      int     `json:"workers"`
	AllocsPerSec float64 `json:"allocs_per_sec"`
}

// RecoveryReport captures the durability benchmarks: how fast (and how
// many bytes) a crashed serving engine comes back via snapshot + log
// tail versus a full-log replay, and how much disk compaction reclaims.
// Both recovery paths are verified bit-identical to the live engine
// they rebuild before any timing is reported.
type RecoveryReport struct {
	WALRecords    int64 `json:"wal_records"`
	Segments      int   `json:"segments"`
	LogBytes      int64 `json:"log_bytes"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	TailRecords   int64 `json:"tail_records"`

	FullReplayMillis   float64 `json:"full_replay_ms"`
	FullReplayBytes    int64   `json:"full_replay_bytes_read"`
	SnapshotTailMillis float64 `json:"snapshot_tail_ms"`
	SnapshotTailBytes  int64   `json:"snapshot_tail_bytes_read"`
	// Speedup is full-replay time over snapshot+tail time; BytesRatio
	// the same for log bytes read. Both are gated in CI.
	Speedup    float64 `json:"speedup"`
	BytesRatio float64 `json:"bytes_read_ratio"`

	SegmentsCompacted    int   `json:"segments_compacted"`
	LogBytesAfterCompact int64 `json:"log_bytes_after_compaction"`
}

// AllocateReport captures the lease-path benchmarks: full Lease/Fulfill
// cycles through the concurrent allocator (internal/alloc) over a live
// dense engine, across the served strategies and worker counts.
// Allocation is serialized behind the allocator mutex while the
// fulfilled posts flow through the sharded ingest path, so the matrix
// shows each policy's CHOOSE/UPDATE cost under contention.
type AllocateReport struct {
	MeasureMillis int64        `json:"measure_ms"`
	Points        []AllocPoint `json:"points"`
}

// Report is the schema of BENCH_engine.json.
type Report struct {
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`

	N           int   `json:"n"`
	Budget      int   `json:"budget"`
	Every       int   `json:"checkpoint_every"`
	Checkpoints int   `json:"checkpoints"`
	Seed        int64 `json:"seed"`

	EngineNsPerOp    int64   `json:"engine_ns_per_op"`
	FullScanNsPerOp  int64   `json:"fullscan_ns_per_op"`
	Speedup          float64 `json:"speedup"`
	EngineIters      int     `json:"engine_iters"`
	FullScanIters    int     `json:"fullscan_iters"`
	EngineBytesPerOp int64   `json:"engine_bytes_per_op"`

	FinalMeanQuality float64 `json:"final_mean_quality"`
	FinalOverTagged  int     `json:"final_over_tagged"`
	FinalWastedPosts int     `json:"final_wasted_posts"`

	Ingest   IngestReport   `json:"ingest"`
	Allocate AllocateReport `json:"allocate"`
	Query    QueryReport    `json:"query"`
	Recovery RecoveryReport `json:"recovery"`
	Overload OverloadReport `json:"overload"`
	Cluster  ClusterReport  `json:"cluster"`
	Memory   MemoryReport   `json:"memory"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tagbench: "+format+"\n", args...)
	os.Exit(1)
}

// ingestEngine builds a fresh serving engine (and its optional WAL).
func ingestEngine(data *sim.Data, shards int, dense bool, walDir string) (*engine.Engine, *tagstore.Store) {
	var wal *tagstore.Store
	if walDir != "" {
		var err error
		wal, err = tagstore.Open(walDir, tagstore.Options{})
		if err != nil {
			fail("wal: %v", err)
		}
	}
	eng, err := benchkit.BuildEngine(data, shards, dense, wal)
	if err != nil {
		fail("engine: %v", err)
	}
	return eng, wal
}

// onePass ingests the full event stream once, returning elapsed time and
// the process alloc deltas of the pass.
func onePass(eng *engine.Engine, parts [][]engine.PostEvent, batch int) (time.Duration, uint64, uint64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if err := benchkit.RunIngest(eng, parts, batch); err != nil {
		fail("ingest: %v", err)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
}

// throughput repeats full passes of the event stream until the
// measurement is at least minDur long, returning posts/sec. The engine
// keeps absorbing the same stream (counts simply keep growing), which is
// the steady-state shape the serving path sees.
func throughput(data *sim.Data, events []engine.PostEvent, shards, workers, batch int, dense bool, walDir string, minDur time.Duration) float64 {
	eng, wal := ingestEngine(data, shards, dense, walDir)
	defer func() {
		if wal != nil {
			wal.Close()
		}
	}()
	parts := benchkit.Partition(events, workers)
	var elapsed time.Duration
	posts := 0
	for pass := 0; elapsed < minDur && pass < 50; pass++ {
		t0 := time.Now()
		if err := benchkit.RunIngest(eng, parts, batch); err != nil {
			fail("ingest: %v", err)
		}
		elapsed += time.Since(t0)
		posts += len(events)
	}
	return float64(posts) / elapsed.Seconds()
}

// runIngestBenchmarks measures the serving ingest path and fills the
// IngestReport.
func runIngestBenchmarks(data *sim.Data, batch int) IngestReport {
	scan := benchkit.FutureEvents(data)
	burst := benchkit.BurstEvents(data)
	single := benchkit.Partition(scan, 1)
	rep := IngestReport{Posts: len(scan), BatchSize: batch}

	// Checked pass: the dense batched pipeline must reproduce the
	// baseline bit for bit before any timing is worth reporting. These
	// same passes provide the allocation metrics.
	baseEng, _ := ingestEngine(data, engine.DefaultShards, false, "")
	elapsed, bBytes, bAllocs := onePass(baseEng, single, 1)
	fmt.Fprintf(os.Stderr, "tagbench: baseline pass %v (%d posts)\n", elapsed, len(scan))
	denseEng, _ := ingestEngine(data, engine.DefaultShards, true, "")
	elapsed, dBytes, dAllocs := onePass(denseEng, single, batch)
	fmt.Fprintf(os.Stderr, "tagbench: dense batched pass %v\n", elapsed)
	mb, md := baseEng.Snapshot(), denseEng.Snapshot()
	if mb.Posts != md.Posts || mb.Spent != md.Spent || mb.OverTagged != md.OverTagged ||
		mb.UnderTagged != md.UnderTagged || mb.WastedPosts != md.WastedPosts {
		fail("ingest paths diverge: %+v vs %+v", mb, md)
	}
	for i := 0; i < baseEng.N(); i++ {
		if baseEng.QualityOf(i) != denseEng.QualityOf(i) {
			fail("resource %d quality diverges between representations", i)
		}
	}
	n := float64(len(scan))
	rep.BaselineBytesPerPost = float64(bBytes) / n
	rep.BaselineAllocsPerPost = float64(bAllocs) / n
	rep.DenseBatchBytesPerPost = float64(dBytes) / n
	rep.DenseBatchAllocsPerPost = float64(dAllocs) / n

	// Single-thread throughput, no WAL, both stream shapes.
	const minDur = 800 * time.Millisecond
	rep.ScanBaselinePostsPerSec = throughput(data, scan, engine.DefaultShards, 1, 1, false, "", minDur)
	rep.ScanDenseBatchPostsPerSec = throughput(data, scan, engine.DefaultShards, 1, batch, true, "", minDur)
	rep.ScanSpeedup = rep.ScanDenseBatchPostsPerSec / rep.ScanBaselinePostsPerSec
	rep.BurstBaselinePostsPerSec = throughput(data, burst, engine.DefaultShards, 1, 1, false, "", minDur)
	rep.BurstDenseBatchPostsPerSec = throughput(data, burst, engine.DefaultShards, 1, batch, true, "", minDur)
	rep.BurstSpeedup = rep.BurstDenseBatchPostsPerSec / rep.BurstBaselinePostsPerSec
	fmt.Fprintf(os.Stderr, "tagbench: single-thread scan %.0f → %.0f posts/sec (%.2fx), burst %.0f → %.0f (%.2fx)\n",
		rep.ScanBaselinePostsPerSec, rep.ScanDenseBatchPostsPerSec, rep.ScanSpeedup,
		rep.BurstBaselinePostsPerSec, rep.BurstDenseBatchPostsPerSec, rep.BurstSpeedup)

	// Durable variants: per-post WAL appends vs group commit.
	tmp, err := os.MkdirTemp("", "tagbench-wal-*")
	if err != nil {
		fail("%v", err)
	}
	defer os.RemoveAll(tmp)
	rep.WALBaselinePostsPerSec = throughput(data, scan, engine.DefaultShards, 1, 1, false, filepath.Join(tmp, "per-post"), minDur)
	rep.WALGroupCommitPostsPerSec = throughput(data, scan, engine.DefaultShards, 1, batch, true, filepath.Join(tmp, "group"), minDur)
	rep.WALSpeedup = rep.WALGroupCommitPostsPerSec / rep.WALBaselinePostsPerSec
	fmt.Fprintf(os.Stderr, "tagbench: with WAL %.0f → %.0f posts/sec (%.2fx)\n",
		rep.WALBaselinePostsPerSec, rep.WALGroupCommitPostsPerSec, rep.WALSpeedup)

	// Multi-goroutine matrix: batched dense pipeline across shard and
	// worker counts, on the scan stream.
	for _, shards := range []int{1, 4, 8, 16} {
		for _, workers := range []int{1, 4, 16} {
			pps := throughput(data, scan, shards, workers, batch, true, "", 500*time.Millisecond)
			rep.Throughput = append(rep.Throughput, IngestPoint{Shards: shards, Workers: workers, PostsPerSec: pps})
			fmt.Fprintf(os.Stderr, "tagbench: shards=%-2d workers=%-2d %.0f posts/sec\n", shards, workers, pps)
		}
	}
	return rep
}

// runQueryBenchmarks measures the live query path over an engine that
// has absorbed the corpus's full future stream with the online index
// subscribed. The rebuild baseline reproduces the pre-online /topk
// read path exactly: per query, clone every rfd (SnapshotRFDs) and
// rebuild the inverted index before answering.
func runQueryBenchmarks(data *sim.Data, batch int) QueryReport {
	const k = 10
	rep := QueryReport{K: k}
	eng, _ := ingestEngine(data, engine.DefaultShards, true, "")
	idx := ir.NewOnlineIndex(eng.SnapshotRFDs(), eng.Shards())
	eng.Subscribe(idx)
	events := benchkit.FutureEvents(data)
	if err := benchkit.RunIngest(eng, benchkit.Partition(events, 4), batch); err != nil {
		fail("query ingest: %v", err)
	}
	n := eng.N()

	// Equivalence gate: before any timing counts, the pruned executor
	// must answer bit-identically to BOTH oracles over the same state —
	// the index's own exhaustive execution (pruning disabled) and a cold
	// inverted rebuild — and pruned Search must match exhaustive Search.
	oracle := ir.BuildInverted(eng.SnapshotRFDs())
	identical := func(ctx string, got, want []ir.Scored) {
		if len(got) != len(want) {
			fail("query equivalence: %s: %d vs %d results", ctx, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				fail("query equivalence: %s rank %d: (%d,%v) vs (%d,%v)",
					ctx, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
	}
	for s := 0; s < n; s += 17 {
		got, _ := idx.TopK(s, k)
		exh, _ := idx.TopKExhaustive(s, k)
		identical(fmt.Sprintf("subject %d pruned-vs-exhaustive", s), got, exh)
		identical(fmt.Sprintf("subject %d pruned-vs-rebuild", s), got, oracle.TopK(s, k))
	}
	gateRng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 64; trial++ {
		m := 1 + gateRng.Intn(3)
		ts := make([]tags.Tag, m)
		for j := range ts {
			ts[j] = tags.Tag(gateRng.Intn(data.TagUniverse))
		}
		q, err := tags.NewPost(ts...)
		if err != nil {
			fail("query gate: %v", err)
		}
		got, _ := idx.Search(q, k)
		exh, _ := idx.SearchExhaustive(q, k)
		identical(fmt.Sprintf("search trial %d", trial), got, exh)
	}

	const minDur = 600 * time.Millisecond
	// Per-request-rebuild baseline.
	count := 0
	t0 := time.Now()
	for time.Since(t0) < minDur {
		inv := ir.BuildInverted(eng.SnapshotRFDs())
		inv.TopK(count%n, k)
		count++
	}
	rep.RebuildQPS = float64(count) / time.Since(t0).Seconds()

	// Online top-k (amortize the clock check; online queries are fast).
	count = 0
	t0 = time.Now()
	for time.Since(t0) < minDur {
		for j := 0; j < 64; j++ {
			idx.TopK(count%n, k)
			count++
		}
	}
	rep.OnlineQPS = float64(count) / time.Since(t0).Seconds()
	rep.Speedup = rep.OnlineQPS / rep.RebuildQPS

	// Exhaustive online execution (pruning disabled, same postings).
	count = 0
	t0 = time.Now()
	for time.Since(t0) < minDur {
		idx.TopKExhaustive(count%n, k)
		count++
	}
	rep.ExhaustiveQPS = float64(count) / time.Since(t0).Seconds()
	rep.PrunedSpeedup = rep.OnlineQPS / rep.ExhaustiveQPS

	// Per-query latency distribution of the pruned path: individually
	// timed queries over a shuffled subject order (so percentile shape
	// isn't an artifact of subject id locality).
	order := rand.New(rand.NewSource(3)).Perm(n)
	samples := make([]float64, 0, 8192)
	for len(samples) < cap(samples) {
		s := order[len(samples)%n]
		q0 := time.Now()
		idx.TopK(s, k)
		samples = append(samples, float64(time.Since(q0).Nanoseconds())/1e3)
	}
	sort.Float64s(samples)
	rep.TopKP50Micros = samples[len(samples)/2]
	rep.TopKP99Micros = samples[len(samples)*99/100]

	// Tag-set search over random 1–3 tag queries.
	rng := rand.New(rand.NewSource(1))
	queries := make([]tags.Post, 256)
	for i := range queries {
		m := 1 + rng.Intn(3)
		ts := make([]tags.Tag, m)
		for j := range ts {
			ts[j] = tags.Tag(rng.Intn(data.TagUniverse))
		}
		p, err := tags.NewPost(ts...)
		if err != nil {
			fail("query: %v", err)
		}
		queries[i] = p
	}
	count = 0
	t0 = time.Now()
	for time.Since(t0) < minDur {
		for j := 0; j < 64; j++ {
			idx.Search(queries[count%len(queries)], k)
			count++
		}
	}
	rep.SearchQPS = float64(count) / time.Since(t0).Seconds()

	// Readers×writers matrix: concurrent online queries while writers
	// stream batched ingest into the same engine (the index absorbing
	// every delta through the subscriber hook).
	for _, readers := range []int{1, 4, 16} {
		for _, writers := range []int{0, 4} {
			qps := queryCell(eng, idx, events, readers, writers, batch)
			rep.Matrix = append(rep.Matrix, QueryPoint{Readers: readers, Writers: writers, QueriesPerSec: qps})
			fmt.Fprintf(os.Stderr, "tagbench: query readers=%-2d writers=%-2d %.0f queries/sec\n", readers, writers, qps)
		}
	}
	return rep
}

// queryCell measures total reader queries/sec for one matrix cell.
func queryCell(eng *engine.Engine, idx *ir.OnlineIndex, events []engine.PostEvent, readers, writers, batch int) float64 {
	var stop atomic.Bool
	var wg sync.WaitGroup
	parts := benchkit.Partition(events, writers+1) // writer w takes stripe w
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			evs := parts[w]
			for off := 0; !stop.Load(); off = (off + batch) % len(evs) {
				end := off + batch
				if end > len(evs) {
					end = len(evs)
				}
				if err := eng.IngestMany(evs[off:end]); err != nil {
					fail("query matrix ingest: %v", err)
				}
			}
		}(w)
	}
	var total atomic.Int64
	n := eng.N()
	start := time.Now()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			count := 0
			for q := r; !stop.Load(); q += readers {
				idx.TopK(q%n, 10)
				count++
			}
			total.Add(int64(count))
		}(r)
	}
	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}

// runCachedBenchmark drives the public Service facade — the real /topk
// serving path: validation, the epoch-keyed result cache, then the
// pruned online index — on a hot-subject working set with no concurrent
// ingest, the regime the cache exists for. Answers are verified against
// a cold inverted rebuild before timing: the cache must be invisible
// except in speed. CachedSpeedup compares against the exhaustive online
// execution, i.e. what /topk cost before this engine landed.
func runCachedBenchmark(sc benchkit.Scenario, batch int, rep *QueryReport) {
	const k = 10
	ds, err := benchkit.RawDataset(sc.N, sc.Seed)
	if err != nil {
		fail("cached query: %v", err)
	}
	data, err := benchkit.Corpus(sc.N, sc.Seed)
	if err != nil {
		fail("cached query: %v", err)
	}
	svc, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{})
	if err != nil {
		fail("cached query: %v", err)
	}
	defer svc.Close()
	events := benchkit.FutureEvents(data)
	for off := 0; off < len(events); off += batch {
		end := off + batch
		if end > len(events) {
			end = len(events)
		}
		if err := svc.IngestMany(events[off:end]); err != nil {
			fail("cached query ingest: %v", err)
		}
	}

	hot := rand.New(rand.NewSource(5)).Perm(sc.N)[:64]
	oracle := ir.BuildInverted(svc.SnapshotRFDs())
	serve := func(s int) []ir.Scored {
		res, _, err := svc.TopK(s, k)
		if err != nil {
			fail("cached query: %v", err)
		}
		return res
	}
	for _, s := range hot { // fill pass: every answer checked cold
		got := serve(s)
		want := oracle.TopK(s, k)
		if len(got) != len(want) {
			fail("cached equivalence: subject %d: %d vs %d results", s, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				fail("cached equivalence: subject %d rank %d: (%d,%v) vs (%d,%v)",
					s, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
	}

	count := 0
	t0 := time.Now()
	for time.Since(t0) < 600*time.Millisecond {
		for j := 0; j < 256; j++ {
			serve(hot[count%len(hot)])
			count++
		}
	}
	rep.CachedQPS = float64(count) / time.Since(t0).Seconds()
	if rep.ExhaustiveQPS > 0 {
		rep.CachedSpeedup = rep.CachedQPS / rep.ExhaustiveQPS
	}
	st := svc.QueryStats()
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		rep.CacheHitRate = float64(st.CacheHits) / float64(total)
	}
}

// runAllocateBenchmarks measures lease-path throughput: total
// Lease/Fulfill cycles per second for every served strategy × worker
// count. Each cell builds a fresh engine and allocator so strategy heaps
// start from the same primed state.
func runAllocateBenchmarks(data *sim.Data, minDur time.Duration) AllocateReport {
	rep := AllocateReport{MeasureMillis: minDur.Milliseconds()}
	for _, name := range benchkit.AllocStrategies {
		for _, workers := range []int{1, 4, 16} {
			aps, err := benchkit.RunAllocate(data, name, workers, minDur)
			if err != nil {
				fail("allocate: %v", err)
			}
			rep.Points = append(rep.Points, AllocPoint{Strategy: name, Workers: workers, AllocsPerSec: aps})
			fmt.Fprintf(os.Stderr, "tagbench: allocate %-5s workers=%-2d %.0f allocs/sec\n", name, workers, aps)
		}
	}
	return rep
}

// runRecoveryBenchmark measures crash recovery: the corpus's future
// stream is group-committed into a segmented WAL (small segments so the
// chain actually rotates), a snapshot lands at 90% of the stream, and
// the directory is then recovered both ways — full-log replay versus
// snapshot + tail — with each rebuilt engine verified bit-identical to
// the live one before its timing counts. Finishes by measuring what
// DropThrough reclaims.
func runRecoveryBenchmark(data *sim.Data, batch int) RecoveryReport {
	var rep RecoveryReport
	dir, err := os.MkdirTemp("", "tagbench-recovery-*")
	if err != nil {
		fail("%v", err)
	}
	defer os.RemoveAll(dir)
	storeOpts := tagstore.Options{MaxSegmentBytes: 256 << 10}
	cfg := engine.Config{
		Omega:          5,
		Shards:         engine.DefaultShards,
		UnderThreshold: data.UnderThreshold,
		TagUniverse:    data.TagUniverse,
	}

	wal, err := tagstore.Open(dir, storeOpts)
	if err != nil {
		fail("recovery wal: %v", err)
	}
	live, err := benchkit.BuildEngine(data, engine.DefaultShards, true, wal)
	if err != nil {
		fail("recovery engine: %v", err)
	}
	events := benchkit.FutureEvents(data)
	cut := len(events) * 9 / 10
	if err := benchkit.RunIngest(live, benchkit.Partition(events[:cut], 1), batch); err != nil {
		fail("recovery ingest: %v", err)
	}
	st := live.ExportState()
	payload, err := st.MarshalBinary()
	if err != nil {
		fail("recovery snapshot: %v", err)
	}
	if _, err := tagstore.WriteSnapshot(dir, st.LastSeq, payload); err != nil {
		fail("recovery snapshot: %v", err)
	}
	if err := benchkit.RunIngest(live, benchkit.Partition(events[cut:], 1), batch); err != nil {
		fail("recovery ingest: %v", err)
	}
	want := live.Snapshot()
	stat, err := wal.Stat()
	if err != nil {
		fail("recovery stat: %v", err)
	}
	rep.WALRecords = wal.Records()
	rep.Segments = stat.Segments
	rep.LogBytes = stat.Bytes
	rep.SnapshotBytes = int64(len(payload))
	rep.TailRecords = int64(len(events) - cut)
	snapSeq := st.LastSeq
	if err := wal.Close(); err != nil {
		fail("recovery close: %v", err)
	}

	verify := func(eng *engine.Engine, path string) {
		if got := eng.Snapshot(); got != want {
			fail("%s recovery diverged from the live engine:\nlive      %+v\nrecovered %+v", path, want, got)
		}
	}
	replayInto := func(store *tagstore.Store, eng *engine.Engine, from uint64) int64 {
		bytes, err := store.ScanFrom(from, func(_ uint64, rid uint32, p tags.Post) error {
			return eng.Replay(int(rid), p)
		})
		if err != nil {
			fail("recovery replay: %v", err)
		}
		return bytes
	}

	const passes = 3
	for pass := 0; pass < passes; pass++ {
		// Full-log replay: prime from the corpus, then every record.
		t0 := time.Now()
		store, err := tagstore.Open(dir, storeOpts)
		if err != nil {
			fail("recovery reopen: %v", err)
		}
		eng, err := engine.New(cfg, data.EngineSpecs())
		if err != nil {
			fail("recovery engine: %v", err)
		}
		bytes := replayInto(store, eng, 1)
		elapsed := time.Since(t0)
		store.Close()
		verify(eng, "full-replay")
		if ms := float64(elapsed.Nanoseconds()) / 1e6; pass == 0 || ms < rep.FullReplayMillis {
			rep.FullReplayMillis = ms
			rep.FullReplayBytes = bytes
		}

		// Snapshot + tail: restore state, then only the records past it.
		t0 = time.Now()
		store, err = tagstore.Open(dir, storeOpts)
		if err != nil {
			fail("recovery reopen: %v", err)
		}
		m, ok, _, err := tagstore.MapLatestSnapshot(dir)
		if err != nil || !ok {
			fail("recovery snapshot load: ok=%v err=%v", ok, err)
		}
		eng, seq, err := engine.Restore(cfg, data.EngineSpecs(), m.Payload)
		if err != nil {
			fail("recovery restore: %v", err)
		}
		bytes = int64(len(m.Payload)) + replayInto(store, eng, seq+1)
		elapsed = time.Since(t0)
		store.Close()
		verify(eng, "snapshot+tail")
		// The restored engine's cold records alias the mapping: release it
		// only once nothing reads the engine any more.
		if err := m.Close(); err != nil {
			fail("recovery snapshot unmap: %v", err)
		}
		if ms := float64(elapsed.Nanoseconds()) / 1e6; pass == 0 || ms < rep.SnapshotTailMillis {
			rep.SnapshotTailMillis = ms
			rep.SnapshotTailBytes = bytes
		}
	}
	if rep.SnapshotTailMillis > 0 {
		rep.Speedup = rep.FullReplayMillis / rep.SnapshotTailMillis
	}
	if rep.SnapshotTailBytes > 0 {
		rep.BytesRatio = float64(rep.FullReplayBytes) / float64(rep.SnapshotTailBytes)
	}

	// Compaction: drop everything the snapshot covers, measure the disk
	// it frees.
	store, err := tagstore.Open(dir, storeOpts)
	if err != nil {
		fail("recovery reopen: %v", err)
	}
	dropped, err := store.DropThrough(snapSeq)
	if err != nil {
		fail("recovery compaction: %v", err)
	}
	stat, err = store.Stat()
	if err != nil {
		fail("recovery stat: %v", err)
	}
	rep.SegmentsCompacted = dropped
	rep.LogBytesAfterCompact = stat.Bytes
	store.Close()
	return rep
}

func main() {
	n := flag.Int("n", 0, "resource count (0 = scenario default)")
	budget := flag.Int("budget", 0, "total budget (0 = scenario default)")
	every := flag.Int("every", 0, "checkpoint interval in spent units (0 = scenario default)")
	seed := flag.Int64("seed", 0, "corpus/run seed (0 = scenario default)")
	batch := flag.Int("batch", 256, "ingest batch size for the batched pipeline")
	out := flag.String("out", "BENCH_engine.json", "output path (- for stdout)")
	queryprof := flag.String("queryprof", "", "write a CPU pprof profile of the query benchmark suite to this path")
	flag.Parse()

	sc := benchkit.DefaultScenario()
	if *n > 0 {
		sc.N = *n
	}
	if *budget > 0 {
		sc.Budget = *budget
	}
	if *every > 0 {
		sc.Every = *every
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	fmt.Fprintf(os.Stderr, "tagbench: generating corpus n=%d seed=%d\n", sc.N, sc.Seed)
	data, err := benchkit.Corpus(sc.N, sc.Seed)
	if err != nil {
		fail("%v", err)
	}

	// One warm, checked run of each path: the structural metrics must
	// agree before any timing is worth reporting.
	incCps, err := benchkit.Run(data, sc, false)
	if err != nil {
		fail("engine run: %v", err)
	}
	refCps, err := benchkit.Run(data, sc, true)
	if err != nil {
		fail("full-scan run: %v", err)
	}
	for k := range incCps {
		a, b := incCps[k], refCps[k]
		if a.Budget != b.Budget || a.OverTagged != b.OverTagged ||
			a.UnderTagged != b.UnderTagged || a.WastedPosts != b.WastedPosts {
			fail("checkpoint %d mismatch between paths: %+v vs %+v", k, a, b)
		}
	}

	fmt.Fprintf(os.Stderr, "tagbench: benchmarking engine path (budget=%d, %d checkpoints)\n",
		sc.Budget, len(sc.Checkpoints()))
	eng := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := benchkit.Run(data, sc, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	fmt.Fprintf(os.Stderr, "tagbench: benchmarking full-scan path\n")
	ref := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := benchkit.Run(data, sc, true); err != nil {
				b.Fatal(err)
			}
		}
	})

	fmt.Fprintf(os.Stderr, "tagbench: benchmarking serving ingest path (batch=%d)\n", *batch)
	ingest := runIngestBenchmarks(data, *batch)

	fmt.Fprintf(os.Stderr, "tagbench: benchmarking lease allocation path\n")
	allocRep := runAllocateBenchmarks(data, 400*time.Millisecond)

	fmt.Fprintf(os.Stderr, "tagbench: benchmarking live query path\n")
	if *queryprof != "" {
		f, err := os.Create(*queryprof)
		if err != nil {
			fail("queryprof: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("queryprof: %v", err)
		}
		defer f.Close()
	}
	queryRep := runQueryBenchmarks(data, *batch)
	runCachedBenchmark(sc, *batch, &queryRep)
	if *queryprof != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "tagbench: query CPU profile written to %s\n", *queryprof)
	}
	fmt.Fprintf(os.Stderr, "tagbench: query online %.0f topk/sec vs per-request rebuild %.0f/sec — %.1fx; search %.0f/sec\n",
		queryRep.OnlineQPS, queryRep.RebuildQPS, queryRep.Speedup, queryRep.SearchQPS)
	fmt.Fprintf(os.Stderr, "tagbench: pruned %.0f topk/sec vs exhaustive %.0f/sec — %.1fx (p50 %.0fµs p99 %.0fµs); cached serving %.0f topk/sec — %.0fx vs exhaustive (hit rate %.2f)\n",
		queryRep.OnlineQPS, queryRep.ExhaustiveQPS, queryRep.PrunedSpeedup,
		queryRep.TopKP50Micros, queryRep.TopKP99Micros,
		queryRep.CachedQPS, queryRep.CachedSpeedup, queryRep.CacheHitRate)

	fmt.Fprintf(os.Stderr, "tagbench: benchmarking crash recovery\n")
	recovery := runRecoveryBenchmark(data, *batch)
	fmt.Fprintf(os.Stderr, "tagbench: recovery full-replay %.1f ms (%d KiB) vs snapshot+tail %.1f ms (%d KiB) — %.2fx faster, %.1fx fewer bytes; compaction %d→%d KiB (%d segments)\n",
		recovery.FullReplayMillis, recovery.FullReplayBytes>>10,
		recovery.SnapshotTailMillis, recovery.SnapshotTailBytes>>10,
		recovery.Speedup, recovery.BytesRatio,
		recovery.LogBytes>>10, recovery.LogBytesAfterCompact>>10, recovery.SegmentsCompacted)

	fmt.Fprintf(os.Stderr, "tagbench: benchmarking overload admission path (0.5x/1x/2x of %g bulk/sec)\n", overloadBulkRate)
	overload := runOverloadBenchmark(sc.Seed)
	fmt.Fprintf(os.Stderr, "tagbench: overload 2x sheds %.0f%% of bulk; interactive p99 headroom %.2f (>=1 keeps the 5x SLO bound)\n",
		100*overload.BulkShedFraction2x, overload.InteractiveP99Headroom)

	fmt.Fprintf(os.Stderr, "tagbench: benchmarking %d-node scatter-gather vs single node (checked bit-identical first)\n", clusterBenchNodes)
	clusterRep := runClusterBenchmark(sc.Seed)

	fmt.Fprintf(os.Stderr, "tagbench: benchmarking memory tiering at n=%d and n=%d (checked bit-identical first)\n", sc.N, sc.N*10)
	memoryRep := runMemoryBenchmark(sc, *batch)

	// PR 1-style engine numbers, measured in this same process: the fig6
	// checkpoint run normalized per post (construction + ingest +
	// checkpoints — the only per-post engine cost PR 1 recorded).
	ingest.PR1PostsPerSec = float64(sc.Budget) / (float64(eng.NsPerOp()) / 1e9)
	ingest.PR1BytesPerPost = float64(eng.AllocedBytesPerOp()) / float64(sc.Budget)
	ingest.VsPR1Throughput = ingest.ScanDenseBatchPostsPerSec / ingest.PR1PostsPerSec
	if ingest.DenseBatchBytesPerPost > 0 {
		ingest.VsPR1AllocReduction = ingest.PR1BytesPerPost / ingest.DenseBatchBytesPerPost
	}

	final := incCps[len(incCps)-1]
	rep := Report{
		Timestamp:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:        runtime.Version(),
		GOOS:             runtime.GOOS,
		GOARCH:           runtime.GOARCH,
		CPUs:             runtime.NumCPU(),
		N:                sc.N,
		Budget:           sc.Budget,
		Every:            sc.Every,
		Checkpoints:      len(sc.Checkpoints()),
		Seed:             sc.Seed,
		EngineNsPerOp:    eng.NsPerOp(),
		FullScanNsPerOp:  ref.NsPerOp(),
		Speedup:          float64(ref.NsPerOp()) / float64(eng.NsPerOp()),
		EngineIters:      eng.N,
		FullScanIters:    ref.N,
		EngineBytesPerOp: eng.AllocedBytesPerOp(),
		FinalMeanQuality: final.MeanQuality,
		FinalOverTagged:  final.OverTagged,
		FinalWastedPosts: final.WastedPosts,
		Ingest:           ingest,
		Allocate:         allocRep,
		Query:            queryRep,
		Recovery:         recovery,
		Overload:         overload,
		Cluster:          clusterRep,
		Memory:           memoryRep,
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fail("%v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "tagbench: engine %v/op, full-scan %v/op — %.1fx checkpoint speedup; ingest %.2fx scan / %.2fx burst single-thread like-for-like, %.1fx throughput and %.1fx fewer alloc bytes/post vs the PR 1 fig6 pipeline\n",
		time.Duration(eng.NsPerOp()), time.Duration(ref.NsPerOp()), rep.Speedup,
		ingest.ScanSpeedup, ingest.BurstSpeedup, ingest.VsPR1Throughput, ingest.VsPR1AllocReduction)
}
