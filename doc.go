// Package incentivetag is a from-scratch Go implementation of
// "On Incentive-based Tagging" (Yang, Cheng, Mo, Kao, Cheung — ICDE 2013).
//
// Social tagging systems leave most resources under-tagged while a popular
// few are tagged far past the point where new posts add information. The
// paper proposes paying crowd workers to tag specific resources and asks:
// given a fixed budget B of reward units, which resources should receive
// post tasks so that the overall tagging quality is maximized?
//
// The library provides, through this single package:
//
//   - the tagging-stability machinery: relative tag frequency
//     distributions (rfd's), adjacent cosine similarity, Moving-Average
//     stability scores, practically-stable rfd's and stable points
//     (Tracker, StablePoint);
//   - the tagging-quality metric against a stable reference (Reference,
//     SetQuality);
//   - the incentive allocation strategies FC, RR, FP, MU and FP-MU
//     (NewStrategy) and the theoretically optimal offline DP
//     (SolveOptimal);
//   - a deterministic replay simulator implementing the paper's
//     evaluation protocol (Simulation);
//   - a calibrated synthetic del.icio.us-style corpus generator with a
//     taxonomy ground truth (Generate, DefaultConfig);
//   - persistence via an embedded crash-safe append-only post store
//     (SaveDataset, LoadDataset);
//   - the IR case-study layer: top-k similar resources, tag-set search
//     and Kendall-τ ranking accuracy over immutable rfd snapshots
//     (NewSimilarityIndex, RankingAccuracy);
//   - every table and figure of the paper's evaluation as runnable
//     experiments (RunExperiment, Experiments);
//   - a live serving facade over the concurrent sharded tagging engine
//     (Service): lock-striped Ingest from any number of goroutines, the
//     Lease/Fulfill/Expire incentive loop of Algorithm 1 against live
//     state, and O(1) aggregate metric reads (Quality, Snapshot) backed
//     by incrementally maintained quality sums — with optional full
//     durability (ServiceOptions.WALDir): a segmented write-ahead post
//     log plus engine snapshots, background compaction, and crash
//     recovery that rebuilds the exact pre-crash engine.
//
// # Hot path & batching
//
// The serving ingest pipeline is allocation-free and batch-friendly:
//
//   - count vectors use a hybrid dense/map representation — tag ids
//     below sparse.DenseTagCap live in a dense array (pure indexing,
//     zero map traffic), the rare large ids (typo tails) spill to a
//     map; the map form remains the reference implementation and both
//     are bit-identical in every derived metric;
//   - each resource's stable reference rfd is pre-extracted once into a
//     shared dense lookup (quality.RefVector), so the incremental
//     quality dot product is array indexing too;
//   - Service.IngestBatch and Service.IngestMany apply whole batches
//     under one shard-lock acquisition per shard, group-committing each
//     shard's WAL records with a single store write while preserving
//     the per-resource record order per-post Ingest would produce —
//     recovery semantics are unchanged, and the resulting state is
//     bit-identical to one-at-a-time ingestion.
//
// bash bench/run.sh measures the pipeline end to end and layer by layer
// (engine apply, index update, WAL group commit, Service, HTTP decode,
// restart recovery: the ingest-http workload of BENCHMARK.json);
// bench/README.md documents every metric.
//
// # Durability
//
// A Service with ServiceOptions.WALDir set never loses an acknowledged
// post. Every ingest is framed, CRC'd and flushed to the OS in a
// size-rotated segment log (internal/tagstore, MANIFEST-catalogued,
// with implicit per-record sequence numbers) before engine state
// mutates — batched ingest amortizes this to one group-commit write
// per shard batch, which is the visibility guarantee: 200 means
// recoverable. A background snapshotter (interval and/or record-count
// policy, ServiceOptions.SnapshotInterval/SnapshotEvery) periodically
// exports the engine's complete state — count supports plus the exact
// float internals of the MA windows and quality accumulators — into a
// versioned, checksummed snapshot file, then drops the log segments
// the snapshot covers and prunes old snapshots, bounding both restart
// time and disk footprint. NewService on a non-empty WALDir recovers:
// newest valid snapshot (damaged ones are skipped), then the log tail,
// yielding an engine bit-identical to the pre-crash one — asserted in
// tests against both a full-replay oracle and continued identical
// traffic. Mismatched corpora or options fail loudly instead of
// silently diverging. SnapshotNow forces a cycle (POST /admin/snapshot
// over HTTP); Close writes a final snapshot; RecoveryStats reports
// what recovery did. The tagserved readiness gate (GET /healthz)
// answers 503 until replay completes, so restart-under-load scripts
// never race recovery.
//
// # Memory tiering
//
// With a residency budget set (ServiceOptions.MaxResidentResources
// and/or MaxResidentBytes), residence in RAM becomes a per-resource
// property. A background policy loop (TierInterval; TierNow forces a
// pass) freezes the least-recently-touched resources into compact
// varint+delta records (internal/codec — the snapshot encoding); the
// query index reads those records in place, so its posting lists stay
// live and nothing is mirrored. Any write touching a cold resource
// rehydrates it on the spot with the same exact-integer recompute. Every restart on a WALDir — with or without
// a budget; there is one restore path — boots cold straight off the
// mmap'd snapshot (tagstore.MapLatestSnapshot → engine.Restore): every
// frozen record aliases the mapping, and the log-tail replay rehydrates
// what it touches. Under a budget the heap cost per cold resource stays
// a few scalars (~17x fewer live-heap bytes per resource than with
// everything rehydrated at fig6 scale — gated in CI); without one
// nothing is evicted, so a restarted node reports cold resources and
// rehydrations until traffic has touched everything, then stays
// all-resident. Answers are bit-identical with tiering
// on or off — metrics, qualities, allocation decisions and top-k
// rankings are property-tested against a never-evicted twin at the
// engine, index and Service levels, and a cold subject is served off
// its engine record and stays cold. Service.Residency (GET /info,
// /metrics, and tagserved_* gauges on /metrics/prom) reports the
// hot/cold census, eviction/rehydration counters and rehydrate
// latency quantiles.
//
// # Live query path
//
// Service.TopK and Service.Search serve the paper's retrieval
// operations — top-k similar resources (§V-C.1) and query-by-tag-set
// search — from a mutable, shard-partitioned inverted index
// (ir.OnlineIndex) whose posting lists are maintained incrementally
// from the engine's per-post ingest stream (engine.Subscriber): no
// snapshot clone, no index rebuild, no corpus rescan per query. The
// index keeps no count vectors; it reads the engine's under one lock
// order (engine shard → index view) and one epoch.
// Queries are epoch-versioned consistent reads (every shard read lock
// held for the duration), bit-identical to the offline SimilarityIndex
// (NewSimilarityIndex) over SnapshotRFDs at the returned epoch, and safe
// under arbitrary concurrency with ingest. The index is seeded from
// recovered engine state, so a restarted service answers queries
// identically to the one that crashed. Service.QueryStats (GET /info)
// reports the index census; GET /topk and GET /search expose the
// queries over HTTP.
//
// Query execution is one exhaustive kernel over plain posting lists of
// (resource, count) pairs in arrival order: a query's (tag, weight)
// support accumulates into a dense integer dot row, and one rank step
// scores, selects and pads it. Dots are exact integer sums, so answers
// are bit-identical to the offline index's scan, the one oracle the
// serving paths are tested against. Nothing is pruned: block-max
// MaxScore pruning measured slower than this scan at the served corpus
// size (n = 2 000: 40–46 µs against 30–33 µs per top-10) and won only
// at n = 20 000.
// The index also keeps the one TopK result cache, and its answers
// outlive every post that cannot change them: a post to resource r
// moves only r's score against any other subject, so a stored answer
// stands until a touched resource is in it or ranks at or above its kth
// entry. A subject queried again within the index's write log (the last
// 1 024 posts) keeps an exact integer dot row that later posts fold
// into, so a changed answer is reranked without rebuilding it, with
// the same rank step; a post to the subject itself rebuilds the row.
// Kernel and cache counters (candidates scored, cache hits/misses/entries
// and serves/reranks/rebuilds) surface through QueryStats and GET /info.
//
// # Operating under load
//
// The HTTP front-end (internal/server, cmd/tagserved) carries an
// SLO-aware admission layer (internal/admit, configured through
// AdmissionConfig): a token bucket paces bulk /ingest traffic and a
// concurrency limiter caps simultaneous in-flight work, with a bounded
// FIFO wait reserved for interactive routes (/allocate, /complete,
// /expire, /topk, /search). Past capacity the server sheds bulk first
// — 429 with a Retry-After computed from the bucket's actual refill
// schedule, never a 5xx — so interactive latency stays bounded while
// overload lasts. GET /metrics/prom exposes the admission picture in
// Prometheus text format (per-route/class outcome counters that sum
// exactly to offered load, log-bucketed latency histograms with
// p50/p90/p99 gauges, in-flight and queue gauges with their limits, the
// 413 count) with no client library; GET /healthz distinguishes recovering, overloaded, and
// draining from serving; shutdown stops admitting before it waits for
// in-flight work. Limits are per-process — behind a load balancer,
// size the rate per replica. The zero AdmissionConfig disables
// limiting entirely.
//
// # Scaling out
//
// Past one process, internal/cluster + cmd/taggate shard the corpus
// across N tagserved nodes behind a gateway. A static JSON shard map
// places resources by consistent hashing on resource id (vnode-
// smoothed, deterministic — placement is a pure function of the map).
// Each node derives its owned set at boot (ServiceOptions.Owned) and
// builds engine, allocator and query index over those resources only,
// each under a dense local slot in ascending global id order; the
// Service maps ids in and out at its edge, and because slots are
// monotone in id every ranking and strategy tiebreak orders as on one
// node. A durable member's directory is bound to its owned set — the
// log records global ids, snapshots carry the set's fingerprint — so a
// restart under another map refuses it loudly. The gateway proxies
// ingest to each post's owner while scatter-gathering /topk and
// /search: the subject's owner answers first — its own partial ranking
// and, read under the same view, the subject's live count vector as an
// explicit weighted query — the gateway forwards those bytes verbatim
// to every other node, and the per-node partial rankings are merged
// bit-identically to a single-node engine fed the same posts (integer
// count sums are order-independent in float64; every node scores with
// the one kernel over the postings it holds). Quality aggregates
// partition too: the gateway's mean quality is Σ quality_sum / Σ
// resources over the nodes. Every merged
// response carries per-node epochs and a partial flag: a dead shard
// degrades reads to 200/partial rather than 5xx, and the shard-map
// hash rides on every cluster RPC so divergent maps fail with 409
// instead of silently mis-ranking. The gateway serves through the
// node's request edge (server.Edge: admission, body cap, http.Server
// timeouts, one Prometheus writer), so its taggate_* exposition has the
// node's families and label sets, plus per-backend health and latency.
//
// # Quick start
//
//	ds, _ := incentivetag.Generate(incentivetag.DefaultConfig(500, 1))
//	sim := incentivetag.NewSimulation(ds, incentivetag.Options{})
//	res, _ := sim.Run("FP", 2000)
//	fmt.Printf("quality %.4f -> %.4f\n", res.InitialQuality, res.FinalQuality)
//
// # Live serving
//
//	svc, _ := incentivetag.NewService(ds, incentivetag.ServiceOptions{Budget: 100})
//	defer svc.Close()
//	_ = svc.Ingest(42, post)                           // concurrent-safe live traffic
//	if i, lease, ok := svc.Lease(math.MaxInt32); ok { // CHOOSE, cost reserved
//		_ = i                                          // worker tags resource i ...
//		_ = svc.Fulfill(lease, taggerPost)             // ... ingest + UPDATE, cost charged
//	}                                                  // (or svc.Expire(lease))
//	fmt.Println(svc.Quality())                         // O(1), independent of corpus size
//
// Any number of workers may hold leases simultaneously — internal/alloc
// guarantees concurrently leased resources are distinct, serializes
// strategy state and keeps the one budget ledger (reserve on Lease,
// charge on a successful Fulfill, release on Expire or a failed
// ingest; AllocStats reports it). internal/server + cmd/tagserved expose
// the same loop as an HTTP/JSON API with graceful shutdown and
// WAL-backed durability; cmd/tagserve drives it over HTTP.
//
// See examples/ for complete programs, README.md for the architecture
// map, and DESIGN.md for the system inventory and the paper-to-module
// map.
package incentivetag
