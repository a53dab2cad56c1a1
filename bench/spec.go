package main

import "time"

// The names below are the benchmark's contract: BENCHMARK.json declares
// the same workloads and metrics (bench_test.go holds the two equal) and
// later issues refer to them by these names.

// Workload names.
const (
	wIngestHTTP   = "ingest-http"
	wQueryGateway = "query-gateway"
	wMixedNode    = "mixed-node"
	wReplayFig6   = "replay-fig6"
)

var workloadNames = []string{wIngestHTTP, wQueryGateway, wMixedNode, wReplayFig6}

// metricSpec is one declared metric.
type metricSpec struct {
	name, unit string
}

// endToEnd lists the metrics every workload reports with tracing off.
// Each workload fills them with its own operation (see README.md):
//
//	ops_per_s      closed loop, 2 clients: posts (ingest-http), queries
//	               (query-gateway), mix operations with a task counting
//	               two (mixed-node), replayed reward units (replay-fig6)
//	p50_ms/p90_ms  open loop at the fixed rate below, timed from each
//	               operation's due time; replay-fig6 times one strategy
//	               replay (NewState + Run with 100 checkpoints)
//	cpu_us_per_op  process CPU (user+system, generator included) per
//	               operation of the closed loop
//	heap_live_mb   median live heap over the timed phases
//	setup_s        median of setupRepeats full set-ups
//
// ops_per_s, the latencies and cpu_us_per_op are medians over half-second
// windows of the run (five-second windows on replay-fig6), each window
// scaled to the reference speed by the speed probe (probe.go); setup_s is
// scaled the same way. The tail beyond p90 is reported per route by the
// traced run (<route>_p99_ms) and not gated: on this box it is set by a
// handful of stalls per run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"heap_live_mb", "MB"},
}

// perLayer lists the metrics of the traced run. A workload in which a
// layer does no work reports 0 for that layer's metrics: that is the
// "predicted flat" column of the README's layer table.
var perLayer = []metricSpec{
	// ingest ladder, bottom to top (ingest-http)
	{"stability.observe_ns_per_post", "ns"},
	{"engine.ingest_ns_per_post", "ns"},
	{"engine.bytes_per_post", "B"},
	{"engine.allocs_per_post", "count"},
	{"ir.apply_ns_per_post", "ns"},
	{"tagstore.append_ns_per_post", "ns"},
	{"tagstore.wal_bytes_per_post", "B"},
	{"tagstore.recover_bytes_read", "B"},
	{"tagstore.recover_replay_ms", "ms"},
	{"service.ingest_ns_per_post", "ns"},
	{"service.ingest_self_ns_per_post", "ns"},
	{"service.snapshot_ms", "ms"},
	{"service.snapshots_in_run", "count"},
	{"server.ingest_decode_ns_per_post", "ns"},
	{"server.ingest_handler_ns_per_post", "ns"},
	{"server.ingest_self_ns_per_post", "ns"},
	{"server.ingest_loopback_ns_per_post", "ns"},
	{"server.ingest_net_ns_per_post", "ns"},
	{"ledger.ingest_closure", "ratio"},
	// query ladder (query-gateway; the ir/service/server rungs also on mixed-node)
	{"ir.topk_us", "us"},
	{"ir.search_us", "us"},
	{"ir.topk_weighted_us", "us"},
	{"ir.candidates_per_topk", "count"},
	{"ir.blocks_skipped_per_topk", "count"},
	{"service.topk_miss_us", "us"},
	{"service.topk_hit_us", "us"},
	{"service.cache_hit_ratio", "ratio"},
	{"server.topk_handler_us", "us"},
	{"server.topk_loopback_us", "us"},
	{"cluster.topk_us", "us"},
	{"cluster.search_us", "us"},
	{"cluster.legs_per_topk", "count"},
	{"cluster.bytes_per_topk", "B"},
	{"cluster.rfd_leg_us", "us"},
	{"cluster.topk_leg_us", "us"},
	{"cluster.legs_wall_us", "us"},
	{"cluster.topk_self_us", "us"},
	{"cluster.scatter_overhead", "ratio"},
	{"ledger.topk_closure", "ratio"},
	{"trace_overhead_ratio", "ratio"},
	// incentive loop and residency (mixed-node)
	{"alloc.lease_us", "us"},
	{"alloc.fulfill_us", "us"},
	{"server.allocate_handler_us", "us"},
	{"server.complete_handler_us", "us"},
	{"server.ingest1_handler_us", "us"},
	{"engine.evictions_per_kop", "count"},
	{"engine.rehydrations_per_kop", "count"},
	{"engine.rehydrate_p99_us", "us"},
	{"engine.resident_mb", "MB"},
	// kernels (replay-fig6)
	{"sim.run_ms.RR", "ms"},
	{"sim.run_ms.FP", "ms"},
	{"sim.run_ms.MU", "ms"},
	{"sim.run_ms.FP-MU", "ms"},
	{"sim.newstate_ms", "ms"},
	{"sim.reference_run_ms", "ms"},
	{"strategy.fpmu_extra_ms", "ms"},
	{"engine.snapshot_ns", "ns"},
	{"optimal.dp_ms", "ms"},
	{"optimal.greedy_ms", "ms"},
	// process and generator, traced closed/open phases of every workload
	{"process.allocs_per_op", "count"},
	{"process.bytes_per_op", "B"},
	{"process.gc_pause_p99_us", "us"},
	{"loadgen.late_ratio", "ratio"},
	{"loadgen.max_lag_ms", "ms"},
	{"loadgen.closed_vs_ladder", "ratio"},
	// per-operation figures of the traced phases: what a client of one
	// route sees. Reported, not gated: no single one exists on every
	// workload, and an end-to-end metric must.
	{"posts_per_s", "1/s"},
	{"queries_per_s", "1/s"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"topk_p50_ms", "ms"},
	{"topk_p99_ms", "ms"},
	{"search_p50_ms", "ms"},
	{"task_p50_ms", "ms"},
	{"task_p99_ms", "ms"},
	{"recover_s", "s"},
	{"error_ratio", "ratio"},
}

// Fixed shape of every run. Nothing here is derived from the machine.
const (
	corpusN      = 2000 // synth.DefaultConfig(2000, seed): the fig6 scale
	clients      = 2    // client goroutines = keep-alive connections
	setupRepeats = 3    // set-ups per run; setup_s is their median
	ingestBatch  = 256  // events per /ingest body on ingest-http
	topK         = 10
)

// openRate is each workload's open-loop schedule in operations per
// second, both clients together. Set once to about half the closed-loop
// median of the first reference runs (two significant digits) and never
// derived at run time, so a slower build meets the same offered load.
var openRate = map[string]float64{
	wIngestHTTP:   350, // 256-event batches/s = 89.6k posts/s
	wQueryGateway: 400, // queries/s
	wMixedNode:    800, // mix operations/s
}

// scale sizes one run. full is what the command line runs; bench_test.go
// runs the same code at a tiny size.
type scale struct {
	n             int // corpus resources
	warmOps       int // warm-up operations per client (part of set-up)
	preloadPosts  int // query-gateway: posts streamed through the gateway in set-up
	snapshotEvery int // WAL records between snapshots on the durable workloads
	maxResident   int // mixed-node residency cap
	budget        int // replay-fig6 budget per strategy
	every         int // replay-fig6 checkpoint interval
	ladderBatches int // ingest ladder inputs
	ladderQueries int // query ladder inputs
	ladderOps     int // mixed ladder inputs
	setups        int
	corruptGate   bool // tests only: falsify one expected answer
}

var full = scale{
	n:             corpusN,
	warmOps:       150,
	preloadPosts:  20000,
	snapshotEvery: 250000,
	maxResident:   corpusN / 4,
	budget:        10000,
	every:         100,
	ladderBatches: 200,
	ladderQueries: 500,
	ladderOps:     2000,
	setups:        setupRepeats,
}

// phases splits the driver's --seconds between the two loops.
type phases struct {
	open, closed time.Duration
}

// phasesFor divides a run of the given length. With tracing off the two
// loops share it equally; the traced run halves both and leaves the rest
// to its ladder, whose length its fixed inputs set.
func phasesFor(seconds float64, traced bool) phases {
	total := time.Duration(seconds * float64(time.Second))
	if traced {
		return phases{open: total / 4, closed: total / 4}
	}
	return phases{open: total / 2, closed: total / 2}
}
