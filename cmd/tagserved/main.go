// Command tagserved runs the tagging system as a network service: a
// synthetic corpus is generated (or loaded from a directory persisted
// by taggen/SaveDataset), a live Service is primed over it, and the
// HTTP/JSON front-end of internal/server is exposed on -addr.
//
// Usage:
//
//	tagserved [-addr :8377] [-n 1000] [-seed 1] [-data DIR]
//	          [-shards 0] [-strategy FP-MU] [-budget 0] [-wal DIR]
//	          [-snap-interval 30s] [-snap-every 0]
//	          [-rate 0] [-burst 0] [-max-inflight 0] [-queue 0]
//	          [-queue-wait 250ms] [-max-body 8388608]
//	          [-max-resident 0] [-max-resident-bytes 0] [-tier-interval 2s]
//	          [-cluster-map FILE -cluster-self NAME]
//
// With -cluster-map/-cluster-self the process joins a sharded cluster
// as the named member of the shard-map file (see internal/cluster and
// cmd/taggate): it primes, indexes, tiers and snapshots only the
// resources the consistent-hash ring assigns it, each under a local
// slot in ascending id order while every endpoint keeps speaking global
// ids, /ingest and /topk refuse non-owned resources with 421
// Misdirected Request, a -wal directory written under a different map
// (another owned set) is refused at boot, and the /cluster/*
// scatter-gather endpoints require the map's hash on every call:
// GET /cluster/topk on a subject's owner answers its owned-only ranking
// plus, as "query", the request every other node takes verbatim as its
// POST /cluster/topk body; GET /cluster/search is the owned-only search
// (wire shapes and the decode rule are in internal/server/cluster.go).
//
// The admission flags make overload a deliberate policy instead of an
// accident: -rate/-burst token-bucket the crowd's bulk ingest (shed
// with 429 + Retry-After when the bucket runs dry), -max-inflight
// bounds concurrently served requests across all routes, and -queue/
// -queue-wait give interactive requests (allocate, complete, expire,
// topk, search) a small bounded wait for a slot before they too are
// shed. The defaults (0) disable both limits. -max-body caps request
// bodies (413 beyond it). GET /metrics/prom exposes the admission
// counters, queue gauges and per-route latency quantiles in Prometheus
// text format. Limits are per process: a fleet behind a balancer
// multiplies them by the replica count.
//
// The residency flags enable memory tiering: -max-resident and
// -max-resident-bytes budget how many resources (and how much estimated
// heap) stay hot; the rest are frozen to compact records and rehydrated
// on touch, a background policy loop (-tier-interval) evicts the
// least-recently-touched back inside the budget. A -wal restart always
// boots COLD straight off the mmap'd snapshot (budget or not); without
// a budget the cold records simply warm up on touch and are never
// evicted again. Answers on every endpoint are
// bit-identical with tiering on or off; /info, /metrics and
// /metrics/prom (tagserved_resident_resources and friends) expose the
// census.
//
// With -wal the service is durable: every acknowledged post is
// group-committed to a segmented log before it mutates engine state, a
// background snapshotter (interval and/or record-count policy) bounds
// both recovery time and on-disk log size, and a restart on the same
// directory RECOVERS — newest valid snapshot plus the log tail — before
// serving. The listener binds immediately so /healthz answers during
// recovery (503 until replay completes, 200 after); every other
// endpoint refuses with 503 until the service is ready.
//
// The process shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests finish, then a final snapshot is written and the WAL (when
// configured) is flushed and closed. The listen address is printed to
// stderr once the listener is bound, so callers binding port 0 can
// discover the port.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	incentivetag "incentivetag"
	"incentivetag/internal/cluster"
	"incentivetag/internal/server"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tagserved: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":8377", "HTTP listen address")
	n := flag.Int("n", 1000, "resource count of the synthetic corpus")
	seed := flag.Int64("seed", 1, "corpus and strategy seed")
	dataDir := flag.String("data", "", "load a persisted corpus from this directory instead of generating")
	shards := flag.Int("shards", 0, "engine shards (0 = default)")
	stratName := flag.String("strategy", "FP-MU", "incentive allocation strategy")
	budget := flag.Int("budget", 0, "total incentive budget in reward units (0 = unlimited)")
	walDir := flag.String("wal", "", "directory for the durable post log + snapshots (empty = no durability)")
	snapInterval := flag.Duration("snap-interval", 30*time.Second, "background snapshot interval (negative disables)")
	snapEvery := flag.Int("snap-every", 0, "also snapshot every this many logged posts (0 = interval only)")
	rate := flag.Float64("rate", 0, "bulk ingest admission rate in requests/sec (0 = unlimited)")
	burst := flag.Int("burst", 0, "bulk token-bucket burst (0 = one second's worth)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently served requests across all routes (0 = unlimited)")
	queue := flag.Int("queue", 0, "interactive wait-queue capacity (0 = default, negative = none)")
	queueWait := flag.Duration("queue-wait", 0, "max time a queued interactive request waits for a slot (0 = default)")
	maxBody := flag.Int64("max-body", 0, "request body cap in bytes (0 = default 8 MiB)")
	maxResident := flag.Int("max-resident", 0, "max resources kept hot in RAM; the rest tier to compact cold records (0 = unlimited)")
	maxResidentBytes := flag.Int64("max-resident-bytes", 0, "max estimated heap for hot resources (0 = unlimited)")
	tierInterval := flag.Duration("tier-interval", 0, "background tiering policy cadence (0 = default, negative disables the loop)")
	clusterMap := flag.String("cluster-map", "", "shard-map JSON file; makes this node a cluster member (requires -cluster-self)")
	clusterSelf := flag.String("cluster-self", "", "this node's name in the shard map")
	flag.Parse()

	// Cluster membership: the shard map picks the resources this node
	// holds, and the map hash gates /cluster/* RPCs (see
	// internal/cluster).
	var owned func(int) bool
	var mapHash string
	if *clusterMap != "" || *clusterSelf != "" {
		if *clusterMap == "" || *clusterSelf == "" {
			fail("-cluster-map and -cluster-self must be set together")
		}
		m, err := cluster.LoadMap(*clusterMap)
		if err != nil {
			fail("%v", err)
		}
		owned, err = m.OwnedBy(*clusterSelf)
		if err != nil {
			fail("%v", err)
		}
		mapHash = m.Hash()
		fmt.Fprintf(os.Stderr, "tagserved: cluster member %q of %d nodes (map hash %s)\n",
			*clusterSelf, len(m.Nodes), mapHash)
	}

	srv, err := server.NewDeferred(server.Config{
		ShardMapHash: mapHash,
		Strategy:     *stratName,
		Admission: incentivetag.AdmissionConfig{
			Rate:        *rate,
			Burst:       *burst,
			MaxInFlight: *maxInflight,
			Queue:       *queue,
			QueueWait:   *queueWait,
		},
		MaxBodyBytes: *maxBody,
	})
	if err != nil {
		fail("server: %v", err)
	}

	// Bind before the (possibly long) corpus load and WAL recovery:
	// /healthz answers 503 throughout, so restart scripts can wait on
	// readiness instead of racing the replay.
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("listen: %v", err)
	}
	fmt.Fprintf(os.Stderr, "tagserved: listening on %s (recovering)\n", l.Addr())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	var ds *incentivetag.Dataset
	if *dataDir != "" {
		ds, err = incentivetag.LoadDataset(*dataDir)
	} else {
		ds, err = incentivetag.Generate(incentivetag.DefaultConfig(*n, *seed))
	}
	if err != nil {
		fail("corpus: %v", err)
	}
	svc, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{
		Shards:               *shards,
		Strategy:             *stratName,
		Seed:                 *seed,
		Budget:               *budget,
		WALDir:               *walDir,
		SnapshotInterval:     *snapInterval,
		SnapshotEvery:        *snapEvery,
		Owned:                owned,
		MaxResidentResources: *maxResident,
		MaxResidentBytes:     *maxResidentBytes,
		TierInterval:         *tierInterval,
	})
	if err != nil {
		fail("service: %v", err)
	}
	if err := srv.Install(svc, ds.Vocab.Size()); err != nil {
		fail("install: %v", err)
	}
	rec := svc.RecoveryStats()
	if rec.Recovered {
		fmt.Fprintf(os.Stderr, "tagserved: recovered %d posts (snapshot seq %d, %d records replayed, %d KiB read) in %d ms\n",
			rec.RecoveredPosts, rec.SnapshotSeq, rec.ReplayedRecords, rec.ReplayBytes>>10, rec.ReplayMillis)
	}
	fmt.Fprintf(os.Stderr, "tagserved: serving %d of %d resources (|T|=%d, strategy %s) on %s\n",
		svc.Snapshot().Resources, ds.N(), ds.Vocab.Size(), *stratName, l.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "tagserved: %v — draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			fail("shutdown: %v", err)
		}
		<-done // Serve has returned ErrServerClosed
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fail("serve: %v", err)
		}
	}
	// Final snapshot + WAL flush strictly after the last request's write.
	if err := svc.Close(); err != nil {
		fail("close: %v", err)
	}
	m := svc.Snapshot()
	fmt.Fprintf(os.Stderr, "tagserved: stopped — posts=%d quality=%.4f\n", m.Posts, m.MeanQuality)
}
