// Command taggate fronts a sharded tagserved cluster: it loads a static
// shard-map JSON file, routes every ingested post to its owner node via
// consistent hashing on resource id, scatter-gathers /topk, /search and
// /metrics across all nodes (merging partial top-k lists bit-identically
// to a single-node engine — see internal/ir/cluster.go), and runs the
// lease loop (/allocate, /complete, /expire) against per-shard
// allocators with the owning node encoded in each lease id.
//
// Usage:
//
//	taggate -map cluster.json [-addr :8378] [-probe-interval 1s]
//	        [-rate 0] [-burst 0] [-max-inflight 0] [-queue 0]
//	        [-queue-wait 0] [-max-body 8388608]
//
// The shard map is the single placement authority:
//
//	{"vnodes": 64, "nodes": [
//	  {"name": "node0", "url": "http://127.0.0.1:8381"},
//	  {"name": "node1", "url": "http://127.0.0.1:8382"}]}
//
// Every node must be started with -cluster-map on the same file and
// -cluster-self set to its name; the map's hash is exchanged on every
// cluster RPC, so divergent maps fail with 409 instead of silently
// mis-ranking.
//
// A down shard degrades reads instead of failing them: /topk and
// /search still answer 200 with the live nodes' merged results and
// "partial": true. The exceptions are writes whose owner is down
// (503 + Retry-After) and /topk for a subject whose owner is down (the
// subject's live vector is unreachable, 503). GET /healthz reports
// ready only with every node up, degraded while any is down; GET
// /owner?resource=i reports where the ring places a resource.
//
// The gateway serves through tagserved's request edge (server.Edge) and
// its http.Server settings: the admission flags configure the same
// middleware — proxied ingest is the bulk class (shed first, 429 +
// Retry-After pass-through from the nodes included), queries and the
// lease loop are interactive — and -max-body the same 413 cap. GET
// /metrics/prom renders the node's admission, latency and 413 families
// under the taggate_ prefix with the same label sets, plus per-backend
// liveness, request, error and latency series.
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

	"incentivetag/internal/admit"
	"incentivetag/internal/cluster"
	"incentivetag/internal/server"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "taggate: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":8378", "HTTP listen address")
	mapPath := flag.String("map", "", "shard-map JSON file (required)")
	probeInterval := flag.Duration("probe-interval", cluster.DefaultProbeInterval, "per-backend /healthz probe cadence")
	rate := flag.Float64("rate", 0, "bulk ingest admission rate in requests/sec (0 = unlimited)")
	burst := flag.Int("burst", 0, "bulk token-bucket burst (0 = one second's worth)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently served requests (0 = unlimited)")
	queue := flag.Int("queue", 0, "interactive wait-queue capacity (0 = default, negative = none)")
	queueWait := flag.Duration("queue-wait", 0, "max queued interactive wait (0 = default)")
	maxBody := flag.Int64("max-body", 0, "request body cap in bytes (0 = default 8 MiB)")
	flag.Parse()

	if *mapPath == "" {
		fail("-map is required")
	}
	m, err := cluster.LoadMap(*mapPath)
	if err != nil {
		fail("%v", err)
	}
	g, err := cluster.New(cluster.Config{
		Map: m,
		Admission: admit.Config{
			Rate:        *rate,
			Burst:       *burst,
			MaxInFlight: *maxInflight,
			Queue:       *queue,
			QueueWait:   *queueWait,
		},
		MaxBodyBytes:  *maxBody,
		ProbeInterval: *probeInterval,
	})
	if err != nil {
		fail("%v", err)
	}
	g.Start()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("listen: %v", err)
	}
	fmt.Fprintf(os.Stderr, "taggate: fronting %d nodes (vnodes=%d, map hash %s) on %s\n",
		len(m.Nodes), m.VNodes, g.MapHash(), l.Addr())

	hs := server.NewHTTPServer(g.Handler())
	done := make(chan error, 1)
	go func() { done <- hs.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "taggate: %v — draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		err := hs.Shutdown(ctx)
		cancel()
		if err != nil {
			fail("shutdown: %v", err)
		}
		<-done
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fail("serve: %v", err)
		}
	}
	g.Stop()
	fmt.Fprintf(os.Stderr, "taggate: stopped\n")
}
