// Command tagserve is the HTTP load generator for a running tagserved
// (or a taggate gateway, which answers the same API): concurrent
// batched /ingest traffic, then a concurrent /allocate → /complete (or
// /expire) swarm, reporting posts/sec and allocations/sec plus the
// server's final /metrics snapshot as JSON on stdout.
//
// Usage:
//
//	tagserve -url http://127.0.0.1:8377 [-workers 8] [-batch 256]
//	         [-posts N] [-budget B] [-query 0] [-expire-frac 0.1] [-seed 1]
//
// -posts is the organic ingest volume and -budget the number of
// incentive tasks to complete; the server's own budget ledger may end
// the allocation swarm first. -query N runs the mixed read/write
// workload: N goroutines alternate GET /topk and GET /search for the
// whole ingest phase, and the summary reports queries/sec alongside
// posts/sec. Against an admission-controlled server the client backs
// off on 429 (honoring Retry-After with jittered exponential retry) and
// the summary gains an "admission" block reporting the shed rate and
// per-route request counts.
//
// The in-process Service is measured layer by layer by bench/.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	url := flag.String("url", "", "base URL of the tagserved or taggate to drive (required)")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent client goroutines")
	batch := flag.Int("batch", 256, "posts per /ingest batch")
	posts := flag.Int("posts", 0, "organic posts to ingest")
	budget := flag.Int("budget", 0, "incentive tasks to complete after the organic phase")
	queryWorkers := flag.Int("query", 0, "concurrent query goroutines (mixed read/write load; 0 = write-only)")
	expireFrac := flag.Float64("expire-frac", 0, "fraction of leased tasks to abandon via /expire")
	seed := flag.Int64("seed", 1, "client RNG seed")
	flag.Parse()

	if *url == "" {
		fmt.Fprintln(os.Stderr, "tagserve: -url is required")
		flag.Usage()
		os.Exit(2)
	}
	runHTTPLoad(*url, *workers, *batch, *posts, *budget, *queryWorkers, *expireFrac, *seed)
}
