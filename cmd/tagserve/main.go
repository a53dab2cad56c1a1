// Command tagserve drives the live tagging Service the way a serving
// deployment would see traffic: many goroutines stream organic posts
// into the sharded engine concurrently, an optional allocation loop
// spends an incentive budget through Lease/Fulfill at the same
// time, and aggregate metrics are sampled live — each sample an O(1)
// read, never a corpus scan.
//
// Usage:
//
//	tagserve [-n 1000] [-workers 8] [-shards 0] [-batch 256] [-posts 0]
//	         [-budget 0] [-strategy FP-MU] [-wal DIR] [-seed 1]
//	         [-query 0] [-report 250ms]
//	tagserve -url http://127.0.0.1:8377 [-workers 8] [-batch 64]
//	         [-posts N] [-budget B] [-query 0] [-expire-frac 0.1] [-seed 1]
//
// With -url the program becomes a network load generator against a
// running tagserved (see httpload.go): concurrent batched /ingest
// traffic, then a concurrent /allocate → /complete (or /expire) swarm,
// reporting posts/sec and allocations/sec plus the server's final
// /metrics snapshot. Against an admission-controlled server the client
// backs off on 429 (honoring Retry-After with jittered exponential
// retry) and the summary gains an "admission" block reporting the shed
// rate and per-route request counts. Without -url it drives an
// in-process Service:
//
// -query N runs the mixed read/write workload: N query goroutines
// alternate top-k similar-resource queries and tag-set searches against
// the live online index for the whole organic phase, concurrently with
// every ingest worker, and the summary reports queries/sec alongside
// posts/sec (in HTTP mode the queries go over GET /topk and
// GET /search).
//
// Workers buffer up to -batch posts from their resource stripe and hand
// them to the engine through IngestMany — one shard-lock acquisition and
// one group-committed WAL write per shard per batch (-batch 1 falls back
// to per-post Ingest). -posts caps the organic ingest volume (0 = every
// recorded future post); -budget > 0 additionally runs the incentive
// loop after the organic phase. The run summary — including end-of-run
// ingest throughput and runtime.MemStats allocation counters, so
// load-driver runs are comparable across PRs — is printed to stdout as
// JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	incentivetag "incentivetag"
)

type summary struct {
	N       int `json:"n"`
	Workers int `json:"workers"`
	Shards  int `json:"shards"`
	Batch   int `json:"batch"`

	OrganicPosts   int     `json:"organic_posts"`
	OrganicMillis  int64   `json:"organic_ms"`
	PostsPerSecond float64 `json:"posts_per_sec"`

	// Mixed read/write load (-query): live top-k/search queries served
	// concurrently with the organic ingest phase.
	QueryWorkers   int     `json:"query_workers,omitempty"`
	Queries        int64   `json:"queries,omitempty"`
	QueriesPerSec  float64 `json:"queries_per_sec,omitempty"`
	FinalQueryView uint64  `json:"final_query_epoch,omitempty"`

	// Process-wide allocation deltas over the organic phase
	// (runtime.MemStats), normalized per ingested post. With -query > 0
	// the queries run in the same process and window, so these also
	// carry the query-side allocations — compare ingest-only runs with
	// -query 0.
	AllocBytesPerPost float64 `json:"alloc_bytes_per_post"`
	AllocsPerPost     float64 `json:"allocs_per_post"`
	GCCycles          uint32  `json:"gc_cycles"`

	AllocatedTasks int   `json:"allocated_tasks"`
	AllocateMillis int64 `json:"allocate_ms"`

	FinalMeanQuality    float64 `json:"final_mean_quality"`
	FinalOverTagged     int     `json:"final_over_tagged"`
	FinalUnderTaggedPct float64 `json:"final_under_tagged_pct"`
	FinalWastedPosts    int     `json:"final_wasted_posts"`
	WALDir              string  `json:"wal_dir,omitempty"`
}

func main() {
	n := flag.Int("n", 1000, "resource count of the synthetic corpus")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent ingest goroutines")
	shards := flag.Int("shards", 0, "engine shards (0 = default)")
	batch := flag.Int("batch", 256, "posts per IngestMany batch (1 = per-post Ingest)")
	posts := flag.Int("posts", 0, "organic posts to ingest (0 = all recorded future posts)")
	budget := flag.Int("budget", 0, "incentive budget to spend after the organic phase")
	stratName := flag.String("strategy", "FP-MU", "allocation strategy for -budget")
	walDir := flag.String("wal", "", "directory for the durable post log (empty = no WAL)")
	seed := flag.Int64("seed", 1, "corpus and strategy seed")
	report := flag.Duration("report", 250*time.Millisecond, "live metric sampling interval")
	queryWorkers := flag.Int("query", 0, "concurrent query goroutines (mixed read/write load; 0 = write-only)")
	url := flag.String("url", "", "drive a running tagserved at this base URL instead of an in-process Service")
	expireFrac := flag.Float64("expire-frac", 0, "fraction of leased tasks to abandon via /expire (HTTP mode)")
	flag.Parse()

	if *url != "" {
		runHTTPLoad(*url, *workers, *batch, *posts, *budget, *queryWorkers, *expireFrac, *seed)
		return
	}

	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(*n, *seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tagserve: corpus: %v\n", err)
		os.Exit(1)
	}
	svc, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{
		Shards:   *shards,
		Strategy: *stratName,
		Seed:     *seed,
		WALDir:   *walDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tagserve: service: %v\n", err)
		os.Exit(1)
	}
	defer svc.Close()

	// next[i] is the cursor into resource i's recorded sequence; organic
	// workers and the allocation loop claim posts through it atomically.
	next := make([]int64, ds.N())
	total := 0
	for i := range next {
		next[i] = int64(ds.Resources[i].Initial)
		total += len(ds.Resources[i].Seq) - ds.Resources[i].Initial
	}
	organicCap := total
	if *posts > 0 && *posts < organicCap {
		organicCap = *posts
	}
	claim := func(i int) (incentivetag.Post, bool) {
		k := atomic.AddInt64(&next[i], 1) - 1
		seq := ds.Resources[i].Seq
		if int(k) >= len(seq) {
			// Converged resource: a live tagger restates the stable
			// vocabulary (replay of the final recorded post).
			return seq[len(seq)-1], false
		}
		return seq[k], true
	}

	// Live metric sampler: concurrent O(1) snapshots while ingest runs.
	stopReport := make(chan struct{})
	var reportWG sync.WaitGroup
	if *report > 0 {
		reportWG.Add(1)
		go func() {
			defer reportWG.Done()
			tick := time.NewTicker(*report)
			defer tick.Stop()
			for {
				select {
				case <-stopReport:
					return
				case <-tick.C:
					m := svc.Snapshot()
					fmt.Fprintf(os.Stderr, "tagserve: posts=%d quality=%.4f over=%d under=%.1f%% wasted=%d\n",
						m.Posts, m.MeanQuality, m.OverTagged, 100*m.UnderTaggedPct, m.WastedPosts)
				}
			}
		}()
	}

	// Mixed read workload: -query goroutines alternate top-k and
	// tag-set search queries against the live online index for the whole
	// organic phase. Each query is an epoch-consistent read served
	// concurrently with the sharded ingest — never a corpus rebuild.
	var queries int64
	stopQuery := make(chan struct{})
	var queryWG sync.WaitGroup
	for w := 0; w < *queryWorkers; w++ {
		queryWG.Add(1)
		go func(w int) {
			defer queryWG.Done()
			rng := rand.New(rand.NewSource(*seed + 7000 + int64(w)))
			universe := ds.Vocab.Size()
			for q := 0; ; q++ {
				select {
				case <-stopQuery:
					return
				default:
				}
				if q%2 == 0 {
					if _, _, err := svc.TopK(rng.Intn(ds.N()), 10); err != nil {
						fmt.Fprintf(os.Stderr, "tagserve: topk: %v\n", err)
						os.Exit(1)
					}
				} else {
					m := 1 + rng.Intn(3)
					ids := make([]incentivetag.Tag, m)
					for j := range ids {
						ids[j] = incentivetag.Tag(rng.Intn(universe))
					}
					p, err := incentivetag.NewPost(ids...)
					if err != nil {
						fmt.Fprintf(os.Stderr, "tagserve: search query: %v\n", err)
						os.Exit(1)
					}
					if _, _, err := svc.Search(p, 10); err != nil {
						fmt.Fprintf(os.Stderr, "tagserve: search: %v\n", err)
						os.Exit(1)
					}
				}
				atomic.AddInt64(&queries, 1)
			}
		}(w)
	}

	// Organic phase: workers stream recorded posts across their resource
	// stripes, buffering up to -batch events per IngestMany call, until
	// the cap is hit or the replay is exhausted. Striping by resource
	// keeps each resource's post order intact regardless of how workers
	// interleave.
	var ingested int64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// reserve takes one unit of the organic quota, exactly
			// (workers never overshoot the -posts cap).
			reserve := func() bool {
				for {
					cur := atomic.LoadInt64(&ingested)
					if cur >= int64(organicCap) {
						return false
					}
					if atomic.CompareAndSwapInt64(&ingested, cur, cur+1) {
						return true
					}
				}
			}
			buf := make([]incentivetag.PostEvent, 0, *batch)
			flush := func() {
				if len(buf) == 0 {
					return
				}
				if err := svc.IngestMany(buf); err != nil {
					fmt.Fprintf(os.Stderr, "tagserve: ingest: %v\n", err)
					os.Exit(1)
				}
				buf = buf[:0]
			}
			for {
				progress := false
				for i := w; i < ds.N(); i += *workers {
					p, ok := claim(i)
					if !ok {
						continue
					}
					if !reserve() {
						flush()
						return
					}
					if *batch <= 1 {
						if err := svc.Ingest(i, p); err != nil {
							fmt.Fprintf(os.Stderr, "tagserve: ingest: %v\n", err)
							os.Exit(1)
						}
					} else {
						buf = append(buf, incentivetag.PostEvent{Resource: i, Post: p})
						if len(buf) >= *batch {
							flush()
						}
					}
					progress = true
				}
				if !progress {
					flush()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	organicElapsed := time.Since(start)
	// Stop the query swarm before sampling MemStats so post-phase
	// queries cannot leak into the allocation counters; at most one
	// in-flight query per worker drains past the elapsed cut.
	close(stopQuery)
	queryWG.Wait()
	runtime.ReadMemStats(&m1)

	// Incentive phase: single allocation loop over the live engine.
	allocated := 0
	var allocElapsed time.Duration
	if *budget > 0 {
		t0 := time.Now()
		for remaining := *budget; remaining > 0; {
			i, lease, ok := svc.Lease(remaining)
			if !ok {
				break
			}
			p, _ := claim(i)
			if err := svc.Fulfill(lease, p); err != nil {
				fmt.Fprintf(os.Stderr, "tagserve: fulfill: %v\n", err)
				os.Exit(1)
			}
			allocated++
			remaining--
		}
		allocElapsed = time.Since(t0)
	}

	close(stopReport)
	reportWG.Wait()

	m := svc.Snapshot()
	out := summary{
		N:                   ds.N(),
		Workers:             *workers,
		Shards:              *shards,
		Batch:               *batch,
		OrganicPosts:        int(ingested),
		OrganicMillis:       organicElapsed.Milliseconds(),
		PostsPerSecond:      float64(ingested) / organicElapsed.Seconds(),
		QueryWorkers:        *queryWorkers,
		Queries:             atomic.LoadInt64(&queries),
		QueriesPerSec:       float64(atomic.LoadInt64(&queries)) / organicElapsed.Seconds(),
		FinalQueryView:      svc.QueryStats().Epoch,
		GCCycles:            m1.NumGC - m0.NumGC,
		AllocatedTasks:      allocated,
		AllocateMillis:      allocElapsed.Milliseconds(),
		FinalMeanQuality:    m.MeanQuality,
		FinalOverTagged:     m.OverTagged,
		FinalUnderTaggedPct: m.UnderTaggedPct,
		FinalWastedPosts:    m.WastedPosts,
		WALDir:              *walDir,
	}
	if ingested > 0 {
		out.AllocBytesPerPost = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ingested)
		out.AllocsPerPost = float64(m1.Mallocs-m0.Mallocs) / float64(ingested)
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "tagserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
}
