// The load generator drives a running tagserved over its JSON API the
// way a crowd of networked workers would — concurrent batched ingest,
// then a concurrent allocate/complete/expire swarm — and reports
// end-to-end ingest posts/sec and allocations/sec.
//
// The client is a well-behaved citizen of an admission-controlled
// server: a 429 is not an error but back-pressure. It honors the
// server's Retry-After, layers jittered exponential backoff on top,
// retries a bounded number of times, and reports what fraction of its
// traffic was shed (and how many operations it ultimately dropped) in
// the summary — so an overloaded run degrades gracefully instead of
// dying on the first shed request.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incentivetag/internal/server"
)

// httpSummary is the JSON report of one load-generation run.
type httpSummary struct {
	URL     string `json:"url"`
	N       int    `json:"n"`
	Workers int    `json:"workers"`
	Batch   int    `json:"batch"`

	OrganicPosts   int     `json:"organic_posts"`
	OrganicMillis  int64   `json:"organic_ms"`
	PostsPerSecond float64 `json:"posts_per_sec"`

	// Mixed read/write load (-query): GET /topk and GET /search traffic
	// served concurrently with the ingest phase.
	QueryWorkers  int     `json:"query_workers,omitempty"`
	Queries       int64   `json:"queries,omitempty"`
	QueriesPerSec float64 `json:"queries_per_sec,omitempty"`

	Fulfilled         int     `json:"fulfilled_tasks"`
	Expired           int     `json:"expired_tasks"`
	AllocateMillis    int64   `json:"allocate_ms"`
	AllocationsPerSec float64 `json:"allocations_per_sec"`

	FinalPosts          int     `json:"final_posts"`
	FinalMeanQuality    float64 `json:"final_mean_quality"`
	FinalOverTagged     int     `json:"final_over_tagged"`
	FinalUnderTaggedPct float64 `json:"final_under_tagged_pct"`
	FinalWastedPosts    int     `json:"final_wasted_posts"`
	LeasesOutstanding   int     `json:"leases_outstanding"`

	// Admission is the client-side view of the server's load shedding:
	// present whenever the run sent serving-route traffic.
	Admission *admissionSummary `json:"admission,omitempty"`
}

// admissionSummary reports the back-pressure the run experienced.
// Requests counts every HTTP request sent to a serving route (retries
// included); ShedRate is Shed429/Requests; Dropped counts operations
// abandoned after exhausting their retry budget.
type admissionSummary struct {
	Requests int64            `json:"requests"`
	Shed429  int64            `json:"shed_429"`
	Retries  int64            `json:"retries"`
	Dropped  int64            `json:"dropped"`
	ShedRate float64          `json:"shed_rate"`
	PerRoute map[string]int64 `json:"per_route,omitempty"`
}

// Retry policy: bounded attempts, exponential floor, Retry-After
// honored, ±50% jitter, hard cap per wait.
const (
	maxAttempts  = 5
	retryBase    = 50 * time.Millisecond
	retryWaitCap = 5 * time.Second
)

// errDropped marks an operation shed on every attempt; callers count
// it and move on instead of aborting the run.
var errDropped = errors.New("shed by admission control on every retry")

type httpClient struct {
	base string
	hc   *http.Client

	requests atomic.Int64 // serving-route requests sent, retries included
	shed     atomic.Int64 // 429 responses received
	retries  atomic.Int64
	dropped  atomic.Int64

	mu       sync.Mutex
	perRoute map[string]int64
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{
		base:     base,
		hc:       &http.Client{Timeout: 30 * time.Second},
		perRoute: make(map[string]int64),
	}
}

// servingRoute returns the admission-controlled route for a request
// path ("" for ops endpoints, which are neither counted nor retried).
func servingRoute(path string) string {
	route := path
	if i := strings.IndexByte(route, '?'); i >= 0 {
		route = route[:i]
	}
	switch route {
	case "/ingest", "/allocate", "/complete", "/expire", "/topk", "/search":
		return route
	}
	return ""
}

// count records one request sent to a serving route.
func (c *httpClient) count(route string) {
	c.requests.Add(1)
	c.mu.Lock()
	c.perRoute[route]++
	c.mu.Unlock()
}

// backoff computes the wait before retry attempt (0-based): the larger
// of the server's Retry-After and the exponential floor, jittered by
// ±50% so a shed swarm does not retry in lockstep, capped.
func backoff(retryAfter string, attempt int) time.Duration {
	wait := retryBase << uint(attempt)
	if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
		if ra := time.Duration(secs) * time.Second; ra > wait {
			wait = ra
		}
	}
	if wait > retryWaitCap {
		wait = retryWaitCap
	}
	return time.Duration(float64(wait) * (0.5 + rand.Float64()))
}

// doJSON issues one request (POST when body is non-nil, GET otherwise)
// with admission-aware retry on serving routes: a 429 is back-pressure,
// not failure — wait out the server's Retry-After (plus jitter) and try
// again, up to maxAttempts; errDropped after that.
func (c *httpClient) doJSON(path string, body, out any) error {
	var enc []byte
	if body != nil {
		var err error
		if enc, err = json.Marshal(body); err != nil {
			return err
		}
	}
	route := servingRoute(path)
	attempts := maxAttempts
	if route == "" {
		attempts = 1
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if route != "" {
			c.count(route)
		}
		var resp *http.Response
		var err error
		if body != nil {
			resp, err = c.hc.Post(c.base+path, "application/json", bytes.NewReader(enc))
		} else {
			resp, err = c.hc.Get(c.base + path)
		}
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests && route != "" {
			retryAfter := resp.Header.Get("Retry-After")
			resp.Body.Close()
			c.shed.Add(1)
			if attempt == attempts-1 {
				break
			}
			c.retries.Add(1)
			time.Sleep(backoff(retryAfter, attempt))
			continue
		}
		if resp.StatusCode != http.StatusOK {
			var e server.ErrorResponse
			json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, e.Error)
		}
		if out != nil {
			err = json.NewDecoder(resp.Body).Decode(out)
		}
		resp.Body.Close()
		return err
	}
	c.dropped.Add(1)
	return fmt.Errorf("%s: %w", path, errDropped)
}

func (c *httpClient) post(path string, body, out any) error {
	if body == nil {
		body = struct{}{}
	}
	return c.doJSON(path, body, out)
}

func (c *httpClient) get(path string, out any) error {
	return c.doJSON(path, nil, out)
}

// admissionSnapshot builds the summary block (nil if the run never
// touched a serving route).
func (c *httpClient) admissionSnapshot() *admissionSummary {
	reqs := c.requests.Load()
	if reqs == 0 {
		return nil
	}
	c.mu.Lock()
	per := make(map[string]int64, len(c.perRoute))
	for k, v := range c.perRoute {
		per[k] = v
	}
	c.mu.Unlock()
	return &admissionSummary{
		Requests: reqs,
		Shed429:  c.shed.Load(),
		Retries:  c.retries.Load(),
		Dropped:  c.dropped.Load(),
		ShedRate: float64(c.shed.Load()) / float64(reqs),
		PerRoute: per,
	}
}

// randomPost synthesizes a 1–3 tag worker post over the advertised tag
// universe. Real workers restate a resource's topical vocabulary;
// random tags are the adversarial version of that — fine for load, and
// quality still reflects the primed corpus state.
func randomPost(rng *rand.Rand, universe int) []int32 {
	k := 1 + rng.Intn(3)
	out := make([]int32, 0, k)
	for len(out) < k {
		out = append(out, int32(rng.Intn(universe)))
	}
	return out
}

// awaitReady polls /healthz until the server reports ready — a freshly
// restarted tagserved may still be replaying its WAL, and driving load
// before the gate flips would only collect 503s (or, worse, race a
// restart script's recovery assertions).
func (c *httpClient) awaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var h server.HealthResponse
		err := c.get("/healthz", &h)
		if err == nil && h.Ready {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("server not ready")
			}
			return fmt.Errorf("tagserve: /healthz never became ready within %v: %w", timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runHTTPLoad drives a remote tagserved. posts is the organic ingest
// volume; budget the number of incentive tasks to complete; query the
// number of concurrent GET /topk + GET /search workers running for the
// whole organic phase (the mixed read/write workload); expireFrac in
// [0,1) the fraction of leases abandoned instead of fulfilled.
func runHTTPLoad(url string, workers, batch, posts, budget, query int, expireFrac float64, seed int64) {
	c := newHTTPClient(url)
	if err := c.awaitReady(60 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	var info server.InfoResponse
	if err := c.get("/info", &info); err != nil {
		fmt.Fprintf(os.Stderr, "tagserve: %v\n", err)
		os.Exit(1)
	}
	if info.N == 0 || info.TagUniverse == 0 {
		fmt.Fprintf(os.Stderr, "tagserve: server advertises n=%d |T|=%d; cannot generate load\n", info.N, info.TagUniverse)
		os.Exit(1)
	}
	out := httpSummary{URL: url, N: info.N, Workers: workers, Batch: batch}

	failed := func(err error) {
		fmt.Fprintf(os.Stderr, "tagserve: %v\n", err)
		os.Exit(1)
	}

	// Mixed read workload: -query workers alternate GET /topk and
	// GET /search for the duration of the organic phase.
	var queries atomic.Int64
	stopQuery := make(chan struct{})
	var queryWG sync.WaitGroup
	if query > 0 && posts > 0 {
		for w := 0; w < query; w++ {
			queryWG.Add(1)
			go func(w int) {
				defer queryWG.Done()
				rng := rand.New(rand.NewSource(seed + 5000 + int64(w)))
				for q := 0; ; q++ {
					select {
					case <-stopQuery:
						return
					default:
					}
					var err error
					if q%2 == 0 {
						var tk server.TopKResponse
						err = c.get(fmt.Sprintf("/topk?resource=%d&k=10", rng.Intn(info.N)), &tk)
					} else {
						var sr server.SearchResponse
						ts := randomPost(rng, info.TagUniverse)
						path := fmt.Sprintf("/search?tags=%d", ts[0])
						for _, tg := range ts[1:] {
							path += fmt.Sprintf(",%d", tg)
						}
						err = c.get(path+"&k=10", &sr)
					}
					if errors.Is(err, errDropped) {
						continue // shed: counted in the admission summary
					}
					if err != nil {
						failed(err)
					}
					queries.Add(1)
				}
			}(w)
		}
	}

	// Organic phase: each worker ingests batches over its own resource
	// stripe with its own deterministic RNG. Batches are claimed from a
	// shared quota counter *before* they are sent, so the run ingests
	// exactly -posts posts no matter how workers interleave.
	if posts > 0 {
		var claimed, ingested atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(w)))
				buf := make([]server.IngestEvent, 0, batch)
				r := w % info.N
				for {
					from := claimed.Add(int64(batch)) - int64(batch)
					if from >= int64(posts) {
						return
					}
					want := batch
					if left := posts - int(from); left < want {
						want = left
					}
					buf = buf[:0]
					for k := 0; k < want; k++ {
						buf = append(buf, server.IngestEvent{Resource: r, Tags: randomPost(rng, info.TagUniverse)})
						r = (r + workers) % info.N
					}
					if err := c.post("/ingest", server.IngestRequest{Events: buf}, nil); err != nil {
						if errors.Is(err, errDropped) {
							continue // batch shed: the summary reports the drop
						}
						failed(err)
					}
					ingested.Add(int64(len(buf)))
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		// Stop the query swarm before reading its counter so the count
		// matches the elapsed window (at most one in-flight request per
		// worker drains past the cut).
		close(stopQuery)
		queryWG.Wait()
		out.OrganicPosts = int(ingested.Load())
		out.OrganicMillis = elapsed.Milliseconds()
		out.PostsPerSecond = float64(ingested.Load()) / elapsed.Seconds()
		out.QueryWorkers = query
		out.Queries = queries.Load()
		out.QueriesPerSec = float64(queries.Load()) / elapsed.Seconds()
	}

	// Incentive phase: a concurrent allocate/complete/expire swarm.
	// Allocations/sec counts settled leases (fulfilled + expired) per
	// wall-clock second across all workers.
	if budget > 0 {
		var claimed, fulfilled, expired atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + 1000 + int64(w)))
				for {
					// Claim a fulfillment slot up front (released again on
					// expiry), so exactly budget tasks are completed.
					if claimed.Add(1) > int64(budget) {
						return
					}
					var al server.AllocateResponse
					if err := c.post("/allocate", server.AllocateRequest{}, &al); err != nil {
						if errors.Is(err, errDropped) {
							continue // allocation shed: the task slot is forfeited
						}
						failed(err)
					}
					if !al.OK {
						return // budget spent server-side or nothing allocatable
					}
					if rng.Float64() < expireFrac {
						if err := c.post("/expire", server.ExpireRequest{Lease: al.Lease}, nil); err != nil {
							if errors.Is(err, errDropped) {
								continue // lease left to the server's expiry sweep
							}
							failed(err)
						}
						expired.Add(1)
						claimed.Add(-1) // abandoned: the slot goes back
						continue
					}
					if err := c.post("/complete", server.CompleteRequest{
						Lease: al.Lease, Tags: randomPost(rng, info.TagUniverse),
					}, nil); err != nil {
						if errors.Is(err, errDropped) {
							continue // lease left outstanding; reported below
						}
						failed(err)
					}
					fulfilled.Add(1)
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		out.Fulfilled = int(fulfilled.Load())
		out.Expired = int(expired.Load())
		out.AllocateMillis = elapsed.Milliseconds()
		out.AllocationsPerSec = float64(fulfilled.Load()+expired.Load()) / elapsed.Seconds()
	}

	var m server.MetricsResponse
	if err := c.get("/metrics", &m); err != nil {
		failed(err)
	}
	out.FinalPosts = m.Posts
	out.FinalMeanQuality = m.MeanQuality
	out.FinalOverTagged = m.OverTagged
	out.FinalUnderTaggedPct = m.UnderTaggedPct
	out.FinalWastedPosts = m.WastedPosts
	out.LeasesOutstanding = m.LeasesOutstanding
	out.Admission = c.admissionSnapshot()
	if ad := out.Admission; ad != nil && ad.Shed429 > 0 {
		fmt.Fprintf(os.Stderr, "tagserve: server shed %.1f%% of %d requests (%d retries, %d ops dropped)\n",
			100*ad.ShedRate, ad.Requests, ad.Retries, ad.Dropped)
	}

	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		failed(err)
	}
	fmt.Println(string(enc))
	if out.FinalMeanQuality <= 0 {
		fmt.Fprintf(os.Stderr, "tagserve: FAIL: mean quality %g not positive after load\n", out.FinalMeanQuality)
		os.Exit(1)
	}
}
