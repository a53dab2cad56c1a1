package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	incentivetag "incentivetag"
	"incentivetag/internal/admit"
	"incentivetag/internal/cluster"
	"incentivetag/internal/promtest"
	"incentivetag/internal/server"
)

const (
	corpusN    = 40
	corpusSeed = 7
)

// node is one cluster member under test: its service, its HTTP server,
// and enough to kill and resurrect it (same address, same WAL).
type node struct {
	name   string
	svc    *incentivetag.Service
	ts     *httptest.Server
	addr   string
	walDir string
}

type clusterHarness struct {
	t     *testing.T
	m     *cluster.Map
	nodes []*node
	gw    *cluster.Gateway
	gts   *httptest.Server
	// reference is a single-node service fed the identical post stream.
	reference *incentivetag.Service
	vocab     int
	posted    int
}

func dataset(t *testing.T) *incentivetag.Dataset {
	t.Helper()
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(corpusN, corpusSeed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// startNode boots (or reboots) one member: a fresh service primed over
// the same deterministic corpus, recovered from its WAL if one exists,
// served on the node's fixed address.
func (h *clusterHarness) startNode(nd *node) {
	h.t.Helper()
	ds := dataset(h.t)
	owned, err := h.m.OwnedBy(nd.name)
	if err != nil {
		h.t.Fatal(err)
	}
	svc, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{
		Strategy: "FP-MU",
		Seed:     corpusSeed,
		WALDir:   nd.walDir,
		Owned:    owned,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Service:      svc,
		Strategy:     "FP-MU",
		TagUniverse:  ds.Vocab.Size(),
		ShardMapHash: h.m.Hash(),
	})
	if err != nil {
		h.t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	l, err := net.Listen("tcp", nd.addr)
	if err != nil {
		h.t.Fatalf("rebinding %s: %v", nd.addr, err)
	}
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	nd.svc, nd.ts = svc, ts
}

// stopNode kills a member ungracefully from the cluster's perspective.
func (h *clusterHarness) stopNode(nd *node) {
	h.t.Helper()
	nd.ts.Close()
	if err := nd.svc.Close(); err != nil {
		h.t.Fatal(err)
	}
}

func newCluster(t *testing.T, nNodes int, admission admit.Config) *clusterHarness {
	t.Helper()
	h := &clusterHarness{t: t}
	h.m = &cluster.Map{VNodes: 64}
	for i := 0; i < nNodes; i++ {
		h.m.Nodes = append(h.m.Nodes, cluster.Node{
			Name: fmt.Sprintf("node%d", i),
			// Placeholder; replaced with the real listener address below.
			URL: "http://127.0.0.1:1",
		})
	}
	for i := 0; i < nNodes; i++ {
		nd := &node{name: h.m.Nodes[i].Name, walDir: filepath.Join(t.TempDir(), "wal")}
		// First boot on an ephemeral port; the address then stays fixed
		// for the node's lifetime so restarts land where the map points.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nd.addr = l.Addr().String()
		l.Close()
		h.nodes = append(h.nodes, nd)
		h.m.Nodes[i].URL = "http://" + nd.addr
	}
	for _, nd := range h.nodes {
		h.startNode(nd)
	}

	ds := dataset(t)
	h.vocab = ds.Vocab.Size()
	ref, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{Strategy: "FP-MU", Seed: corpusSeed})
	if err != nil {
		t.Fatal(err)
	}
	h.reference = ref

	gw, err := cluster.New(cluster.Config{
		Map:           h.m,
		Admission:     admission,
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gw.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	h.gw = gw
	h.gts = httptest.NewServer(gw.Handler())

	t.Cleanup(func() {
		h.gts.Close()
		gw.Stop()
		for _, nd := range h.nodes {
			nd.ts.Close()
			nd.svc.Close()
		}
		ref.Close()
	})
	return h
}

func (h *clusterHarness) call(method, path string, body, out any, wantStatus int) {
	h.t.Helper()
	var req *http.Request
	var err error
	if body != nil {
		enc, merr := json.Marshal(body)
		if merr != nil {
			h.t.Fatal(merr)
		}
		req, err = http.NewRequest(method, h.gts.URL+path, bytes.NewReader(enc))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(method, h.gts.URL+path, nil)
	}
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := h.gts.Client().Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		h.t.Fatalf("%s %s = %d (want %d): %s", method, path, resp.StatusCode, wantStatus, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			h.t.Fatalf("decoding %s %s: %v", method, path, err)
		}
	}
}

func randTags(rng *rand.Rand, vocab int) []int32 {
	ts := make([]int32, 1+rng.Intn(3))
	for i := range ts {
		ts[i] = int32(rng.Intn(vocab))
	}
	return ts
}

func mustPost(t *testing.T, ts []int32) incentivetag.Post {
	t.Helper()
	ids := make([]incentivetag.Tag, len(ts))
	for i, v := range ts {
		ids[i] = incentivetag.Tag(v)
	}
	p, err := incentivetag.NewPost(ids...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ingestVia pushes one random ingest through the gateway — a single
// post or a batch with arbitrary resource mixing — and applies the
// identical posts to the reference engine.
func (h *clusterHarness) ingestVia(rng *rand.Rand) {
	h.t.Helper()
	if rng.Intn(3) == 0 {
		r := rng.Intn(corpusN)
		ts := randTags(rng, h.vocab)
		h.call("POST", "/ingest", server.IngestRequest{Resource: r, Tags: ts}, nil, http.StatusOK)
		if err := h.reference.Ingest(r, mustPost(h.t, ts)); err != nil {
			h.t.Fatal(err)
		}
		h.posted++
		return
	}
	nEv := 1 + rng.Intn(8)
	evs := make([]server.IngestEvent, nEv)
	ref := make([]incentivetag.PostEvent, nEv)
	for i := range evs {
		r := rng.Intn(corpusN)
		ts := randTags(rng, h.vocab)
		evs[i] = server.IngestEvent{Resource: r, Tags: ts}
		ref[i] = incentivetag.PostEvent{Resource: r, Post: mustPost(h.t, ts)}
	}
	var out server.IngestResponse
	h.call("POST", "/ingest", server.IngestRequest{Events: evs}, &out, http.StatusOK)
	if out.Ingested != nEv {
		h.t.Fatalf("batch ingested %d of %d", out.Ingested, nEv)
	}
	if err := h.reference.IngestMany(ref); err != nil {
		h.t.Fatal(err)
	}
	h.posted += nEv
}

// assertBitIdentical drives merged /topk for every subject and a spread
// of /search queries through the gateway and compares every id and
// every score's float64 bits against the single-node reference.
func (h *clusterHarness) assertBitIdentical(rng *rand.Rand, k int) {
	h.t.Helper()
	for subject := 0; subject < corpusN; subject++ {
		var got cluster.TopKResponse
		h.call("GET", fmt.Sprintf("/topk?resource=%d&k=%d", subject, k), nil, &got, http.StatusOK)
		if got.Partial {
			h.t.Fatalf("subject %d: partial with all nodes up", subject)
		}
		if len(got.Epochs) != len(h.nodes) {
			h.t.Fatalf("subject %d: %d per-node epochs, want %d", subject, len(got.Epochs), len(h.nodes))
		}
		want, _, err := h.reference.TopK(subject, k)
		if err != nil {
			h.t.Fatal(err)
		}
		if len(got.Top) != len(want) {
			h.t.Fatalf("subject %d k=%d: %d vs %d results", subject, k, len(got.Top), len(want))
		}
		for i, w := range want {
			g := got.Top[i]
			if g.Resource != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				h.t.Fatalf("subject %d k=%d rank %d: merged (%d, %x) vs single-node (%d, %x)",
					subject, k, i, g.Resource, math.Float64bits(g.Score), w.ID, math.Float64bits(w.Score))
			}
		}
	}
	for trial := 0; trial < 15; trial++ {
		ts := randTags(rng, h.vocab)
		q := mustPost(h.t, ts)
		var got cluster.SearchResponse
		path := fmt.Sprintf("/search?tags=%d", ts[0])
		for _, tg := range ts[1:] {
			path += fmt.Sprintf(",%d", tg)
		}
		h.call("GET", path+fmt.Sprintf("&k=%d", k), nil, &got, http.StatusOK)
		want, _, err := h.reference.Search(q, k)
		if err != nil {
			h.t.Fatal(err)
		}
		if len(got.Top) != len(want) {
			h.t.Fatalf("search %v: %d vs %d results", ts, len(got.Top), len(want))
		}
		for i, w := range want {
			g := got.Top[i]
			if g.Resource != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				h.t.Fatalf("search %v rank %d: merged (%d, %x) vs single-node (%d, %x)",
					ts, i, g.Resource, math.Float64bits(g.Score), w.ID, math.Float64bits(w.Score))
			}
		}
	}
}

// assertAccounting checks exact cluster-wide post accounting: the
// gateway's merged count, the per-shard sum, and the reference engine
// all agree with the number of posts pushed.
func (h *clusterHarness) assertAccounting() {
	h.t.Helper()
	var m cluster.MetricsResponse
	h.call("GET", "/metrics", nil, &m, http.StatusOK)
	if m.Posts != h.posted {
		h.t.Fatalf("gateway reports %d posts, %d were ingested", m.Posts, h.posted)
	}
	sum := 0
	for _, nm := range m.Nodes {
		sum += nm.Posts
	}
	if sum != h.posted {
		h.t.Fatalf("per-node posts sum to %d, %d were ingested", sum, h.posted)
	}
	if got := h.reference.Snapshot().Posts; got != h.posted {
		h.t.Fatalf("reference absorbed %d posts, %d were ingested", got, h.posted)
	}
	if m.Epoch == 0 || len(m.Epochs) != len(h.nodes) {
		h.t.Fatalf("merged metrics epochs malformed: epoch=%d epochs=%v", m.Epoch, m.Epochs)
	}
}

// The tentpole property: arbitrary interleavings of single and batch
// ingest through the gateway — split by owner across three shards —
// yield merged /topk and /search responses bit-identical to one engine
// ingesting the same sequence, with exact post accounting throughout.
func TestGatewayBitIdenticalToSingleNode(t *testing.T) {
	h := newCluster(t, 3, admit.Config{})
	rng := rand.New(rand.NewSource(1))
	h.assertBitIdentical(rng, 10) // primed state only
	for round := 0; round < 4; round++ {
		for i := 0; i < 15; i++ {
			h.ingestVia(rng)
		}
		h.assertBitIdentical(rng, 1+rng.Intn(corpusN))
		h.assertAccounting()
	}
}

// Same property across a mid-stream node kill and WAL-backed restart:
// the dead shard's posts survive in its log, the prober readmits the
// resurrected node, and the merged ranking is again bit-identical.
func TestGatewayBitIdenticalAcrossNodeRestart(t *testing.T) {
	h := newCluster(t, 3, admit.Config{})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 25; i++ {
		h.ingestVia(rng)
	}
	h.assertBitIdentical(rng, 10)

	// Kill node 1 mid-stream and keep ingesting to resources the live
	// nodes own (ingest to the dead owner would be refused, and refusal
	// semantics are TestGatewayPartialDegradation's business).
	victim := h.nodes[1]
	h.stopNode(victim)
	deadOwned, err := h.m.OwnedBy(victim.name)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		r := rng.Intn(corpusN)
		if deadOwned(r) {
			continue
		}
		ts := randTags(rng, h.vocab)
		h.call("POST", "/ingest", server.IngestRequest{Resource: r, Tags: ts}, nil, http.StatusOK)
		if err := h.reference.Ingest(r, mustPost(h.t, ts)); err != nil {
			t.Fatal(err)
		}
		h.posted++
	}

	// Resurrect on the same address: recovery replays the WAL, the
	// prober flips the node back up, and the full property must hold
	// again — including the posts from before the crash.
	h.startNode(victim)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.gw.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		h.ingestVia(rng)
	}
	h.assertBitIdentical(rng, 12)
	h.assertAccounting()
}

// waitDegraded blocks until the gateway's prober has marked some node
// down (healthz reports degraded).
func (h *clusterHarness) waitDegraded() {
	h.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var hz cluster.HealthResponse
		h.call("GET", "/healthz", nil, &hz, http.StatusOK)
		if hz.Degraded {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	h.t.Fatal("gateway never reported degraded")
}

// One dead shard must degrade scatter reads to partial results with
// 200 — never a 5xx — while single-shard operations against the dead
// owner fail with an honest 503.
func TestGatewayPartialDegradation(t *testing.T) {
	h := newCluster(t, 3, admit.Config{})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		h.ingestVia(rng)
	}

	victim := h.nodes[2]
	h.stopNode(victim)
	h.waitDegraded()
	deadOwned, err := h.m.OwnedBy(victim.name)
	if err != nil {
		t.Fatal(err)
	}
	liveSubject, deadSubject := -1, -1
	for r := 0; r < corpusN; r++ {
		if deadOwned(r) {
			deadSubject = r
		} else {
			liveSubject = r
		}
	}
	if liveSubject < 0 || deadSubject < 0 {
		t.Fatalf("partition has an empty side: live=%d dead=%d", liveSubject, deadSubject)
	}

	// Scatter reads: 200 + partial, epochs only from live nodes.
	var tk cluster.TopKResponse
	h.call("GET", fmt.Sprintf("/topk?resource=%d&k=10", liveSubject), nil, &tk, http.StatusOK)
	if !tk.Partial || len(tk.Top) == 0 || len(tk.Epochs) != 2 {
		t.Fatalf("topk with dead shard: %+v", tk)
	}
	var sr cluster.SearchResponse
	h.call("GET", "/search?tags=1,2&k=10", nil, &sr, http.StatusOK)
	if !sr.Partial {
		t.Fatalf("search with dead shard not partial: %+v", sr)
	}
	var m cluster.MetricsResponse
	h.call("GET", "/metrics", nil, &m, http.StatusOK)
	if !m.Partial || len(m.Nodes) != 2 {
		t.Fatalf("metrics with dead shard: partial=%v nodes=%d", m.Partial, len(m.Nodes))
	}

	// The subject's own vector lives on the dead node: that read cannot
	// be partial, it is unavailable.
	h.call("GET", fmt.Sprintf("/topk?resource=%d&k=10", deadSubject), nil, nil, http.StatusServiceUnavailable)
	// Writes to the dead owner are refused, not dropped.
	h.call("POST", "/ingest", server.IngestRequest{Resource: deadSubject, Tags: []int32{1}}, nil, http.StatusServiceUnavailable)

	// Health: degraded but serving.
	var hz cluster.HealthResponse
	h.call("GET", "/healthz", nil, &hz, http.StatusOK)
	if hz.Ready || !hz.Degraded || len(hz.Nodes) != 3 {
		t.Fatalf("healthz = %+v", hz)
	}
}

// The lease loop through the gateway: allocate returns a node-encoded
// lease, complete lands the post on the owning shard, expire settles,
// and a garbage lease is a clean 400.
func TestGatewayLeaseLoop(t *testing.T) {
	h := newCluster(t, 3, admit.Config{})
	var al server.AllocateResponse
	h.call("POST", "/allocate", server.AllocateRequest{}, &al, http.StatusOK)
	if !al.OK {
		t.Fatal("nothing allocatable on a fresh cluster")
	}
	if al.Lease>>48 == 0 {
		t.Fatalf("lease %d carries no node routing bits", al.Lease)
	}
	before := h.clusterPosts()
	h.call("POST", "/complete", server.CompleteRequest{Lease: al.Lease, Tags: []int32{1, 2}}, nil, http.StatusOK)
	if after := h.clusterPosts(); after != before+1 {
		t.Fatalf("completion did not land exactly one post: %d -> %d", before, after)
	}

	h.call("POST", "/allocate", server.AllocateRequest{}, &al, http.StatusOK)
	if al.OK {
		h.call("POST", "/expire", server.ExpireRequest{Lease: al.Lease}, nil, http.StatusOK)
	}
	// A lease that decodes to no node is refused before any proxying.
	h.call("POST", "/complete", server.CompleteRequest{Lease: 42, Tags: []int32{1}}, nil, http.StatusBadRequest)

	// The allocated resource must be owned by the node that leased it —
	// double-check through /owner.
	var own cluster.OwnerResponse
	h.call("GET", fmt.Sprintf("/owner?resource=%d", al.Resource), nil, &own, http.StatusOK)
	if !own.Up || own.Node == "" {
		t.Fatalf("owner = %+v", own)
	}
}

func (h *clusterHarness) clusterPosts() int {
	h.t.Helper()
	var m cluster.MetricsResponse
	h.call("GET", "/metrics", nil, &m, http.StatusOK)
	return m.Posts
}

// The gateway reuses the admission middleware: with a tiny bulk bucket,
// hammered ingest is shed with 429 + Retry-After at the gateway itself.
func TestGatewayAdmission(t *testing.T) {
	h := newCluster(t, 2, admit.Config{Rate: 0.001, Burst: 1})
	shed := false
	for i := 0; i < 5; i++ {
		req, _ := http.NewRequest("POST", h.gts.URL+"/ingest",
			bytes.NewReader([]byte(`{"resource":0,"tags":[1]}`)))
		req.Header.Set("Content-Type", "application/json")
		resp, err := h.gts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			shed = true
		}
		resp.Body.Close()
	}
	if !shed {
		t.Fatal("token bucket never shed")
	}
}

// Shard-map hash agreement: a gateway whose map names diverge from the
// nodes' map must be refused by every cluster RPC (409 surfaces as a
// scatter with zero successful legs).
func TestGatewayMapHashMismatch(t *testing.T) {
	h := newCluster(t, 2, admit.Config{})
	badMap := &cluster.Map{VNodes: h.m.VNodes}
	badMap.Nodes = append(badMap.Nodes, cluster.Node{Name: "renamed0", URL: h.m.Nodes[0].URL})
	badMap.Nodes = append(badMap.Nodes, cluster.Node{Name: "renamed1", URL: h.m.Nodes[1].URL})
	gw, err := cluster.New(cluster.Config{Map: badMap, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gw.WaitReady(ctx); err != nil {
		t.Fatal(err) // healthz carries no map hash; probes still pass
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/search?tags=1&k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched-map search = %d, want 409", resp.StatusCode)
	}
}

// promText fetches a /metrics/prom exposition.
func promText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/metrics/prom: status %d, %v", url, resp.StatusCode, err)
	}
	return string(raw)
}

// The gateway's exposition parses — every line a sample, no series twice
// — and so does every node's behind it, where the two methods of
// /cluster/topk count under one route label: after q gateway /topk
// queries over n real nodes the nodes have admitted exactly q·n legs on
// it, and the gateway has proxied as many requests (plus its probes').
func TestGatewayPromExposition(t *testing.T) {
	const queries = 12
	h := newCluster(t, 3, admit.Config{})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		h.ingestVia(rng)
	}
	for q := 0; q < queries; q++ {
		h.call("GET", fmt.Sprintf("/topk?resource=%d&k=5", q), nil, nil, http.StatusOK)
	}
	h.call("GET", "/search?tags=1,2&k=5", nil, nil, http.StatusOK)

	gw, err := promtest.Parse("taggate_", promText(t, h.gts.URL))
	if err != nil {
		t.Fatalf("gateway exposition: %v", err)
	}
	for series, want := range map[string]float64{
		`taggate_requests_total{route="/topk",class="interactive",outcome="admitted"}`:   queries,
		`taggate_requests_total{route="/search",class="interactive",outcome="admitted"}`: 1,
		`taggate_request_seconds_count{route="/topk"}`:                                   queries,
		`taggate_backend_up{node="node0"}`:                                               1,
	} {
		if got, ok := gw[series]; !ok || got != want {
			t.Fatalf("gateway sample %s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	var legs, proxied float64
	for _, nd := range h.nodes {
		node, err := promtest.Parse("tagserved_", promText(t, nd.ts.URL))
		if err != nil {
			t.Fatalf("%s exposition: %v", nd.name, err)
		}
		legs += node[`tagserved_requests_total{route="/cluster/topk",class="interactive",outcome="admitted"}`]
		proxied += gw[`taggate_backend_requests_total{node="`+nd.name+`"}`]
		if q := gw[`taggate_backend_request_quantile_seconds{node="`+nd.name+`",q="0.5"}`]; q <= 0 {
			t.Fatalf("%s: backend latency p50 = %v after %d legs", nd.name, q, queries)
		}
	}
	if legs != queries*3 {
		t.Fatalf("nodes admitted %v /cluster/topk legs for %d queries over 3 nodes, want %d", legs, queries, queries*3)
	}
	if proxied < legs {
		t.Fatalf("gateway counts %v proxied requests, fewer than the %v legs the nodes served", proxied, legs)
	}
}

// stubCluster is n fake nodes that speak the /cluster/topk protocol and
// keep the books on it: per subject, how many owner legs (GET) and query
// legs (POST) arrived, and whether every POST body was, byte for byte,
// the query member the owner leg answered for that subject.
type stubCluster struct {
	gw    *cluster.Gateway
	conns atomic.Int64

	mu    sync.Mutex
	gets  map[int]int
	posts map[int]int
	bad   []string
}

// stubQuery is the request the stub owner hands out for a subject. Its
// length varies with the subject, so a buffer reused too early shows as
// a body of the wrong subject or the wrong length; every fifth subject
// has no entries, which is not canonical and takes the gateway through
// its encoding/json fallback.
func stubQuery(subject, k int, hash string) server.ClusterTopKRequest {
	req := server.ClusterTopKRequest{MapHash: hash, Exclude: subject, K: k, Entries: []server.WeightedEntry{}}
	if subject%5 != 0 {
		for t := 0; t <= subject%37; t++ {
			c := int64(1 + (subject+t)%9)
			req.Entries = append(req.Entries, server.WeightedEntry{Tag: int32(3 * t), Count: c})
			req.QNorm2 += float64(c * c)
		}
	}
	return req
}

func newStubCluster(t *testing.T, n int) *stubCluster {
	t.Helper()
	sc := &stubCluster{gets: map[int]int{}, posts: map[int]int{}}
	reply := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		reply(w, server.HealthResponse{Ready: true})
	})
	mux.HandleFunc("GET /cluster/topk", func(w http.ResponseWriter, r *http.Request) {
		var subject, k int
		fmt.Sscan(r.URL.Query().Get("resource"), &subject)
		fmt.Sscan(r.URL.Query().Get("k"), &k)
		sc.mu.Lock()
		sc.gets[subject]++
		sc.mu.Unlock()
		req := stubQuery(subject, k, r.URL.Query().Get("maphash"))
		reply(w, server.ClusterTopKResponse{Epoch: 7, Top: []server.TopKEntry{{Resource: subject + 1, Score: 0.5}}, Query: &req})
	})
	mux.HandleFunc("POST /cluster/topk", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req server.ClusterTopKRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		want, _ := json.Marshal(stubQuery(req.Exclude, req.K, req.MapHash))
		sc.mu.Lock()
		sc.posts[req.Exclude]++
		if err != nil || !bytes.Equal(body, want) {
			sc.bad = append(sc.bad, fmt.Sprintf("subject %d: forwarded %q, the owner answered %q (%v)", req.Exclude, body, want, err))
		}
		sc.mu.Unlock()
		reply(w, server.ClusterTopKResponse{Epoch: 7, Top: []server.TopKEntry{{Resource: req.Exclude + 2, Score: 0.25}}})
	})
	m := &cluster.Map{VNodes: 8}
	for i := 0; i < n; i++ {
		stub := httptest.NewUnstartedServer(mux)
		stub.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				sc.conns.Add(1)
			}
		}
		stub.Start()
		t.Cleanup(stub.Close)
		m.Nodes = append(m.Nodes, cluster.Node{Name: fmt.Sprintf("stub%d", i), URL: stub.URL})
	}
	gw, err := cluster.New(cluster.Config{Map: m, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	t.Cleanup(gw.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gw.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	sc.gw = gw
	return sc
}

// hammer runs clients × queries concurrent gateway /topk calls, each for
// a subject of its own, and checks the merged answer of every one.
func (sc *stubCluster) hammer(t *testing.T, clients, queries, nodes int) {
	t.Helper()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				subject := c*queries + q
				rec := httptest.NewRecorder()
				sc.gw.Handler().ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/topk?resource=%d&k=3", subject), nil))
				var got cluster.TopKResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
					t.Errorf("subject %d: status %d: %s (%v)", subject, rec.Code, rec.Body, err)
					return
				}
				if got.Partial || len(got.Epochs) != nodes || got.Epoch != uint64(7*nodes) || len(got.Top) != nodes || got.Top[0].Resource != subject+1 {
					t.Errorf("subject %d: merged answer %+v", subject, got)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// A gateway /topk is one leg per node and nothing is re-encoded on the
// way: against three stub nodes, 8 concurrent clients × 50 queries (run
// under -race) make, per query, exactly one owner GET and two POSTs whose
// bodies are byte-identical to the owner's query member — through the
// scanner and through the encoding/json fallback alike, which is also
// what holds the pooled owner buffer to "returned after the last leg".
func TestGatewayTopKOneLegPerNodeVerbatim(t *testing.T) {
	const clients, queries, nodes = 8, 50, 3
	sc := newStubCluster(t, nodes)
	sc.hammer(t, clients, queries, nodes)
	for _, complaint := range sc.bad {
		t.Error(complaint)
	}
	for subject := 0; subject < clients*queries; subject++ {
		if sc.gets[subject] != 1 || sc.posts[subject] != nodes-1 {
			t.Fatalf("subject %d: %d owner legs and %d query legs, want 1 and %d", subject, sc.gets[subject], sc.posts[subject], nodes-1)
		}
	}
	if len(sc.gets) != clients*queries || len(sc.posts) != clients*queries {
		t.Fatalf("legs for %d / %d subjects, %d were queried", len(sc.gets), len(sc.posts), clients*queries)
	}
}

// An owner that answers without the query member (not a node of this
// protocol) is a bad gateway, not a silently partial ranking.
func TestGatewayTopKOwnerWithoutQuery(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"ready":true}`))
			return
		}
		w.Write([]byte(`{"epoch":1,"top":[]}`))
	}))
	defer stub.Close()
	m := &cluster.Map{VNodes: 8, Nodes: []cluster.Node{{Name: "a", URL: stub.URL}, {Name: "b", URL: stub.URL}}}
	gw, err := cluster.New(cluster.Config{Map: m, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gw.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/topk?resource=1&k=3", nil))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// The gateway's own transport keeps scatter legs on warm connections:
// against a one-node stub that counts accepted connections, 8 concurrent
// clients × 50 /topk queries — one leg each on a one-node map, the owner's
// — open a number of connections bounded by the client count, not the
// query count. net/http's default transport keeps two idle connections
// per host and dials-and-discards for every request beyond them.
func TestGatewayBackendConnectionsBoundedByClients(t *testing.T) {
	const clients, queries = 8, 50
	sc := newStubCluster(t, 1)
	sc.hammer(t, clients, queries, 1)
	legs := 0
	for _, n := range sc.gets {
		legs += n
	}
	if legs != clients*queries || len(sc.posts) != 0 {
		t.Fatalf("stub served %d owner legs and query legs for %d subjects, want %d and none", legs, len(sc.posts), clients*queries)
	}
	// One connection per concurrent client, one for the prober, and
	// room for dials that lose the race against a connection going idle.
	if got := sc.conns.Load(); got > 2*clients+2 {
		t.Fatalf("%d queries from %d clients opened %d backend connections", clients*queries, clients, got)
	}
}
