package server_test

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	incentivetag "incentivetag"
	"incentivetag/internal/server"
)

// newClusterNode builds a harness whose service owns only even
// resource ids and whose server carries the given shard-map hash — a
// minimal one-shard stand-in for a real cluster member.
func newClusterNode(t *testing.T, hash string) *harness {
	t.Helper()
	return newClusterNodeOwned(t, hash, func(r int) bool { return r%2 == 0 })
}

func newClusterNodeOwned(t *testing.T, hash string, owned func(int) bool) *harness {
	t.Helper()
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{
		Strategy: "FP-MU",
		Owned:    owned,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Service:      svc,
		Strategy:     "FP-MU",
		TagUniverse:  ds.Vocab.Size(),
		ShardMapHash: hash,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return &harness{ds: ds, svc: svc, ts: ts}
}

func TestClusterMapHashGate(t *testing.T) {
	h := newClusterNode(t, "cafe0123cafe0123")
	var e server.ErrorResponse
	// Missing and wrong hashes are refused with 409.
	h.call(t, "GET", "/cluster/topk?resource=0", nil, &e, http.StatusConflict)
	h.call(t, "GET", "/cluster/topk?resource=0&maphash=beef", nil, &e, http.StatusConflict)
	h.call(t, "GET", "/cluster/search?tags=1&maphash=beef", nil, &e, http.StatusConflict)
	h.call(t, "POST", "/cluster/topk", server.ClusterTopKRequest{MapHash: "beef", K: 3}, &e, http.StatusConflict)
	// The right hash is served, and rides on to the other nodes.
	var own server.ClusterTopKResponse
	h.call(t, "GET", "/cluster/topk?resource=0&maphash=cafe0123cafe0123", nil, &own, http.StatusOK)
	if own.Query == nil || own.Query.Exclude != 0 || own.Query.MapHash != "cafe0123cafe0123" {
		t.Fatalf("owner leg query = %+v", own.Query)
	}

	// A standalone node (no cluster config) serves the surface as a
	// one-node cluster for an empty hash and refuses any real one.
	solo := newHarness(t, 0)
	solo.call(t, "GET", "/cluster/topk?resource=1&maphash=", nil, &own, http.StatusOK)
	solo.call(t, "GET", "/cluster/topk?resource=1&maphash=cafe0123cafe0123", nil, &e, http.StatusConflict)
}

// The owner's leg (GET /cluster/topk) carries the subject's rfd as the
// query for the other nodes: shape, ownership and parameter checks.
func TestClusterRFDShapeAndOwnership(t *testing.T) {
	const hash = "feed0123feed0123"
	h := newClusterNode(t, hash)
	// Grow resource 2's live vector so the rfd is non-trivial.
	h.call(t, "POST", "/ingest", server.IngestRequest{Resource: 2, Tags: []int32{1, 3}}, nil, http.StatusOK)

	var own server.ClusterTopKResponse
	h.call(t, "GET", "/cluster/topk?resource=2&k=7&maphash="+hash, nil, &own, http.StatusOK)
	rfd := own.Query
	if rfd == nil || rfd.Exclude != 2 || rfd.K != 7 || rfd.MapHash != hash || rfd.QNorm2 <= 0 || len(rfd.Entries) == 0 {
		t.Fatalf("owner leg query = %+v", rfd)
	}
	if own.Epoch == 0 {
		t.Fatal("owner leg epoch did not advance past the ingest")
	}
	if len(own.Top) != 7 {
		t.Fatalf("owner leg ranked %d resources, want 7", len(own.Top))
	}
	for _, e := range own.Top {
		if e.Resource%2 != 0 || e.Resource == 2 {
			t.Fatalf("owner leg ranked resource %d: not owned, or the subject itself", e.Resource)
		}
	}
	var norm2 float64
	prev := int32(-1)
	for _, e := range rfd.Entries {
		if e.Tag <= prev {
			t.Fatalf("entries not in ascending tag order: %+v", rfd.Entries)
		}
		prev = e.Tag
		norm2 += float64(e.Count) * float64(e.Count)
	}
	if norm2 != rfd.QNorm2 {
		t.Fatalf("qnorm2 %v does not match entries %v", rfd.QNorm2, norm2)
	}
	// The owner's ranking is the one its own query would have produced.
	var again server.ClusterTopKResponse
	h.call(t, "POST", "/cluster/topk", rfd, &again, http.StatusOK)
	if again.Query != nil {
		t.Fatal("a query leg answered a query member")
	}
	if len(again.Top) != len(own.Top) {
		t.Fatalf("query leg ranked %d, owner leg %d", len(again.Top), len(own.Top))
	}
	for i := range own.Top {
		if again.Top[i].Resource != own.Top[i].Resource || math.Float64bits(again.Top[i].Score) != math.Float64bits(own.Top[i].Score) {
			t.Fatalf("rank %d: owner leg %+v, query leg %+v", i, own.Top[i], again.Top[i])
		}
	}

	// A non-owned subject is refused: this node's copy is stale.
	var e server.ErrorResponse
	h.call(t, "GET", "/cluster/topk?resource=3&maphash="+hash, nil, &e, http.StatusMisdirectedRequest)
	// Out-of-range stays a plain 400 — whatever the predicate would have
	// said about an id it was never asked about.
	h.call(t, "GET", "/cluster/topk?resource=999&maphash="+hash, nil, &e, http.StatusBadRequest)
	h.call(t, "GET", "/cluster/topk?resource=1001&maphash="+hash, nil, &e, http.StatusBadRequest)
	h.call(t, "GET", "/cluster/topk?resource=-1&maphash="+hash, nil, &e, http.StatusBadRequest)
	h.call(t, "GET", "/cluster/topk?resource=x&maphash="+hash, nil, &e, http.StatusBadRequest)
	h.call(t, "GET", "/cluster/topk?maphash="+hash, nil, &e, http.StatusBadRequest)
	for _, k := range []string{"0", "-3", "1001", "ten"} {
		h.call(t, "GET", "/cluster/topk?resource=2&k="+k+"&maphash="+hash, nil, &e, http.StatusBadRequest)
	}
	h.call(t, "GET", "/cluster/topk?resource=2&k=1000&maphash="+hash, nil, &own, http.StatusOK)
	// GET and POST are the route's two methods.
	for _, method := range []string{"PUT", "DELETE", "PATCH"} {
		h.call(t, method, "/cluster/topk?resource=2&maphash="+hash, nil, &e, http.StatusMethodNotAllowed)
	}
}

func TestClusterTopKScoresOnlyOwned(t *testing.T) {
	const hash = "beef0123beef0123"
	h := newClusterNode(t, hash)
	var resp server.ClusterTopKResponse
	h.call(t, "GET", "/cluster/topk?resource=4&k=40&maphash="+hash, nil, &resp, http.StatusOK)
	h.call(t, "POST", "/cluster/topk", resp.Query, &resp, http.StatusOK)
	if len(resp.Top) == 0 {
		t.Fatal("no results")
	}
	for _, e := range resp.Top {
		if e.Resource%2 != 0 {
			t.Fatalf("non-owned resource %d in owned-only ranking", e.Resource)
		}
		if e.Resource == 4 {
			t.Fatal("subject ranked against itself")
		}
	}

	var s server.SearchResponse
	h.call(t, "GET", "/cluster/search?tags=1,2,3&k=40&maphash="+hash, nil, &s, http.StatusOK)
	for _, e := range s.Top {
		if e.Resource%2 != 0 {
			t.Fatalf("non-owned resource %d in owned-only search", e.Resource)
		}
	}
	var e server.ErrorResponse
	h.call(t, "GET", "/cluster/search?maphash="+hash, nil, &e, http.StatusBadRequest)
	h.call(t, "POST", "/cluster/topk", server.ClusterTopKRequest{MapHash: hash, K: 0}, &e, http.StatusBadRequest)
	// An rfd never carries a non-positive count; the wire must not either.
	h.call(t, "POST", "/cluster/topk", server.ClusterTopKRequest{
		MapHash: hash, Exclude: 4, QNorm2: 4, K: 3,
		Entries: []server.WeightedEntry{{Tag: 1, Count: 2}, {Tag: 2, Count: 0}},
	}, &e, http.StatusBadRequest)
	h.call(t, "POST", "/cluster/topk", server.ClusterTopKRequest{
		MapHash: hash, Exclude: 4, QNorm2: 4, K: 3,
		Entries: []server.WeightedEntry{{Tag: 1, Count: -2}},
	}, &e, http.StatusBadRequest)
}

// Ownership is data after boot: the predicate is evaluated once per
// resource by NewService and no request path — ingest checks, the
// allocator mask, the cluster query kernels — ever calls it again.
func TestOwnershipMaterialisedAtBoot(t *testing.T) {
	const hash = "abba0123abba0123"
	var calls atomic.Int64
	h := newClusterNodeOwned(t, hash, func(r int) bool {
		calls.Add(1)
		return r%2 == 0
	})
	n := int64(len(h.ds.Resources))
	if got := calls.Load(); got != n {
		t.Fatalf("boot evaluated the predicate %d times for %d resources", got, n)
	}
	var e server.ErrorResponse
	h.call(t, "POST", "/ingest", server.IngestRequest{Resource: 2, Tags: []int32{1, 3}}, nil, http.StatusOK)
	h.call(t, "POST", "/ingest", server.IngestRequest{Resource: 3, Tags: []int32{1}}, &e, http.StatusMisdirectedRequest)
	var top server.ClusterTopKResponse
	h.call(t, "GET", "/cluster/topk?resource=2&k=40&maphash="+hash, nil, &top, http.StatusOK)
	h.call(t, "GET", "/cluster/topk?resource=3&maphash="+hash, nil, &e, http.StatusMisdirectedRequest)
	h.call(t, "POST", "/cluster/topk", top.Query, &top, http.StatusOK)
	var sr server.SearchResponse
	h.call(t, "GET", "/cluster/search?tags=1,2,3&k=40&maphash="+hash, nil, &sr, http.StatusOK)
	var alloc server.AllocateResponse
	h.call(t, "POST", "/allocate", server.AllocateRequest{}, &alloc, http.StatusOK)
	if !alloc.OK || alloc.Resource%2 != 0 {
		t.Fatalf("allocator handed out %+v on a node owning even ids", alloc)
	}
	if got := calls.Load(); got != n {
		t.Fatalf("serving called the predicate %d more times", got-n)
	}
}

func TestIngestMisdirected(t *testing.T) {
	h := newClusterNode(t, "d00d0123d00d0123")
	var e server.ErrorResponse
	// Single post to a non-owned resource: 421, not silently dropped.
	h.call(t, "POST", "/ingest", server.IngestRequest{Resource: 3, Tags: []int32{1}}, &e, http.StatusMisdirectedRequest)
	// A resource that does not exist is a bad request, not a misdirection.
	h.call(t, "POST", "/ingest", server.IngestRequest{Resource: 1001, Tags: []int32{1}}, &e, http.StatusBadRequest)
	// A batch containing one misdirected event is refused whole.
	before := h.posts(t)
	h.call(t, "POST", "/ingest", server.IngestRequest{Events: []server.IngestEvent{
		{Resource: 2, Tags: []int32{1}},
		{Resource: 5, Tags: []int32{2}},
	}}, &e, http.StatusMisdirectedRequest)
	if after := h.posts(t); after != before {
		t.Fatalf("misdirected batch partially ingested: %d -> %d", before, after)
	}
	// Owned resources ingest normally.
	h.call(t, "POST", "/ingest", server.IngestRequest{Events: []server.IngestEvent{
		{Resource: 2, Tags: []int32{1}},
		{Resource: 6, Tags: []int32{2}},
	}}, nil, http.StatusOK)
}

// posts reads the node's live post count from /metrics.
func (h *harness) posts(t *testing.T) int {
	t.Helper()
	var m server.MetricsResponse
	h.call(t, "GET", "/metrics", nil, &m, http.StatusOK)
	return m.Posts
}
