package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	incentivetag "incentivetag"
	"incentivetag/internal/server"
)

// The query endpoints must serve the live online index with correct
// shapes, advancing epochs, and distinct 400s for each malformed input.
func TestQueryEndpoints(t *testing.T) {
	h := newHarness(t, 0)

	var tk server.TopKResponse
	h.call(t, "GET", "/topk?resource=0&k=5", nil, &tk, http.StatusOK)
	if tk.Resource != 0 || len(tk.Top) != 5 {
		t.Fatalf("topk = %+v", tk)
	}
	for i := 1; i < len(tk.Top); i++ {
		if tk.Top[i].Score > tk.Top[i-1].Score {
			t.Fatalf("scores not descending: %+v", tk.Top)
		}
	}
	// Default k.
	h.call(t, "GET", "/topk?resource=1", nil, &tk, http.StatusOK)
	if len(tk.Top) != 10 {
		t.Fatalf("default k gave %d results", len(tk.Top))
	}

	// The online answer must equal the offline index over the same counts.
	oracle := incentivetag.NewSimilarityIndex(h.svc.SnapshotRFDs()).TopK(1, 10)
	for i, want := range oracle {
		if tk.Top[i].Resource != want.ID || tk.Top[i].Score != want.Score {
			t.Fatalf("rank %d: (%d,%v) vs oracle (%d,%v)",
				i, tk.Top[i].Resource, tk.Top[i].Score, want.ID, want.Score)
		}
	}

	// Ingest moves the epoch; the next query reflects it.
	before := tk.Epoch
	h.call(t, "POST", "/ingest", server.IngestRequest{Resource: 0, Tags: []int32{1, 2}}, nil, http.StatusOK)
	h.call(t, "GET", "/topk?resource=1", nil, &tk, http.StatusOK)
	if tk.Epoch != before+1 {
		t.Fatalf("epoch %d after ingest, want %d", tk.Epoch, before+1)
	}

	// Search: shape, ordering, and echo of the normalized tag set.
	var sr server.SearchResponse
	h.call(t, "GET", "/search?tags=2,1,2&k=5", nil, &sr, http.StatusOK)
	if len(sr.Tags) != 2 || sr.Tags[0] != 1 || sr.Tags[1] != 2 {
		t.Fatalf("normalized tags = %v", sr.Tags)
	}
	if len(sr.Top) > 5 {
		t.Fatalf("search returned %d > k results", len(sr.Top))
	}
	for i := 1; i < len(sr.Top); i++ {
		if sr.Top[i].Score > sr.Top[i-1].Score {
			t.Fatalf("search scores not descending: %+v", sr.Top)
		}
	}
	h.call(t, "GET", "/search?tags=1,+2&k=3", nil, &sr, http.StatusOK) // spaces tolerated

	// /info exposes the query census.
	var info server.InfoResponse
	h.call(t, "GET", "/info", nil, &info, http.StatusOK)
	if info.Queries.TopKQueries == 0 || info.Queries.SearchQueries == 0 || info.Queries.Resources != h.svc.N() {
		t.Fatalf("info.queries = %+v", info.Queries)
	}

	// Malformed requests: every case is a distinct, clear 400.
	for _, bad := range []string{
		"/topk",                  // missing resource
		"/topk?resource=",        // empty resource
		"/topk?resource=abc",     // non-integer
		"/topk?resource=-1",      // out of range (negative)
		"/topk?resource=999999",  // out of range (too large)
		"/topk?resource=0&k=0",   // k too small
		"/topk?resource=0&k=abc", // k non-integer
		"/topk?resource=0&k=1001",
		"/search",              // missing tags
		"/search?tags=",        // empty tags
		"/search?tags=a,b",     // non-integer tags
		"/search?tags=1&k=0",   // bad k
		"/search?tags=1&k=abc", // bad k
	} {
		var e server.ErrorResponse
		h.call(t, "GET", bad, nil, &e, http.StatusBadRequest)
		if e.Error == "" {
			t.Fatalf("%s: empty error message", bad)
		}
	}

	// The out-of-range message names the actual bound, and the missing/
	// non-integer messages do not claim a bogus range.
	var e server.ErrorResponse
	h.call(t, "GET", "/topk?resource=999999", nil, &e, http.StatusBadRequest)
	if want := fmt.Sprintf("out of range [0,%d)", h.svc.N()); !strings.Contains(e.Error, want) {
		t.Fatalf("out-of-range error %q missing %q", e.Error, want)
	}
	h.call(t, "GET", "/topk", nil, &e, http.StatusBadRequest)
	if !strings.Contains(e.Error, "missing resource") {
		t.Fatalf("missing-resource error %q", e.Error)
	}
	h.call(t, "GET", "/topk?resource=abc", nil, &e, http.StatusBadRequest)
	if !strings.Contains(e.Error, "not an integer") {
		t.Fatalf("non-integer error %q", e.Error)
	}
}

// Query endpoints answer 503, not 400, before the service installs.
func TestQueryEndpointsDeferred(t *testing.T) {
	srv, err := server.NewDeferred(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/topk?resource=0", "/search?tags=1"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s = %d before install, want 503", path, resp.StatusCode)
		}
	}
}

// The /info query census must surface the scoring kernel's and the
// result cache's counters — as typed fields and under their stable wire
// names, since dashboards consume the raw JSON. The block-max executor's
// blocks_skipped and tags_deferred left the wire with it.
func TestInfoQueryExecutorCounters(t *testing.T) {
	h := newHarness(t, 0)

	// First /topk builds a scratch row into the result cache; the repeat
	// must be served from it bit-identically.
	var first, second server.TopKResponse
	h.call(t, "GET", "/topk?resource=0&k=5", nil, &first, http.StatusOK)
	h.call(t, "GET", "/topk?resource=0&k=5", nil, &second, http.StatusOK)
	if len(first.Top) != len(second.Top) || first.Epoch != second.Epoch {
		t.Fatalf("cached repeat diverged: %+v vs %+v", first, second)
	}
	for i := range first.Top {
		if first.Top[i] != second.Top[i] {
			t.Fatalf("cached repeat rank %d: %+v vs %+v", i, first.Top[i], second.Top[i])
		}
	}

	var info server.InfoResponse
	h.call(t, "GET", "/info", nil, &info, http.StatusOK)
	q := info.Queries
	if q.CandidatesScored == 0 {
		t.Fatalf("kernel counters dead: %+v", q)
	}
	if q.CacheMisses == 0 || q.CacheHits == 0 || q.CacheServes == 0 || q.CacheEntries == 0 {
		t.Fatalf("result-cache counters dead: %+v", q)
	}

	// A post before the repeat makes the subject hot: its dot row is
	// built from the posting lists, which counts as a miss.
	h.call(t, "POST", "/ingest", server.IngestRequest{Resource: 1, Tags: []int32{3}}, nil, http.StatusOK)
	var after server.TopKResponse
	h.call(t, "GET", "/topk?resource=0&k=5", nil, &after, http.StatusOK)
	if after.Epoch != first.Epoch+1 {
		t.Fatalf("epoch %d after ingest, want %d", after.Epoch, first.Epoch+1)
	}
	var info2 server.InfoResponse
	h.call(t, "GET", "/info", nil, &info2, http.StatusOK)
	if info2.Queries.CacheMisses <= q.CacheMisses || info2.Queries.CacheRebuilds != q.CacheRebuilds+1 {
		t.Fatalf("post-ingest query did not build a row: %+v vs %+v", info2.Queries, q)
	}

	// Wire names: the raw /info JSON must carry every counter under its
	// documented key.
	resp, err := http.Get(h.ts.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	queries, ok := raw["queries"].(map[string]any)
	if !ok {
		t.Fatalf("/info lacks queries object: %v", raw)
	}
	for _, key := range []string{
		"epoch", "topk_queries", "search_queries", "candidates_scored",
		"cache_hits", "cache_misses", "cache_entries",
		"cache_serves", "cache_reranks", "cache_rebuilds",
	} {
		if _, ok := queries[key]; !ok {
			t.Errorf("/info queries missing %q: %v", key, queries)
		}
	}
	for _, key := range []string{"blocks_skipped", "tags_deferred"} {
		if _, ok := queries[key]; ok {
			t.Errorf("/info queries still carries %q: %v", key, queries)
		}
	}
}
