package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"incentivetag"
	"incentivetag/internal/ir"
	"incentivetag/internal/server"
)

// singleNode is what the single-node read ladder hands to the rungs above it.
type singleNode struct {
	loopbackNs float64 // median GET /topk over one TCP connection
}

// splitQueries separates the /topk queries from the /search queries,
// keeping each subject once: a repeated subject would hit the result
// cache inside the pass that is meant to miss it.
func splitQueries(qs []query) (topks, searches []query) {
	seen := map[int]bool{}
	for _, q := range qs {
		switch {
		case q.class == classSearch:
			searches = append(searches, q)
		case !seen[q.subject]:
			seen[q.subject] = true
			topks = append(topks, q)
		}
	}
	return topks, searches
}

// queryLadder climbs the single-node read path on the given queries:
// the ir kernels on an index built from svc's state, Service.TopK on a
// cold then a warm result cache, the /topk handler on a recorder, and the
// same requests over one TCP connection. svc is the ladder's own service;
// one post is ingested between rungs so that each meets a cold cache.
func queryLadder(w io.Writer, rec *recorder, c *corpus, svc *incentivetag.Service, qs []query, res *result) (singleNode, error) {
	topks, searches := splitQueries(qs)
	if len(topks) == 0 || len(searches) == 0 {
		return singleNode{}, fmt.Errorf("ladder needs both query kinds, have %d /topk and %d /search", len(topks), len(searches))
	}
	ix := ir.NewOnlineIndex(svc.SnapshotRFDs(), 8)
	s0 := ix.Stats()
	kernel := rec.measure("ir", "OnlineIndex.TopK", len(topks), func(i int) { ix.TopK(topks[i].subject, topK) })
	s1 := ix.Stats()
	search := rec.measure("ir", "OnlineIndex.Search", len(searches), func(i int) { ix.Search(searches[i].tags, topK) })
	weighted := rec.measure("ir", "OnlineIndex.TopKWeighted", len(topks), func(i int) {
		entries, norm2, _, _ := ix.RFDEntries(topks[i].subject)
		ix.TopKWeighted(entries, norm2, topks[i].subject, topK, nil)
	})

	// bump expires every cached answer: the cache is keyed by the index
	// epoch and any post advances it.
	bumps := 0
	bump := func() error {
		bumps++
		return svc.Ingest(0, c.futurePost(0, bumps))
	}
	var bad error
	// An unmeasured pass first: the miss rung should pay for a cache
	// lookup and a ranking, not for growing an empty cache.
	for _, q := range topks {
		if _, _, err := svc.TopK(q.subject, topK); err != nil {
			return singleNode{}, err
		}
	}
	if err := bump(); err != nil {
		return singleNode{}, err
	}
	q0 := svc.QueryStats()
	miss := rec.measure("service", "TopK miss", len(topks), func(i int) {
		if _, _, err := svc.TopK(topks[i].subject, topK); err != nil {
			bad = err
		}
	})
	hit := rec.measure("service", "TopK hit", len(topks), func(i int) {
		if _, _, err := svc.TopK(topks[i].subject, topK); err != nil {
			bad = err
		}
	})
	q1 := svc.QueryStats()
	if bad != nil {
		return singleNode{}, bad
	}

	srv, err := server.New(server.Config{Service: svc, Strategy: "FP-MU", TagUniverse: c.universe})
	if err != nil {
		return singleNode{}, err
	}
	if err := bump(); err != nil {
		return singleNode{}, err
	}
	handler, err := handlerRung(rec, srv.Handler(), "GET /topk", len(topks), func(i int) *http.Request {
		return httptest.NewRequest(http.MethodGet, topks[i].path, nil)
	})
	if err != nil {
		return singleNode{}, err
	}

	hs, addr, served, err := serve(srv.Handler(), "")
	if err != nil {
		return singleNode{}, err
	}
	defer stopServing(hs, served)
	conn, err := dialHTTP(addr)
	if err != nil {
		return singleNode{}, err
	}
	defer conn.close()
	if err := bump(); err != nil {
		return singleNode{}, err
	}
	loopback := rec.measure("server", "GET /topk over TCP", len(topks), func(i int) {
		status, _, err := conn.roundTrip(topks[i].req)
		if err != nil || status != http.StatusOK {
			bad = fmt.Errorf("loopback %s: status %d: %v", topks[i].path, status, err)
		}
	})
	if bad != nil {
		return singleNode{}, bad
	}

	kernel.self = kernel.perOp
	miss.self = miss.perOp - kernel.perOp
	handler.self = handler.perOp - miss.perOp
	loopback.layer, loopback.self = "net", loopback.perOp-handler.perOp
	rungs := []rung{kernel, miss, handler, loopback}

	n := float64(len(topks))
	res.metrics["ir.topk_us"] = kernel.perOp / 1e3
	res.metrics["ir.search_us"] = search.perOp / 1e3
	res.metrics["ir.topk_weighted_us"] = weighted.perOp / 1e3
	res.metrics["ir.candidates_per_topk"] = float64(s1.CandidatesScored-s0.CandidatesScored) / n
	res.metrics["ir.blocks_skipped_per_topk"] = float64(s1.BlocksSkipped-s0.BlocksSkipped) / n
	res.metrics["service.topk_miss_us"] = miss.perOp / 1e3
	res.metrics["service.topk_hit_us"] = hit.perOp / 1e3
	res.metrics["server.topk_handler_us"] = handler.perOp / 1e3
	res.metrics["server.topk_loopback_us"] = loopback.perOp / 1e3
	printLadder(w, fmt.Sprintf("single-node /topk ladder, %d queries, us per query:", len(topks)), rungs, 1e3, "us")
	fmt.Fprintf(w, "    service    TopK hit %.2f us; the two passes hit the result cache %d times in %d lookups\n",
		hit.perOp/1e3, q1.CacheHits-q0.CacheHits, q1.CacheHits-q0.CacheHits+q1.CacheMisses-q0.CacheMisses)
	fmt.Fprintf(w, "    self times sum to %.3f of the loopback rung\n", closure(rungs, loopback.perOp))
	return singleNode{loopbackNs: loopback.perOp}, nil
}
