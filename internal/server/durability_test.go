package server_test

import (
	"net/http/httptest"
	"testing"

	incentivetag "incentivetag"
	"incentivetag/internal/server"
)

// TestReadinessGate: a deferred server answers 503 everywhere except
// /healthz until the recovered service is installed, then flips.
func TestReadinessGate(t *testing.T) {
	srv, err := server.NewDeferred(server.Config{Strategy: "FP-MU"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	h := &harness{ts: ts}

	var health server.HealthResponse
	h.call(t, "GET", "/healthz", nil, &health, 503)
	if health.Ready {
		t.Fatal("healthz ready before install")
	}
	h.call(t, "GET", "/metrics", nil, nil, 503)
	h.call(t, "GET", "/info", nil, nil, 503)
	h.call(t, "POST", "/ingest", server.IngestRequest{Resource: 0, Tags: []int32{1}}, nil, 503)
	h.call(t, "POST", "/allocate", server.AllocateRequest{}, nil, 503)

	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{Strategy: "FP-MU"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := srv.Install(svc, ds.Vocab.Size()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Install(svc, ds.Vocab.Size()); err == nil {
		t.Fatal("second install accepted")
	}

	h.call(t, "GET", "/healthz", nil, &health, 200)
	if !health.Ready {
		t.Fatal("healthz not ready after install")
	}
	var info server.InfoResponse
	h.call(t, "GET", "/info", nil, &info, 200)
	if !info.Ready || info.N != ds.N() || info.TagUniverse != ds.Vocab.Size() {
		t.Fatalf("info after install: %+v", info)
	}
	if info.Recovery.Recovered {
		t.Fatalf("fresh service claims recovery: %+v", info.Recovery)
	}
	var m server.MetricsResponse
	h.call(t, "GET", "/metrics", nil, &m, 200)
}

// TestAdminSnapshot: POST /admin/snapshot forces a snapshot/compaction
// cycle on a durable service, and refuses on a log-less one.
func TestAdminSnapshot(t *testing.T) {
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{
		Strategy:         "FP-MU",
		WALDir:           t.TempDir(),
		SnapshotInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Service: svc, Strategy: "FP-MU", TagUniverse: ds.Vocab.Size()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer svc.Close()
	h := &harness{ds: ds, svc: svc, ts: ts}

	r := &ds.Resources[0]
	for k := r.Initial; k < r.Initial+3 && k < len(r.Seq); k++ {
		h.call(t, "POST", "/ingest", server.IngestRequest{Resource: 0, Tags: wireTags(r.Seq[k])}, nil, 200)
	}
	var res incentivetag.SnapshotResult
	h.call(t, "POST", "/admin/snapshot", struct{}{}, &res, 200)
	if res.Skipped || res.LastSeq != 3 || res.Bytes == 0 {
		t.Fatalf("snapshot result: %+v", res)
	}
	// Nothing new since: the cycle reports itself skipped.
	h.call(t, "POST", "/admin/snapshot", struct{}{}, &res, 200)
	if !res.Skipped {
		t.Fatalf("repeat snapshot not skipped: %+v", res)
	}
	var info server.InfoResponse
	h.call(t, "GET", "/info", nil, &info, 200)
	if info.Recovery.SnapshotsTaken != 1 {
		t.Fatalf("info snapshot counter: %+v", info.Recovery)
	}

	// A service without a WAL cannot snapshot.
	plain := newHarness(t, 0)
	plain.call(t, "POST", "/admin/snapshot", struct{}{}, nil, 409)
}
