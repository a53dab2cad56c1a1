package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	incentivetag "incentivetag"
	"incentivetag/internal/server"
	"incentivetag/internal/tagstore"
)

type harness struct {
	ds  *incentivetag.Dataset
	svc *incentivetag.Service
	ts  *httptest.Server
}

func newHarness(t *testing.T, budget int) *harness {
	t.Helper()
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(60, 11))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{Strategy: "FP-MU"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Service:     svc,
		Strategy:    "FP-MU",
		TagUniverse: ds.Vocab.Size(),
		Budget:      budget,
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

// call POSTs (or GETs when body is nil) and decodes the JSON response
// into out, asserting the expected status.
func (h *harness) call(t *testing.T, method, path string, body, out any, wantStatus int) {
	t.Helper()
	var req *http.Request
	var err error
	if body != nil {
		enc, merr := json.Marshal(body)
		if merr != nil {
			t.Fatal(merr)
		}
		req, err = http.NewRequest(method, h.ts.URL+path, bytes.NewReader(enc))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req, err = http.NewRequest(method, h.ts.URL+path, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s = %d (want %d): %s", method, path, resp.StatusCode, wantStatus, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// walFailure returns a durable harness whose next WAL append must fail
// with an error naming a path that contains "out of range": the log
// directory is called that, its active segment is already full (so the
// next append rotates), and the directory is gone (so the rotation's
// create fails).
func walFailure(t *testing.T) *harness {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "out of range")
	st, err := tagstore.Open(dir, tagstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wide := make([]incentivetag.Tag, 4000) // ~8 KiB a record: 200-wide gaps take two varint bytes
	for k := range wide {
		wide[k] = incentivetag.Tag(200 * (k + 1))
	}
	for full := false; !full; {
		if err := st.Append(0, wide); err != nil {
			t.Fatal(err)
		}
		stat, err := st.Stat()
		if err != nil {
			t.Fatal(err)
		}
		full = stat.Bytes >= 4<<20 // tagstore's default MaxSegmentBytes
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(60, 11))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{Strategy: "FP-MU", WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Service: svc, Strategy: "FP-MU"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close() // fails by construction: its log directory is gone
	})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	return &harness{ds: ds, svc: svc, ts: ts}
}

// wireTags converts a recorded post to the wire id representation.
func wireTags(p incentivetag.Post) []int32 {
	out := make([]int32, len(p))
	for k, tg := range p {
		out[k] = int32(tg)
	}
	return out
}

func TestServingLoop(t *testing.T) {
	h := newHarness(t, 0)

	var info server.InfoResponse
	h.call(t, "GET", "/info", nil, &info, http.StatusOK)
	if info.N != h.ds.N() || info.TagUniverse != h.ds.Vocab.Size() || info.Strategy != "FP-MU" {
		t.Fatalf("info = %+v", info)
	}

	// Single-post ingest of a recorded future post.
	r0 := &h.ds.Resources[0]
	var ing server.IngestResponse
	h.call(t, "POST", "/ingest", server.IngestRequest{
		Resource: 0, Tags: wireTags(r0.Seq[r0.Initial]),
	}, &ing, http.StatusOK)
	if ing.Ingested != 1 {
		t.Fatalf("ingested = %d", ing.Ingested)
	}

	// Batched ingest across resources.
	var events []server.IngestEvent
	for i := 1; i < 20; i++ {
		r := &h.ds.Resources[i]
		if r.Initial < len(r.Seq) {
			events = append(events, server.IngestEvent{Resource: i, Tags: wireTags(r.Seq[r.Initial])})
		}
	}
	h.call(t, "POST", "/ingest", server.IngestRequest{Events: events}, &ing, http.StatusOK)
	if ing.Ingested != len(events) {
		t.Fatalf("batch ingested = %d, want %d", ing.Ingested, len(events))
	}

	// Allocate → complete loop.
	completed := 0
	for k := 0; k < 10; k++ {
		var al server.AllocateResponse
		h.call(t, "POST", "/allocate", server.AllocateRequest{}, &al, http.StatusOK)
		if !al.OK {
			t.Fatal("allocation refused with unlimited budget")
		}
		r := &h.ds.Resources[al.Resource]
		p := r.Seq[len(r.Seq)-1]
		if c := h.svc.Count(al.Resource); c < len(r.Seq) {
			p = r.Seq[c]
		}
		var ok server.OKResponse
		h.call(t, "POST", "/complete", server.CompleteRequest{Lease: al.Lease, Tags: wireTags(p)}, &ok, http.StatusOK)
		completed++
	}

	// One allocate → expire.
	var al server.AllocateResponse
	h.call(t, "POST", "/allocate", server.AllocateRequest{}, &al, http.StatusOK)
	var ok server.OKResponse
	h.call(t, "POST", "/expire", server.ExpireRequest{Lease: al.Lease}, &ok, http.StatusOK)

	var m server.MetricsResponse
	h.call(t, "GET", "/metrics", nil, &m, http.StatusOK)
	if m.Posts != 1+len(events)+completed {
		t.Fatalf("metrics posts = %d, want %d", m.Posts, 1+len(events)+completed)
	}
	if m.MeanQuality <= 0 || m.MeanQuality > 1 {
		t.Fatalf("mean quality out of range: %g", m.MeanQuality)
	}
	if m.LeasesFulfilled != uint64(completed) || m.LeasesExpired != 1 || m.LeasesOutstanding != 0 {
		t.Fatalf("lease census wrong: %+v", m)
	}
	if m.AllocatedSpent != completed {
		t.Fatalf("allocated spent = %d, want %d", m.AllocatedSpent, completed)
	}

	// Top-k over the live state.
	var tk server.TopKResponse
	h.call(t, "GET", "/topk?resource=0&k=5", nil, &tk, http.StatusOK)
	if len(tk.Top) != 5 {
		t.Fatalf("topk returned %d entries", len(tk.Top))
	}
	for _, e := range tk.Top {
		if e.Resource == 0 {
			t.Fatal("topk returned the subject itself")
		}
		if e.Score < 0 || e.Score > 1+1e-12 {
			t.Fatalf("topk score out of range: %g", e.Score)
		}
	}
}

func TestBudgetEnforcement(t *testing.T) {
	h := newHarness(t, 3)
	spent := 0
	for {
		var al server.AllocateResponse
		h.call(t, "POST", "/allocate", server.AllocateRequest{}, &al, http.StatusOK)
		if !al.OK {
			break
		}
		r := &h.ds.Resources[al.Resource]
		p := r.Seq[len(r.Seq)-1]
		if c := h.svc.Count(al.Resource); c < len(r.Seq) {
			p = r.Seq[c]
		}
		var ok server.OKResponse
		h.call(t, "POST", "/complete", server.CompleteRequest{Lease: al.Lease, Tags: wireTags(p)}, &ok, http.StatusOK)
		spent++
		if spent > 10 {
			t.Fatal("budget never enforced")
		}
	}
	if spent != 3 {
		t.Fatalf("completed %d tasks on budget 3", spent)
	}
	var m server.MetricsResponse
	h.call(t, "GET", "/metrics", nil, &m, http.StatusOK)
	if m.RemainingBudget != 0 {
		t.Fatalf("remaining budget = %d", m.RemainingBudget)
	}
}

// Outstanding leases reserve budget: with budget 2, a third allocate
// must be refused while two leases are merely held (not yet completed),
// and expiring one must release its reservation.
func TestBudgetReservation(t *testing.T) {
	h := newHarness(t, 2)
	var al1, al2, al3 server.AllocateResponse
	h.call(t, "POST", "/allocate", server.AllocateRequest{}, &al1, http.StatusOK)
	h.call(t, "POST", "/allocate", server.AllocateRequest{}, &al2, http.StatusOK)
	if !al1.OK || !al2.OK {
		t.Fatal("allocations within budget refused")
	}
	h.call(t, "POST", "/allocate", server.AllocateRequest{}, &al3, http.StatusOK)
	if al3.OK {
		t.Fatal("budget over-committed: third lease granted on budget 2 with two outstanding")
	}
	var m server.MetricsResponse
	h.call(t, "GET", "/metrics", nil, &m, http.StatusOK)
	if m.RemainingBudget != 0 || m.AllocatedSpent != 0 {
		t.Fatalf("with 2 reservations: remaining=%d spent=%d", m.RemainingBudget, m.AllocatedSpent)
	}

	// Expiry releases the reservation; the budget becomes allocatable
	// again without any spend.
	var ok server.OKResponse
	h.call(t, "POST", "/expire", server.ExpireRequest{Lease: al2.Lease}, &ok, http.StatusOK)
	h.call(t, "POST", "/allocate", server.AllocateRequest{}, &al3, http.StatusOK)
	if !al3.OK {
		t.Fatal("released reservation not re-allocatable")
	}

	// Completing both held leases lands exactly on the budget.
	for _, al := range []server.AllocateResponse{al1, al3} {
		r := &h.ds.Resources[al.Resource]
		p := r.Seq[len(r.Seq)-1]
		if c := h.svc.Count(al.Resource); c < len(r.Seq) {
			p = r.Seq[c]
		}
		h.call(t, "POST", "/complete", server.CompleteRequest{Lease: al.Lease, Tags: wireTags(p)}, &ok, http.StatusOK)
	}
	h.call(t, "GET", "/metrics", nil, &m, http.StatusOK)
	if m.AllocatedSpent != 2 || m.RemainingBudget != 0 || m.LeasesOutstanding != 0 {
		t.Fatalf("final books: %+v", m)
	}
}

func TestProtocolErrors(t *testing.T) {
	h := newHarness(t, 0)

	// Garbage body, unknown field, wrong shapes.
	resp, err := h.ts.Client().Post(h.ts.URL+"/ingest", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d", resp.StatusCode)
	}
	h.call(t, "POST", "/ingest", server.IngestRequest{}, nil, http.StatusBadRequest)
	h.call(t, "POST", "/ingest", map[string]any{"resource": 0, "tags": []int{1}, "bogus": 1}, nil, http.StatusBadRequest)
	h.call(t, "POST", "/ingest", server.IngestRequest{Resource: 10 * h.ds.N(), Tags: []int32{1}}, nil, http.StatusBadRequest)
	h.call(t, "POST", "/ingest", server.IngestRequest{Resource: 0, Tags: []int32{-4}}, nil, http.StatusBadRequest)

	// The status class follows the error's identity, not its wording: a WAL
	// failure is the server's (500) even when the path in its message
	// happens to read like a client fault.
	var e server.ErrorResponse
	walFailure(t).call(t, "POST", "/ingest", server.IngestRequest{Resource: 0, Tags: []int32{1}}, &e, http.StatusInternalServerError)
	if !strings.Contains(e.Error, "wal") || !strings.Contains(e.Error, "out of range") {
		t.Fatalf("WAL failure reported as %q: not the case this test is about", e.Error)
	}

	// Settle protocol errors: unknown lease, double settle.
	h.call(t, "POST", "/complete", server.CompleteRequest{Lease: 777, Tags: []int32{1}}, nil, http.StatusConflict)
	h.call(t, "POST", "/expire", server.ExpireRequest{Lease: 777}, nil, http.StatusConflict)
	var al server.AllocateResponse
	h.call(t, "POST", "/allocate", server.AllocateRequest{}, &al, http.StatusOK)
	var ok server.OKResponse
	h.call(t, "POST", "/expire", server.ExpireRequest{Lease: al.Lease}, &ok, http.StatusOK)
	h.call(t, "POST", "/complete", server.CompleteRequest{Lease: al.Lease, Tags: []int32{1}}, nil, http.StatusConflict)

	// Top-k validation.
	h.call(t, "GET", "/topk?resource=-1", nil, nil, http.StatusBadRequest)
	h.call(t, "GET", fmt.Sprintf("/topk?resource=%d", h.ds.N()), nil, nil, http.StatusBadRequest)
	h.call(t, "GET", "/topk?resource=0&k=0", nil, nil, http.StatusBadRequest)

	// Method discipline.
	h.call(t, "GET", "/allocate", nil, nil, http.StatusMethodNotAllowed)
	h.call(t, "POST", "/metrics", server.AllocateRequest{}, nil, http.StatusMethodNotAllowed)
}

// TestConcurrentClients hammers the front-end from many goroutines:
// mixed ingest and allocate/complete/expire traffic, then checks the
// books balance. Run under -race in CI.
func TestConcurrentClients(t *testing.T) {
	h := newHarness(t, 0)
	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := h.ts.Client()
			do := func(path string, body, out any) error {
				enc, _ := json.Marshal(body)
				resp, err := client.Post(h.ts.URL+path, "application/json", bytes.NewReader(enc))
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					var e server.ErrorResponse
					json.NewDecoder(resp.Body).Decode(&e)
					return fmt.Errorf("%s: %d %s", path, resp.StatusCode, e.Error)
				}
				if out != nil {
					return json.NewDecoder(resp.Body).Decode(out)
				}
				return nil
			}
			for k := 0; k < perWorker; k++ {
				// Organic ingest on this worker's resource stripe.
				i := (w + k*workers) % h.ds.N()
				r := &h.ds.Resources[i]
				if err := do("/ingest", server.IngestRequest{Resource: i, Tags: wireTags(r.Seq[len(r.Seq)-1])}, nil); err != nil {
					errCh <- err
					return
				}
				// One full lease lifecycle.
				var al server.AllocateResponse
				if err := do("/allocate", server.AllocateRequest{}, &al); err != nil {
					errCh <- err
					return
				}
				if !al.OK {
					continue
				}
				if k%5 == 0 {
					if err := do("/expire", server.ExpireRequest{Lease: al.Lease}, nil); err != nil {
						errCh <- err
						return
					}
					continue
				}
				rr := &h.ds.Resources[al.Resource]
				if err := do("/complete", server.CompleteRequest{Lease: al.Lease, Tags: wireTags(rr.Seq[len(rr.Seq)-1])}, nil); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var m server.MetricsResponse
	h.call(t, "GET", "/metrics", nil, &m, http.StatusOK)
	if m.LeasesOutstanding != 0 {
		t.Fatalf("%d leases left outstanding", m.LeasesOutstanding)
	}
	if uint64(m.Posts) != uint64(workers*perWorker)+m.LeasesFulfilled {
		t.Fatalf("posts = %d, want %d organic + %d fulfilled", m.Posts, workers*perWorker, m.LeasesFulfilled)
	}
	if m.MeanQuality <= 0 {
		t.Fatal("quality not positive after traffic")
	}
}

// TestGracefulShutdown: Serve on a real listener, then Shutdown must
// return promptly with no requests in flight and the server must refuse
// new connections.
func TestGracefulShutdown(t *testing.T) {
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(30, 13))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv, err := server.New(server.Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- srv.Serve(l) }()

	url := "http://" + l.Addr().String()
	// The server answers while up.
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if _, err := http.Get(url + "/metrics"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}
