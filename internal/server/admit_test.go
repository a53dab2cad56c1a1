package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	incentivetag "incentivetag"
	"incentivetag/internal/admit"
	"incentivetag/internal/promtest"
)

// newAdmitServer builds a ready server over a small generated corpus
// with the given admission config, served through httptest.
func newAdmitServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *incentivetag.Dataset) {
	t.Helper()
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(60, 11))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{Strategy: "FP-MU"})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Service = svc
	cfg.Strategy = "FP-MU"
	cfg.TagUniverse = ds.Vocab.Size()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return srv, ts, ds
}

// ingestBody is a valid single-post ingest payload for ds.
func ingestBody(t *testing.T, ds *incentivetag.Dataset) []byte {
	t.Helper()
	r0 := &ds.Resources[0]
	p := r0.Seq[r0.Initial]
	tags := make([]int32, len(p))
	for i, tg := range p {
		tags[i] = int32(tg)
	}
	enc, err := json.Marshal(IngestRequest{Resource: 0, Tags: tags})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestOversizedBodyGets413(t *testing.T) {
	srv, ts, _ := newAdmitServer(t, Config{MaxBodyBytes: 256})
	big := bytes.Repeat([]byte(" "), 300)
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "256") {
		t.Fatalf("413 message %q does not name the limit", e.Error)
	}
	if got := srv.edge.bodyTooLarge.Load(); got != 1 {
		t.Fatalf("body-too-large counter = %d, want 1", got)
	}
	// A normal-sized (but still bad) body keeps its 400.
	resp2, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body status = %d, want 400", resp2.StatusCode)
	}
}

func TestBulkShedWith429AndRetryAfter(t *testing.T) {
	_, ts, ds := newAdmitServer(t, Config{
		Admission: admit.Config{Rate: 1, Burst: 2},
	})
	body := ingestBody(t, ds)
	var admitted, shed int
	for i := 0; i < 6; i++ {
		resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			admitted++
		case http.StatusTooManyRequests:
			shed++
			ra := resp.Header.Get("Retry-After")
			secs, err := strconv.Atoi(ra)
			if err != nil || secs < 1 {
				t.Fatalf("shed response Retry-After = %q, want integer >= 1", ra)
			}
		default:
			t.Fatalf("ingest %d status = %d", i, resp.StatusCode)
		}
	}
	if admitted != 2 || shed != 4 {
		t.Fatalf("admitted/shed = %d/%d, want 2/4 (burst 2)", admitted, shed)
	}
	// Interactive traffic is never charged against the bulk bucket.
	resp, err := http.Get(ts.URL + "/topk?resource=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive query with drained bulk bucket = %d, want 200", resp.StatusCode)
	}
}

func TestHealthzReportsOverload(t *testing.T) {
	srv, ts, _ := newAdmitServer(t, Config{
		Admission: admit.Config{MaxInFlight: 1, Queue: 1, QueueWait: 5 * time.Second},
	})
	// Occupy the only slot, then park a waiter to saturate the queue.
	if res := srv.edge.ctl.Admit(context.Background(), admit.Interactive); res.Outcome != admit.Admitted {
		t.Fatalf("slot admit: %v", res.Outcome)
	}
	waiter := make(chan admit.Result, 1)
	go func() { waiter <- srv.edge.ctl.Admit(context.Background(), admit.Interactive) }()
	deadline := time.Now().Add(2 * time.Second)
	for srv.edge.ctl.StatsSnapshot().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	var h HealthResponse
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !h.Overloaded || h.Reason == "" {
		t.Fatalf("saturated healthz = %d %+v, want 503 overloaded with reason", resp.StatusCode, h)
	}

	srv.edge.ctl.Release(admit.Interactive) // hands the slot to the waiter
	if res := <-waiter; res.Outcome != admit.Admitted {
		t.Fatalf("waiter outcome: %v", res.Outcome)
	}
	srv.edge.ctl.Release(admit.Interactive)

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered healthz = %d, want 200", resp.StatusCode)
	}
}

func TestPromMetricsExposition(t *testing.T) {
	srv, ts, ds := newAdmitServer(t, Config{MaxBodyBytes: 512})
	body := ingestBody(t, ds)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/topk?resource=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// Both methods of /cluster/topk, the owner leg's query fed back as a
	// query leg: one route, so one label and one histogram count the two.
	resp, err = http.Get(ts.URL + "/cluster/topk?resource=0&k=2&maphash=")
	if err != nil {
		t.Fatal(err)
	}
	var leg ClusterLeg
	if err := json.NewDecoder(resp.Body).Decode(&leg); err != nil || len(leg.Query) == 0 {
		t.Fatalf("owner leg: %v, query %q", err, leg.Query)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/cluster/topk", "application/json", bytes.NewReader(leg.Query))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// One 413 so the body-too-large counter is nonzero.
	resp, err = http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(bytes.Repeat([]byte(" "), 600)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics/prom status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	samples, err := promtest.Parse("tagserved_", text)
	if err != nil {
		t.Fatal(err)
	}

	wantAtLeast := map[string]float64{
		`tagserved_requests_total{route="/ingest",class="bulk",outcome="admitted"}`:      3,
		`tagserved_requests_total{route="/topk",class="interactive",outcome="admitted"}`: 1,
		`tagserved_request_seconds_count{route="/ingest",class="bulk"}`:                  3,
		`tagserved_body_too_large_total`:                                                 1,

		`tagserved_requests_total{route="/cluster/topk",class="interactive",outcome="admitted"}`: 2,
		`tagserved_request_seconds_count{route="/cluster/topk",class="interactive"}`:             2,
	}
	for name, want := range wantAtLeast {
		if got, ok := samples[name]; !ok || got < want {
			t.Fatalf("sample %s = %v (present %v), want >= %v\n%s", name, got, ok, want, text)
		}
	}
	if _, ok := samples[`tagserved_queue_depth`]; !ok {
		t.Fatal("missing tagserved_queue_depth gauge")
	}

	// Histogram buckets must be cumulative (monotone in le) and end in a
	// +Inf bucket equal to _count.
	var last float64
	n := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, `tagserved_request_seconds_bucket{route="/ingest"`) {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, _ := strconv.ParseFloat(line[sp+1:], 64)
		if v < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = v
		n++
	}
	if n != admit.HistBuckets+1 {
		t.Fatalf("ingest histogram has %d bucket lines, want %d", n, admit.HistBuckets+1)
	}
	if count := samples[`tagserved_request_seconds_count{route="/ingest",class="bulk"}`]; last != count {
		t.Fatalf("+Inf bucket %v != count %v", last, count)
	}
	_ = srv
}

// TestDrainGateRefusesMidDrain: once Shutdown begins, a request that
// arrives while in-flight work is still draining gets a fast 503 (and
// /healthz says "draining") instead of starting new work.
func TestDrainGateRefusesMidDrain(t *testing.T) {
	srv, _, ds := newAdmitServer(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	addr := l.Addr().String()

	// Pin one request in-flight: send the headers and half the body; the
	// ingest handler blocks reading the rest, so Shutdown cannot finish.
	body := ingestBody(t, ds)
	pinned, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	half := len(body) / 2
	fmt.Fprintf(pinned, "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	pinned.Write(body[:half])

	// A second connection established pre-drain, request not yet sent:
	// this is the client that will arrive mid-drain.
	late, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	fmt.Fprintf(late, "GET /info HTTP/1.1\r\n") // partial: keeps the conn active
	time.Sleep(20 * time.Millisecond)           // let both conns register

	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { shutdownDone <- srv.Shutdown(ctx) }()
	deadline := time.Now().Add(2 * time.Second)
	for !srv.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never raised the drain gate")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The mid-drain arrival: complete the late request, expect 503.
	fmt.Fprintf(late, "Host: t\r\n\r\n")
	late.SetReadDeadline(time.Now().Add(2 * time.Second))
	lateResp, err := http.ReadResponse(bufio.NewReader(late), nil)
	if err != nil {
		t.Fatalf("mid-drain response: %v", err)
	}
	io.Copy(io.Discard, lateResp.Body)
	lateResp.Body.Close()
	if lateResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain request = %d, want 503", lateResp.StatusCode)
	}

	// Unblock the pinned request; the drain completes.
	pinned.Write(body[half:])
	pinned.SetReadDeadline(time.Now().Add(2 * time.Second))
	pinResp, err := http.ReadResponse(bufio.NewReader(pinned), nil)
	if err != nil {
		t.Fatalf("pinned response: %v", err)
	}
	io.Copy(io.Discard, pinResp.Body)
	pinResp.Body.Close()
	if pinResp.StatusCode != http.StatusOK {
		t.Fatalf("pinned in-flight request = %d, want 200 (it was admitted pre-drain)", pinResp.StatusCode)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
}

// fireOpenLoop fires fire() n times on a fixed schedule at rate per
// second, each in its own goroutine and never waiting for an earlier one
// to finish — the arrival rate does not slow down because the server
// does. A late generator catches up at once, so n is exact; it returns
// when every request has been answered.
func fireOpenLoop(n int, rate float64, fire func()) {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire()
		}()
	}
	wg.Wait()
}

// TestOverloadLadder drives an admission-controlled server below and
// past its bulk capacity with an interactive stream alongside, and
// asserts the overload contract: it sheds, with a usable Retry-After,
// and never errors; interactive traffic sees 200 or 429 only; and the
// per-class outcome counters account for every request offered. No
// latency or shed-fraction figure is asserted: those depend on the box.
func TestOverloadLadder(t *testing.T) {
	const (
		bulkRate  = 100.0 // bulk requests/s the bucket admits
		interRate = 100.0
		phase     = 300 * time.Millisecond
	)
	_, ts, ds := newAdmitServer(t, Config{Admission: admit.Config{
		Rate: bulkRate, Burst: 5, MaxInFlight: 32, Queue: 64, QueueWait: 100 * time.Millisecond,
	}})
	body := ingestBody(t, ds)
	tr := &http.Transport{MaxIdleConnsPerHost: 64}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}

	// Requests run on their own goroutines, so a step's tallies are atomic.
	var offeredBulk, offeredInter int
	for _, mult := range []float64{0.5, 2} {
		var shed, badRetryAfter, errs, interOther atomic.Int64
		var subject atomic.Int64
		nBulk := int(bulkRate * mult * phase.Seconds())
		nInter := int(interRate * mult * phase.Seconds())
		offeredBulk += nBulk
		offeredInter += nInter

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			fireOpenLoop(nBulk, bulkRate*mult, func() {
				resp, err := hc.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					errs.Add(1) // a transport failure counts against the server
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					shed.Add(1)
					if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
						badRetryAfter.Add(1)
					}
				case resp.StatusCode != http.StatusOK:
					errs.Add(1)
				}
			})
		}()
		go func() {
			defer wg.Done()
			fireOpenLoop(nInter, interRate*mult, func() {
				r := int(subject.Add(1)) % ds.N()
				resp, err := hc.Get(fmt.Sprintf("%s/topk?resource=%d&k=10", ts.URL, r))
				if err != nil {
					errs.Add(1)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					interOther.Add(1)
				}
			})
		}()
		wg.Wait()

		if n := errs.Load(); n != 0 {
			t.Fatalf("%gx: %d transport errors or bulk answers other than 200/429 — overload must degrade, not error", mult, n)
		}
		if n := interOther.Load(); n != 0 {
			t.Fatalf("%gx: %d interactive answers were neither 200 nor 429", mult, n)
		}
		if n := badRetryAfter.Load(); n != 0 {
			t.Fatalf("%gx: %d shed responses without an integer Retry-After >= 1", mult, n)
		}
		if mult > 1 && shed.Load() == 0 {
			t.Fatalf("%gx offered load shed no bulk — the token bucket is not limiting", mult)
		}
	}

	resp, err := hc.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := promtest.Parse("tagserved_", string(raw))
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[string]int{}
	for series, v := range samples {
		if !strings.HasPrefix(series, "tagserved_requests_total{") {
			continue
		}
		for _, class := range []string{"bulk", "interactive"} {
			if strings.Contains(series, `class="`+class+`"`) {
				byClass[class] += int(v)
			}
		}
	}
	if byClass["bulk"] != offeredBulk || byClass["interactive"] != offeredInter {
		t.Fatalf("admitted+shed+timed_out = %d bulk / %d interactive, offered %d / %d",
			byClass["bulk"], byClass["interactive"], offeredBulk, offeredInter)
	}
}
