package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incentivetag/internal/admit"
	"incentivetag/internal/server"
)

// testBackend is the gateway's view of one stub node, dialled over TCP.
func testBackend(t *testing.T, url string) *backend {
	t.Helper()
	b, err := newBackend(0, Node{Name: "n0", URL: url}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A scatter encodes its body once and hands the bytes to every leg: do
// must put a json.RawMessage on the wire untouched (re-marshalling one
// would compact the whitespace below), and still encode anything else.
func TestBackendDoSendsRawMessageVerbatim(t *testing.T) {
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got = append(got, string(body), r.Header.Get("Content-Type"))
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	b := testBackend(t, ts.URL)

	const raw = `{"k":  3, "maphash": "h"}`
	if err := b.do(context.Background(), http.MethodPost, "/cluster/topk", json.RawMessage(raw), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.do(context.Background(), http.MethodPost, "/allocate", struct {
		K int `json:"k"`
	}{3}, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{raw, "application/json", `{"k":3}`, "application/json"}
	if len(got) != len(want) {
		t.Fatalf("recorded %q", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request part %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// The per-backend latency histogram times a request up to the last byte
// of its answer — transfer included, not just the wait for the headers.
func TestBackendLatencyIncludesBody(t *testing.T) {
	const stall = 60 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"epoch":1,`))
		w.(http.Flusher).Flush()
		time.Sleep(stall)
		w.Write([]byte(`"top":[]}`))
	}))
	defer ts.Close()
	b := testBackend(t, ts.URL)
	var leg server.ClusterLeg
	buf, err := b.leg(context.Background(), http.MethodGet, "/cluster/search", nil, &leg)
	if err != nil || leg.Epoch != 1 {
		t.Fatalf("leg = %+v, %v", leg, err)
	}
	putAnswer(buf)
	if got := b.hist.Quantile(0.5); got < stall.Seconds() {
		t.Fatalf("histogram observed %.3fs for an answer whose body took %.3fs", got, stall.Seconds())
	}
}

// rawNode is a stub node that answers every request with the same bytes,
// hanging up after each answer when hangUp is set, and counts the
// connections it accepts and the requests it reads.
type rawNode struct {
	url             string
	conns, requests atomic.Int64
}

func newRawNode(t *testing.T, answer string, hangUp bool) *rawNode {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	n := &rawNode{url: "http://" + l.Addr().String()}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			n.conns.Add(1)
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, req.Body)
					n.requests.Add(1)
					if _, err := io.WriteString(c, answer); err != nil || hangUp {
						return
					}
				}
			}()
		}
	}()
	return n
}

// idleConns is the depth of a backend's idle stack.
func idleConns(b *backend) int {
	b.idleMu.Lock()
	defer b.idleMu.Unlock()
	return len(b.idle)
}

// A connection is reused only after a complete answer that lets it be:
// one framed by Content-Length or chunks, without Connection: close.
// Answers read to EOF, or that ask to close, cost a connection each.
func TestBackendPoolsOnlyReusableAnswers(t *testing.T) {
	for _, c := range []struct {
		name, answer string
		hangUp       bool
		conns        int64
		idle         int
	}{
		{"content-length", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}", false, 1, 1},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\n{\r\n1\r\n}\r\n0\r\n\r\n", false, 1, 1},
		{"4xx", "HTTP/1.1 409 Conflict\r\nContent-Length: 14\r\n\r\n{\"error\":\"no\"}", false, 1, 1},
		{"connection-close", "HTTP/1.1 200 OK\r\nConnection: keep-alive, close\r\nContent-Length: 2\r\n\r\n{}", true, 3, 0},
		{"read-to-eof", "HTTP/1.1 200 OK\r\n\r\n{}", true, 3, 0},
		{"5xx", "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\n{}", false, 3, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := newRawNode(t, c.answer, c.hangUp)
			b := testBackend(t, n.url)
			for i := 0; i < 3; i++ {
				buf, err := b.fetch(context.Background(), http.MethodGet, "/metrics", nil)
				if se := (*statusError)(nil); errors.As(err, &se) {
					continue
				}
				if err != nil || buf.String() != "{}" {
					t.Fatalf("answer %d: %q, %v", i, buf, err)
				}
				putAnswer(buf)
			}
			if got := n.conns.Load(); got != c.conns || n.requests.Load() != 3 {
				t.Fatalf("3 requests took %d connections (want %d), the node read %d", got, c.conns, n.requests.Load())
			}
			if idleConns(b) != c.idle {
				t.Fatalf("%d idle connections, want %d", idleConns(b), c.idle)
			}
		})
	}
}

// Nothing reads an idle connection, so a node that closed it (a restart,
// its idle timeout) is found out by the check before reuse: the next
// request costs a dial, not an error, and reaches the node once.
func TestBackendRedialsClosedIdleConnection(t *testing.T) {
	var conns, posts atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.Write([]byte(`{"ingested":1}`))
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	b := testBackend(t, ts.URL)
	b.setUp(true)
	for i := 0; i < 3; i++ {
		if i > 0 {
			ts.CloseClientConnections()
			time.Sleep(10 * time.Millisecond) // the FIN crosses loopback
		}
		if err := b.do(context.Background(), http.MethodPost, "/ingest", json.RawMessage(`{"resource":1,"tags":[2]}`), nil); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if conns.Load() != 3 || posts.Load() != 3 || b.errors.Load() != 0 || !b.up.Load() {
		t.Fatalf("3 posts over 3 connections: node saw %d connections, %d posts; %d errors, up=%v",
			conns.Load(), posts.Load(), b.errors.Load(), b.up.Load())
	}
}

// A request whose bytes were written is never sent again: a node that
// reads a POST and hangs up without answering has seen it once, and the
// gateway reports a transport error rather than retrying.
func TestBackendNeverResendsWrittenRequest(t *testing.T) {
	n := newRawNode(t, "", true)
	b := testBackend(t, n.url)
	b.setUp(true)
	if err := b.do(context.Background(), http.MethodPost, "/ingest", json.RawMessage(`{}`), nil); err == nil {
		t.Fatal("an unanswered POST succeeded")
	}
	if n.requests.Load() != 1 || n.conns.Load() != 1 {
		t.Fatalf("node read %d requests on %d connections, want 1 and 1", n.requests.Load(), n.conns.Load())
	}
	if b.up.Load() || b.errors.Load() != 1 {
		t.Fatalf("after a transport error: up=%v, %d errors", b.up.Load(), b.errors.Load())
	}
}

// A malformed or oversized answer is a transport error: the connection
// is dropped, the node marked down, and the failure counted in
// backend_errors_total.
func TestBackendMalformedAnswerIsTransportError(t *testing.T) {
	for _, answer := range []string{
		"HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nBad Header\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\n folded: header\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n{}",
		fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n{}", maxAnswerBytes+1),
	} {
		n := newRawNode(t, answer, false)
		b := testBackend(t, n.url)
		b.setUp(true)
		if _, err := b.fetch(context.Background(), http.MethodGet, "/metrics", nil); err == nil {
			t.Fatalf("%q: accepted", answer)
		}
		if b.up.Load() || b.errors.Load() != 1 || idleConns(b) != 0 {
			t.Fatalf("%q: up=%v, %d errors, %d idle connections", answer, b.up.Load(), b.errors.Load(), idleConns(b))
		}
		if !strings.Contains(promBackend(t, b), `backend_errors_total{node="n0"} 1`) {
			t.Fatalf("%q: not counted in backend_errors_total", answer)
		}
	}
}

// promBackend renders a one-backend gateway's exposition.
func promBackend(t *testing.T, b *backend) string {
	t.Helper()
	g := &Gateway{backends: []*backend{b}, edge: server.NewEdge("taggate_", admit.Config{}, 0)}
	rec := httptest.NewRecorder()
	g.handlePromMetrics(rec, httptest.NewRequest("GET", "/metrics/prom", nil))
	return rec.Body.String()
}

// Cancelling the caller's context mid-answer aborts the leg promptly with
// the context's error and drops the connection; the node, which did
// nothing wrong, stays up.
func TestBackendCancelMidAnswer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"epoch":1,`))
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer ts.Close()
	b := testBackend(t, ts.URL)
	b.setUp(true)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := b.fetch(ctx, http.MethodGet, "/cluster/search", nil)
	if !errors.Is(err, context.Canceled) || time.Since(start) > 5*time.Second {
		t.Fatalf("cancelled leg returned %v after %v", err, time.Since(start))
	}
	if idleConns(b) != 0 || !b.up.Load() || b.errors.Load() != 0 {
		t.Fatalf("after cancel: %d idle connections, up=%v, %d errors", idleConns(b), b.up.Load(), b.errors.Load())
	}
}

// A node's 429 reaches the caller with its message and Retry-After, and
// its connection stays warm.
func TestBackendRelaysRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		server.WriteError(w, http.StatusTooManyRequests, "shedding")
	}))
	defer ts.Close()
	b := testBackend(t, ts.URL)
	_, err := b.fetch(context.Background(), http.MethodPost, "/ingest", json.RawMessage(`{}`))
	var se *statusError
	if !errors.As(err, &se) || se.status != http.StatusTooManyRequests || se.msg != "shedding" || retryAfterOr(se, 1) != 7 {
		t.Fatalf("429 came back as %#v", err)
	}
	if idleConns(b) != 1 {
		t.Fatalf("%d idle connections after a complete 429", idleConns(b))
	}
}

// However many legs run at once, at most backendIdleConns connections
// stay open once they finish.
func TestBackendIdleStackBounded(t *testing.T) {
	const legs = backendIdleConns + 8
	var arrived atomic.Int64
	all := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if arrived.Add(1) == legs {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(5 * time.Second):
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	b := testBackend(t, ts.URL)
	var wg sync.WaitGroup
	for i := 0; i < legs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.do(context.Background(), http.MethodGet, "/metrics", nil, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if idleConns(b) != backendIdleConns {
		t.Fatalf("%d concurrent legs left %d idle connections, want %d", legs, idleConns(b), backendIdleConns)
	}
}

// Whenever the lean answer parser accepts a byte stream, net/http's
// parser does too and agrees on the status, the framing, whether the
// connection stays open, Retry-After, the body bytes and where the next
// answer would start.
func FuzzLegResponse(f *testing.F) {
	for _, s := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\nHTTP/1.1",
		"HTTP/1.1 200 OK\r\nConnection: keep-alive, Close\r\n\r\nto the end",
		"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 3\r\nretry-after: 4\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\nrest",
		"HTTP/1.1 200\nContent-Length: 1\n\nxy",
		"HTTP/1.1 503 \r\nConnection: close\r\nContent-Length: 3\r\n\r\nabc",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lean := bufio.NewReader(bytes.NewReader(data))
		var body bytes.Buffer
		h, err := readAnswer(lean, &body)
		if err != nil {
			return
		}
		std := bufio.NewReader(bytes.NewReader(data))
		resp, err := http.ReadResponse(std, nil)
		if err != nil {
			t.Fatalf("%q: lean parser accepted %+v, net/http refused: %v", data, h, err)
		}
		want, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%q: lean parser read %q, net/http failed: %v", data, body.Bytes(), err)
		}
		chunked := len(resp.TransferEncoding) > 0
		if resp.StatusCode != h.status || chunked != h.chunked || !chunked && resp.ContentLength != h.length ||
			resp.Close != h.close || resp.Header.Get("Retry-After") != h.retryAfter {
			t.Fatalf("%q: lean %+v, net/http status %d encoding %v length %d close %v retry-after %q", data, h,
				resp.StatusCode, resp.TransferEncoding, resp.ContentLength, resp.Close, resp.Header.Get("Retry-After"))
		}
		if !bytes.Equal(body.Bytes(), want) {
			t.Fatalf("%q: lean body %q, net/http %q", data, body.Bytes(), want)
		}
		restLean, _ := io.ReadAll(lean)
		restStd, _ := io.ReadAll(std)
		if !bytes.Equal(restLean, restStd) {
			t.Fatalf("%q: lean leaves %q, net/http %q", data, restLean, restStd)
		}
	})
}
