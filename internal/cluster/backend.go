package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"incentivetag/internal/admit"
	"incentivetag/internal/server"
)

// Health-probe cadence: ProbeInterval between probes of an up node; a
// down node is re-probed on the same base interval backed off by
// doubling per consecutive failure, capped at probeBackoffMax× — a dead
// node costs a connection attempt every few intervals, while a
// restarted one is readmitted within one-to-two base intervals.
const (
	DefaultProbeInterval = 1 * time.Second
	probeTimeout         = 2 * time.Second
	probeBackoffMax      = 8
)

// backendIdleConns is the keep-alive pool the gateway's own transport
// holds per backend. net/http's default of 2 is sized for a browser: a
// gateway under more than two concurrent queries would dial and discard
// a connection per extra scatter leg. Concurrent legs to one node are
// bounded by the gateway's in-flight queries, so a fixed pool well above
// any admitted concurrency keeps every leg on a warm connection.
const backendIdleConns = 64

// newTransport builds the backend transport a gateway uses when the
// configuration supplies none: the standard dial/TLS/timeout settings
// with the per-backend idle pool raised and no cross-backend cap below it.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = backendIdleConns
	t.MaxIdleConns = 0
	return t
}

// backend is one tagserved node as seen from the gateway: its identity,
// a liveness flag maintained by the prober (and reactively cleared by
// in-flight transport failures), and per-backend telemetry for
// /metrics/prom.
type backend struct {
	idx    int
	name   string
	url    string
	client *http.Client

	up           atomic.Bool
	consecFails  atomic.Uint64
	transitions  atomic.Uint64 // up/down flips, a flapping-node tell
	requests     atomic.Uint64 // proxied requests attempted
	errors       atomic.Uint64 // transport-level proxy failures
	hist         *admit.Histogram
	lastProbeErr atomic.Pointer[string]
}

func newBackend(idx int, n Node, client *http.Client) *backend {
	return &backend{idx: idx, name: n.Name, url: n.URL, client: client, hist: admit.NewHistogram()}
}

// setUp records a liveness transition (idempotent per state).
func (b *backend) setUp(up bool) {
	if b.up.Swap(up) != up {
		b.transitions.Add(1)
	}
}

// errBackendDown marks scatter legs skipped because the prober has the
// node down; callers degrade to partial results rather than failing.
var errBackendDown = fmt.Errorf("backend down")

// statusError is a non-2xx proxy answer with the node's decoded error
// message, so the gateway can relay status semantics (429, 409, 421...)
// instead of flattening everything to 502.
type statusError struct {
	status     int
	msg        string
	retryAfter string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.status, e.msg)
}

// maxAnswerBytes bounds a backend's answer. The largest legitimate one is
// an owner's /cluster/topk leg, whose query member the other nodes would
// refuse beyond their own request cap; well past that, a runaway answer
// is a node fault, not something to buffer.
const maxAnswerBytes = 4 * server.DefaultMaxBody

// maxPooledAnswer is the largest buffer answerPool keeps: pooling what
// one worst-case answer grew would pin that much per idle buffer.
const maxPooledAnswer = 1 << 20

// answerPool recycles the buffers backend answers are read into.
var answerPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putAnswer returns a buffer fetch handed out (nil is a no-op), once
// nothing references its bytes.
func putAnswer(buf *bytes.Buffer) {
	if buf != nil && buf.Cap() <= maxPooledAnswer {
		answerPool.Put(buf)
	}
}

// fetch proxies one request to this backend: counts it, times it up to
// the last byte of the answer, and returns a 2xx answer's body in a
// pooled buffer the caller hands back with putAnswer. Failures become
// either a transport error (node marked down reactively — the prober
// re-admits it) or a *statusError carrying the node's own status code.
// in is encoded as JSON, except a json.RawMessage, which is sent as is:
// a scatter hands the owner's bytes to every other leg.
func (b *backend) fetch(ctx context.Context, method, path string, in any) (*bytes.Buffer, error) {
	b.requests.Add(1)
	var body io.Reader
	if in != nil {
		raw, encoded := in.(json.RawMessage)
		if !encoded {
			var err error
			if raw, err = json.Marshal(in); err != nil {
				return nil, fmt.Errorf("encoding %s body: %w", path, err)
			}
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		// Transport failure: connection refused, reset, timeout. The node
		// is gone or wedged — mark it down now so the rest of this scatter
		// (and every request until the prober readmits it) skips it.
		b.errors.Add(1)
		b.setUp(false)
		return nil, fmt.Errorf("%s %s%s: %w", method, b.name, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e server.ErrorResponse
		json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e)
		b.hist.Observe(time.Since(start))
		if resp.StatusCode/100 == 5 {
			b.errors.Add(1)
		}
		return nil, &statusError{status: resp.StatusCode, msg: e.Error, retryAfter: resp.Header.Get("Retry-After")}
	}
	buf := answerPool.Get().(*bytes.Buffer)
	buf.Reset()
	n, err := buf.ReadFrom(io.LimitReader(resp.Body, maxAnswerBytes+1))
	b.hist.Observe(time.Since(start))
	if err == nil && n > maxAnswerBytes {
		err = fmt.Errorf("answer exceeds %d bytes", maxAnswerBytes)
	}
	if err != nil {
		b.errors.Add(1)
		putAnswer(buf)
		return nil, fmt.Errorf("reading %s %s%s: %w", method, b.name, path, err)
	}
	return buf, nil
}

// do is fetch with the answer decoded into out (unless nil).
func (b *backend) do(ctx context.Context, method, path string, in, out any) error {
	buf, err := b.fetch(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer putAnswer(buf)
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		b.errors.Add(1)
		return fmt.Errorf("decoding %s %s%s: %w", method, b.name, path, err)
	}
	return nil
}

// leg is fetch for a scatter leg, decoded by server.DecodeClusterLeg.
// out.Query may alias the returned buffer: the caller hands it back with
// putAnswer once nothing reads the query any more (nil on error).
func (b *backend) leg(ctx context.Context, method, path string, in any, out *server.ClusterLeg) (*bytes.Buffer, error) {
	buf, err := b.fetch(ctx, method, path, in)
	if err != nil {
		return nil, err
	}
	if err := server.DecodeClusterLeg(buf.Bytes(), out); err != nil {
		b.errors.Add(1)
		putAnswer(buf)
		return nil, fmt.Errorf("decoding %s %s%s: %w", method, b.name, path, err)
	}
	return buf, nil
}

// probe asks the node's /healthz once. A node is up when it answers 200
// with ready=true; a 503 (recovering or overloaded-and-shedding) keeps
// it out of the scatter set until it recovers.
func (b *backend) probe(ctx context.Context) bool {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := b.client.Do(req)
	if err != nil {
		msg := err.Error()
		b.lastProbeErr.Store(&msg)
		return false
	}
	defer resp.Body.Close()
	var h server.HealthResponse
	json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h)
	ok := resp.StatusCode == http.StatusOK && h.Ready
	if !ok {
		msg := fmt.Sprintf("healthz status %d ready=%v reason=%q", resp.StatusCode, h.Ready, h.Reason)
		b.lastProbeErr.Store(&msg)
	}
	return ok
}

// prober drives all backends' liveness: each gets its own goroutine
// probing at interval, doubling the wait per consecutive failure up to
// probeBackoffMax×. Stop via the context.
func (g *Gateway) prober(ctx context.Context, wg *sync.WaitGroup) {
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			t := time.NewTimer(0) // first probe immediately
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				if b.probe(ctx) {
					b.consecFails.Store(0)
					b.setUp(true)
					t.Reset(g.probeInterval)
					continue
				}
				fails := b.consecFails.Add(1)
				b.setUp(false)
				backoff := uint64(1) << min(fails, 10)
				if backoff > probeBackoffMax {
					backoff = probeBackoffMax
				}
				t.Reset(time.Duration(backoff) * g.probeInterval)
			}
		}(b)
	}
}

// WaitReady blocks until every backend has been probed up, or ctx ends.
// Boot/test convenience: scatter-gather works with any subset up (it
// just flags partial), but e2e drivers want a fully-ready cluster.
func (g *Gateway) WaitReady(ctx context.Context) error {
	for {
		all := true
		for _, b := range g.backends {
			if !b.up.Load() {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: waiting for backends: %w", ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// retryAfterOr extracts a statusError's Retry-After seconds, defaulting
// when the node did not send one.
func retryAfterOr(e *statusError, def int) int {
	if s, err := strconv.Atoi(e.retryAfter); err == nil && s >= 1 {
		return s
	}
	return def
}
