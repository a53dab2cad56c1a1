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
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
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

// backendIdleConns caps the idle connections kept per backend. Legs to
// one node are bounded by the gateway's in-flight queries, so a stack
// well above any admitted concurrency keeps every leg on a warm
// connection; past it, a connection that goes idle is closed. legTimeout
// bounds one request, from taking a connection to its answer's last byte.
const (
	backendIdleConns = 64
	legTimeout       = 30 * time.Second
)

// legConn is one keep-alive HTTP/1.1 connection to a backend, with the
// reader its answers are parsed from and the buffer requests are built in.
type legConn struct {
	net.Conn
	br  *bufio.Reader
	req []byte
}

// backend is one tagserved node as seen from the gateway: its identity,
// the idle connections its legs reuse, a liveness flag maintained by the
// prober (and reactively cleared by in-flight transport failures), and
// per-backend telemetry for /metrics/prom.
type backend struct {
	idx  int
	name string
	url  string
	addr string // host:port, dialled and sent as Host
	dial func(ctx context.Context, addr string) (net.Conn, error)

	idleMu sync.Mutex
	idle   []*legConn // a stack: the most recently used is reused first

	up           atomic.Bool
	consecFails  atomic.Uint64
	transitions  atomic.Uint64 // up/down flips, a flapping-node tell
	requests     atomic.Uint64 // proxied requests attempted
	errors       atomic.Uint64 // transport-level proxy failures
	hist         *admit.Histogram
	lastProbeErr atomic.Pointer[string]
}

// newBackend reaches node n, whose URL must be http://host:port, through
// dial (nil dials TCP).
func newBackend(idx int, n Node, dial func(ctx context.Context, addr string) (net.Conn, error)) (*backend, error) {
	u, err := url.Parse(n.URL)
	if err != nil || u.Scheme != "http" || u.Port() == "" || strings.Trim(u.Path, "/") != "" || u.RawQuery != "" {
		return nil, fmt.Errorf("node %q: url %q is not http://host:port", n.Name, n.URL)
	}
	if dial == nil {
		d := &net.Dialer{Timeout: legTimeout}
		dial = func(ctx context.Context, addr string) (net.Conn, error) { return d.DialContext(ctx, "tcp", addr) }
	}
	return &backend{idx: idx, name: n.Name, url: n.URL, addr: u.Host, dial: dial, hist: admit.NewHistogram()}, nil
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

// maxPooledAnswer is the largest buffer answerPool keeps, and the largest
// request buffer an idle connection keeps: pooling what one worst-case
// answer grew would pin that much per idle buffer.
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

// conn hands out a connection for one request, its deadline set: the
// most recently idled one that is still open, else a fresh dial.
func (b *backend) conn(ctx context.Context) (*legConn, error) {
	deadline := time.Now().Add(legTimeout)
	for {
		var c *legConn
		b.idleMu.Lock()
		if n := len(b.idle); n > 0 {
			c, b.idle = b.idle[n-1], b.idle[:n-1]
		}
		b.idleMu.Unlock()
		if c == nil {
			break
		}
		// Nothing reads an idle connection, so a node that closed it (a
		// restart, its idle timeout) shows only here — and a request once
		// written is never sent again.
		if c.SetDeadline(deadline) == nil && c.br.Buffered() == 0 && peerOpen(c.Conn) {
			return c, nil
		}
		c.Close()
	}
	nc, err := b.dial(ctx, b.addr)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(deadline)
	return &legConn{Conn: nc, br: bufio.NewReader(nc)}, nil
}

// putConn pushes a connection back on the idle stack, or closes it when
// the stack is full.
func (b *backend) putConn(c *legConn) {
	if cap(c.req) > maxPooledAnswer {
		c.req = nil
	}
	b.idleMu.Lock()
	if len(b.idle) < backendIdleConns {
		b.idle, c = append(b.idle, c), nil
	}
	b.idleMu.Unlock()
	if c != nil {
		c.Close()
	}
}

// roundTrip sends one request and reads its whole answer into dst, all on
// the calling goroutine: the request goes out in one Write, and of the
// answer's head only the status, framing, Connection and Retry-After are
// read. Cancelling ctx aborts the I/O. On error (ctx's own once ctx has
// ended) the connection is closed; it is reused only after a complete 2xx
// or 4xx answer that did not ask to close.
func (b *backend) roundTrip(ctx context.Context, method, path string, body []byte, dst *bytes.Buffer) (h answerHead, err error) {
	c, err := b.conn(ctx)
	if err == nil {
		stop := func() bool { return true }
		if ctx.Done() != nil {
			stop = context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) })
		}
		c.req = appendRequest(c.req[:0], method, b.addr, path, body)
		if _, err = c.Write(c.req); err == nil {
			h, err = readAnswer(c.br, dst)
		}
		if stop() && err == nil && !h.close && (h.status/100 == 2 || h.status/100 == 4) {
			b.putConn(c)
			return h, nil
		}
		c.Close()
	}
	if err != nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	return h, err
}

// appendRequest appends an HTTP/1.1 request to dst, with a JSON body
// unless body is nil.
func appendRequest(dst []byte, method, host, target string, body []byte) []byte {
	dst = append(append(append(dst, method...), ' '), target...)
	dst = append(append(dst, " HTTP/1.1\r\nHost: "...), host...)
	if body != nil {
		dst = append(dst, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
	}
	return append(append(dst, "\r\n\r\n"...), body...)
}

// answerHead is what a leg reads of an answer's head.
type answerHead struct {
	status     int
	length     int64 // Content-Length; -1 when chunked or read to EOF
	chunked    bool
	close      bool // Connection: close, or a body that ends at EOF
	retryAfter string
}

var (
	errMalformed      = errors.New("malformed answer head")
	errFraming        = errors.New("unsupported answer framing")
	errAnswerTooLarge = fmt.Errorf("answer exceeds %d bytes", maxAnswerBytes)
)

// readAnswer reads one answer from br and its body into dst, bounded by
// maxAnswerBytes. It accepts a subset of what http.ReadResponse does: an
// HTTP/1.1 status line with a status that has a body, header lines
// without folding, and a body framed by Content-Length, by chunks with no
// trailer, or by EOF.
func readAnswer(br *bufio.Reader, dst *bytes.Buffer) (h answerHead, err error) {
	line, err := readLine(br)
	if err != nil {
		return h, err
	}
	if len(line) < 12 || string(line[:9]) != "HTTP/1.1 " || len(line) > 12 && line[12] != ' ' {
		return h, errMalformed
	}
	if h.status, err = strconv.Atoi(string(line[9:12])); err != nil || h.status < 200 || h.status == 204 || h.status == 304 {
		return h, errMalformed
	}
	h.length = -1
	retrySeen := false
	for {
		if line, err = readLine(br); err != nil || len(line) == 0 {
			break
		}
		key, value, ok := headerField(line)
		switch {
		case !ok:
			return h, errMalformed
		case asciiEqualFold(key, "Content-Length"):
			n, err := strconv.ParseUint(string(value), 10, 63)
			if err != nil || h.length >= 0 {
				return h, errFraming
			}
			h.length = int64(n)
		case asciiEqualFold(key, "Transfer-Encoding"):
			if h.chunked || !asciiEqualFold(value, "chunked") {
				return h, errFraming
			}
			h.chunked = true
		case asciiEqualFold(key, "Connection"):
			h.close = h.close || hasToken(value, "close")
		case asciiEqualFold(key, "Retry-After") && !retrySeen:
			h.retryAfter, retrySeen = string(value), true
		}
	}
	if err != nil {
		return h, err
	}
	var body io.Reader = br
	switch {
	case h.chunked && h.length >= 0:
		return h, errFraming
	case h.chunked:
		body = httputil.NewChunkedReader(br)
	case h.length > maxAnswerBytes:
		return h, errAnswerTooLarge
	case h.length >= 0:
		body = io.LimitReader(br, h.length)
	default:
		h.close = true // the body ends where the connection does
	}
	n, err := dst.ReadFrom(io.LimitReader(body, maxAnswerBytes+1))
	switch {
	case err != nil:
		return h, err
	case n > maxAnswerBytes:
		return h, errAnswerTooLarge
	case n < h.length:
		return h, io.ErrUnexpectedEOF
	}
	if h.chunked { // the last chunk, then an empty trailer
		if crlf, err := br.Peek(2); err != nil || string(crlf) != "\r\n" {
			return h, errFraming
		}
		br.Discard(2)
	}
	return h, nil
}

// readLine reads one line of an answer's head, its CRLF or LF cut.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	return bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r")), err
}

// headerField splits a header line into its name, which must be a token,
// and its value, trimmed of blanks, which must hold no control bytes.
func headerField(line []byte) (key, value []byte, ok bool) {
	i := bytes.IndexByte(line, ':')
	if i <= 0 {
		return nil, nil, false
	}
	for _, c := range line[:i] {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return nil, nil, false
		}
	}
	for _, c := range line[i+1:] {
		if c < ' ' && c != '\t' || c == 0x7f {
			return nil, nil, false
		}
	}
	return line[:i], bytes.Trim(line[i+1:], " \t"), true
}

// hasToken reports whether a comma-separated header value lists token.
func hasToken(value []byte, token string) bool {
	for len(value) > 0 {
		item, rest, _ := bytes.Cut(value, []byte{','})
		if asciiEqualFold(bytes.Trim(item, " \t"), token) {
			return true
		}
		value = rest
	}
	return false
}

// asciiEqualFold compares b with s folding ASCII letters only, as header
// names and tokens are compared.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if b[i] != s[i] && (b[i]|0x20 != s[i]|0x20 || b[i]|0x20 < 'a' || b[i]|0x20 > 'z') {
			return false
		}
	}
	return true
}

// fetch proxies one request to this backend: counts it, times it up to
// the last byte of the answer, and returns a 2xx answer's body in a
// pooled buffer the caller hands back with putAnswer. Failures become
// either a transport error (node marked down reactively unless ctx ended
// — the prober re-admits it) or a *statusError carrying the node's own
// status code, message and Retry-After. in is encoded as JSON, except a json.RawMessage, which is
// sent as is: a scatter hands the owner's bytes to every other leg.
func (b *backend) fetch(ctx context.Context, method, path string, in any) (*bytes.Buffer, error) {
	b.requests.Add(1)
	var body []byte
	if in != nil {
		raw, encoded := in.(json.RawMessage)
		if !encoded {
			var err error
			if raw, err = json.Marshal(in); err != nil {
				return nil, fmt.Errorf("encoding %s body: %w", path, err)
			}
		}
		body = raw
	}
	buf := answerPool.Get().(*bytes.Buffer)
	buf.Reset()
	start := time.Now()
	h, err := b.roundTrip(ctx, method, path, body, buf)
	if err != nil {
		putAnswer(buf)
		// Transport failure: connection refused, reset, timeout, a
		// malformed or oversized answer. The node is gone or wedged —
		// mark it down now so the rest of this scatter (and every request
		// until the prober readmits it) skips it. A caller gone says
		// nothing about the node.
		if ctx.Err() == nil {
			b.errors.Add(1)
			b.setUp(false)
		}
		return nil, fmt.Errorf("%s %s%s: %w", method, b.name, path, err)
	}
	b.hist.Observe(time.Since(start))
	if h.status/100 != 2 {
		var e server.ErrorResponse
		json.Unmarshal(buf.Bytes(), &e)
		putAnswer(buf)
		if h.status/100 == 5 {
			b.errors.Add(1)
		}
		return nil, &statusError{status: h.status, msg: e.Error, retryAfter: h.retryAfter}
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
	buf := answerPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer putAnswer(buf)
	h, err := b.roundTrip(ctx, http.MethodGet, "/healthz", nil, buf)
	if err != nil {
		msg := err.Error()
		b.lastProbeErr.Store(&msg)
		return false
	}
	var hr server.HealthResponse
	json.Unmarshal(buf.Bytes(), &hr)
	ok := h.status == http.StatusOK && hr.Ready
	if !ok {
		msg := fmt.Sprintf("healthz status %d ready=%v reason=%q", h.status, hr.Ready, hr.Reason)
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
