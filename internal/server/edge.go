// The request edge both binaries share: tagserved (Server) and taggate
// (internal/cluster's Gateway) pass every serving route through one
// admission gate, cap and decode request bodies one way, answer in one
// JSON shape, serve through one net/http configuration and render one
// Prometheus exposition — so a dashboard reads tagserved_* and
// taggate_* with one query set.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"incentivetag/internal/admit"
)

// DefaultMaxBody bounds request bodies when the configured cap is 0; a
// batch of a few thousand posts fits comfortably.
const DefaultMaxBody = 8 << 20

// Default connection timeouts: generous enough for a slow crowd-worker
// client on a bad link, tight enough that an abandoned connection frees
// its goroutine within the minute.
const (
	DefaultReadTimeout  = 30 * time.Second
	DefaultWriteTimeout = 30 * time.Second
	DefaultIdleTimeout  = 2 * time.Minute
)

// NewHTTPServer is the net/http server both binaries serve h through,
// with every slow-client bound applied: a slow-reading (or slow-sending)
// client can never pin a handler goroutine forever.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       DefaultReadTimeout,
		WriteTimeout:      DefaultWriteTimeout,
		IdleTimeout:       DefaultIdleTimeout,
	}
}

// Edge is one binary's request edge: the admission Controller every
// serving route passes through, each route's outcome counters and
// latency histogram, the request-body cap with its 413 counter, and the
// Prometheus exposition of all of them.
type Edge struct {
	prefix       string // series name prefix: "tagserved_" or "taggate_"
	ctl          *admit.Controller
	routes       []*route
	maxBody      int64
	bodyTooLarge atomic.Uint64
}

// NewEdge builds an edge whose series are named prefix…, admitting by
// adm and capping bodies at maxBody bytes (0 selects DefaultMaxBody).
func NewEdge(prefix string, adm admit.Config, maxBody int64) *Edge {
	if maxBody == 0 {
		maxBody = DefaultMaxBody
	}
	return &Edge{prefix: prefix, ctl: admit.NewController(adm), maxBody: maxBody}
}

// route is one serving route's instrumentation: admission outcome
// counters and a latency histogram of admitted requests, measured from
// arrival (queue wait included — that is the latency the client felt).
type route struct {
	name     string
	class    admit.Class
	hist     *admit.Histogram
	outcomes [3]atomic.Uint64 // indexed by admit.Outcome
}

// Route wraps a serving handler with the admission gate: bulk is
// token-bucketed and shed first, interactive gets a bounded queue wait,
// rejected requests get 429 + Retry-After derived from the bucket's
// refill, and admitted requests are timed into the route's histogram.
// Register each route name once: a second registration would repeat
// every series of it in the exposition.
func (e *Edge) Route(name string, class admit.Class, h http.HandlerFunc) http.HandlerFunc {
	ri := &route{name: name, class: class, hist: admit.NewHistogram()}
	e.routes = append(e.routes, ri)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		res := e.ctl.Admit(r.Context(), class)
		if res.Outcome != admit.Admitted {
			ri.outcomes[res.Outcome].Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(res.RetryAfter)))
			WriteError(w, http.StatusTooManyRequests,
				"%s overloaded (%s %s): retry later", name, class, res.Outcome)
			return
		}
		ri.outcomes[admit.Admitted].Add(1)
		defer e.ctl.Release(class)
		// The client may have hung up while we queued; skip the work, the
		// response has nobody to read it.
		if r.Context().Err() != nil {
			return
		}
		h(w, r)
		ri.hist.Observe(time.Since(start))
	}
}

// retryAfterSeconds renders an admission backoff as a Retry-After
// value: whole seconds, rounded up, at least 1 (0 would mean "now",
// which is exactly wrong for a shed request).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers status with an ErrorResponse.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// ReadJSON decodes the size-capped request body strictly (unknown fields
// rejected — they are almost always a client schema bug worth failing
// loudly on); ok=false means the 400 or 413 was already written.
func (e *Edge) ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return e.decodeJSON(w, http.MaxBytesReader(w, r.Body, e.maxBody), v)
}

// decodeJSON is ReadJSON over any reader of the (size-capped) body.
func (e *Edge) decodeJSON(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		e.bodyError(w, err)
		return false
	}
	return true
}

// bodyError answers a request whose body could not be read or decoded.
// Bodies over the configured cap get a distinct 413 so clients can tell
// "split your batch" apart from "fix your schema".
func (e *Edge) bodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		e.bodyTooLarge.Add(1)
		WriteError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes; split the batch", mbe.Limit)
		return
	}
	WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
}

// ParseK reads the optional k parameter (default 10, bounded [1,1000]);
// ok=false means the error response was already written.
func ParseK(w http.ResponseWriter, q url.Values) (int, bool) {
	k := 10
	if ks := q.Get("k"); ks != "" {
		var err error
		if k, err = strconv.Atoi(ks); err != nil || k <= 0 || k > 1000 {
			WriteError(w, http.StatusBadRequest, "k must be in [1,1000]")
			return 0, false
		}
	}
	return k, true
}

// ParseResource reads the required resource parameter; ok=false means
// the error response was already written.
func ParseResource(w http.ResponseWriter, q url.Values) (int, bool) {
	rs := q.Get("resource")
	if rs == "" {
		WriteError(w, http.StatusBadRequest, "missing resource parameter")
		return 0, false
	}
	resource, err := strconv.Atoi(rs)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "resource %q is not an integer", rs)
	}
	return resource, err == nil
}

// Prom is a Prometheus text exposition (version 0.0.4) being written:
// every series is named with the edge's prefix, and each family's HELP
// and TYPE lines precede its samples.
type Prom struct {
	b      strings.Builder
	prefix string
}

// Family opens a metric family: its HELP and TYPE lines.
func (p *Prom) Family(name, typ, help string) {
	fmt.Fprintf(&p.b, "# HELP %s%s %s\n# TYPE %s%s %s\n", p.prefix, name, help, p.prefix, name, typ)
}

// Sample writes one sample of name; labels are name, value pairs. v is
// rendered with %v — an integer in decimal, a float64 in the shortest
// form that parses back to it.
func (p *Prom) Sample(name string, v any, labels ...string) {
	p.b.WriteString(p.prefix + name)
	for i := 0; i < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(&p.b, "%s%s=%q", sep, labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		p.b.WriteByte('}')
	}
	fmt.Fprintf(&p.b, " %v\n", v)
}

// scalar writes a family of one unlabelled sample.
func (p *Prom) scalar(name, typ, help string, v any) {
	p.Family(name, typ, help)
	p.Sample(name, v)
}

// Quantiles writes h's upper-bound p50/p90/p99 as samples of name, each
// labelled q besides labels: the SLO readouts the overload suite and
// dashboards key on, without running histogram_quantile.
func (p *Prom) Quantiles(name string, h *admit.Histogram, labels ...string) {
	for _, q := range []float64{0.5, 0.9, 0.99} {
		withQ := append(labels[:len(labels):len(labels)], "q", strconv.FormatFloat(q, 'g', -1, 64)) // never the caller's array
		p.Sample(name, h.Quantile(q), withQ...)
	}
}

// ServeProm answers GET /metrics/prom: every route's admission outcomes,
// latency histogram and quantile gauges, the live admission gauges and
// the 413 counter, then whatever series extra appends — what one binary
// alone has.
func (e *Edge) ServeProm(w http.ResponseWriter, extra func(*Prom)) {
	p := &Prom{prefix: e.prefix}
	p.Family("requests_total", "counter", "Requests by route, admission class and outcome.")
	for _, ri := range e.routes {
		for o := admit.Admitted; o <= admit.TimedOut; o++ {
			p.Sample("requests_total", ri.outcomes[o].Load(),
				"route", ri.name, "class", ri.class.String(), "outcome", o.String())
		}
	}

	// Cumulative "le" buckets plus _sum and _count.
	p.Family("request_seconds", "histogram", "Latency of admitted requests, queue wait included.")
	var buf [admit.HistBuckets + 1]uint64
	for _, ri := range e.routes {
		class := ri.class.String()
		total := ri.hist.Cumulative(&buf)
		for i := 0; i < admit.HistBuckets; i++ {
			le := strconv.FormatFloat(admit.BucketBound(i), 'g', -1, 64)
			p.Sample("request_seconds_bucket", buf[i], "route", ri.name, "class", class, "le", le)
		}
		p.Sample("request_seconds_bucket", total, "route", ri.name, "class", class, "le", "+Inf")
		p.Sample("request_seconds_sum", ri.hist.Sum(), "route", ri.name, "class", class)
		p.Sample("request_seconds_count", total, "route", ri.name, "class", class)
	}
	p.Family("request_quantile_seconds", "gauge", "Upper-bound latency quantiles per route.")
	for _, ri := range e.routes {
		p.Quantiles("request_quantile_seconds", ri.hist, "route", ri.name, "class", ri.class.String())
	}

	st := e.ctl.StatsSnapshot()
	p.Family("inflight", "gauge", "Admitted requests currently in flight.")
	p.Sample("inflight", st.Interactive.InFlight, "class", "interactive")
	p.Sample("inflight", st.Bulk.InFlight, "class", "bulk")
	p.scalar("queue_depth", "gauge", "Interactive requests waiting for a slot.", st.QueueDepth)
	p.scalar("queue_limit", "gauge", "Interactive wait-queue capacity.", st.QueueCap)
	p.scalar("inflight_limit", "gauge", "Concurrency limit (0 = unlimited).", st.MaxInFlight)
	p.scalar("body_too_large_total", "counter", "Requests refused with 413.", e.bodyTooLarge.Load())
	extra(p)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, p.b.String())
}
