package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"incentivetag/internal/admit"
)

// routeInst is one serving route's instrumentation: admission outcome
// counters and a latency histogram of admitted requests, measured from
// arrival (queue wait included — that is the latency the client felt).
type routeInst struct {
	route    string
	class    admit.Class
	hist     *admit.Histogram
	outcomes [3]atomic.Uint64 // indexed by admit.Outcome
}

// observe records one finished admitted request.
func (ri *routeInst) observe(d time.Duration) { ri.hist.Observe(d) }

// quantiles for the per-route gauge series. p50/p90/p99 are the SLO
// readouts the overload suite and dashboards key on.
var promQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.9", 0.90},
	{"0.99", 0.99},
}

// promFloat renders a float the way Prometheus text exposition expects.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// handlePromMetrics is GET /metrics/prom: a hand-rolled Prometheus text
// exposition (version 0.0.4) of the admission and latency state. The
// JSON GET /metrics endpoint is unchanged; this one exists so a stock
// Prometheus scrape — or a grep in CI — can watch the server shed load.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	// Per-route admission outcomes.
	b.WriteString("# HELP tagserved_requests_total Requests by route, admission class and outcome.\n")
	b.WriteString("# TYPE tagserved_requests_total counter\n")
	for _, ri := range s.insts {
		for o := admit.Admitted; o <= admit.TimedOut; o++ {
			fmt.Fprintf(&b, "tagserved_requests_total{route=%q,class=%q,outcome=%q} %d\n",
				ri.route, ri.class.String(), o.String(), ri.outcomes[o].Load())
		}
	}

	// Per-route latency histograms (admitted requests, queue wait
	// included), cumulative "le" buckets plus _sum and _count.
	b.WriteString("# HELP tagserved_request_seconds Latency of admitted requests, queue wait included.\n")
	b.WriteString("# TYPE tagserved_request_seconds histogram\n")
	var buf [admit.HistBuckets + 1]uint64
	for _, ri := range s.insts {
		total := ri.hist.Cumulative(&buf)
		for i := 0; i < admit.HistBuckets; i++ {
			fmt.Fprintf(&b, "tagserved_request_seconds_bucket{route=%q,class=%q,le=%q} %d\n",
				ri.route, ri.class.String(), promFloat(admit.BucketBound(i)), buf[i])
		}
		fmt.Fprintf(&b, "tagserved_request_seconds_bucket{route=%q,class=%q,le=\"+Inf\"} %d\n",
			ri.route, ri.class.String(), total)
		fmt.Fprintf(&b, "tagserved_request_seconds_sum{route=%q,class=%q} %s\n",
			ri.route, ri.class.String(), promFloat(ri.hist.Sum()))
		fmt.Fprintf(&b, "tagserved_request_seconds_count{route=%q,class=%q} %d\n",
			ri.route, ri.class.String(), total)
	}

	// Quantile gauges: upper-bound estimates from the log buckets, so a
	// dashboard gets p50/p90/p99 without running histogram_quantile.
	b.WriteString("# HELP tagserved_request_quantile_seconds Upper-bound latency quantiles per route.\n")
	b.WriteString("# TYPE tagserved_request_quantile_seconds gauge\n")
	for _, ri := range s.insts {
		for _, pq := range promQuantiles {
			fmt.Fprintf(&b, "tagserved_request_quantile_seconds{route=%q,class=%q,q=%q} %s\n",
				ri.route, ri.class.String(), pq.label, promFloat(ri.hist.Quantile(pq.q)))
		}
	}

	// Live admission gauges.
	st := s.ctl.StatsSnapshot()
	b.WriteString("# HELP tagserved_inflight Admitted requests currently in flight.\n")
	b.WriteString("# TYPE tagserved_inflight gauge\n")
	fmt.Fprintf(&b, "tagserved_inflight{class=\"interactive\"} %d\n", st.Interactive.InFlight)
	fmt.Fprintf(&b, "tagserved_inflight{class=\"bulk\"} %d\n", st.Bulk.InFlight)
	b.WriteString("# HELP tagserved_queue_depth Interactive requests waiting for a slot.\n")
	b.WriteString("# TYPE tagserved_queue_depth gauge\n")
	fmt.Fprintf(&b, "tagserved_queue_depth %d\n", st.QueueDepth)
	b.WriteString("# HELP tagserved_queue_limit Interactive wait-queue capacity.\n")
	b.WriteString("# TYPE tagserved_queue_limit gauge\n")
	fmt.Fprintf(&b, "tagserved_queue_limit %d\n", st.QueueCap)
	b.WriteString("# HELP tagserved_inflight_limit Concurrency limit (0 = unlimited).\n")
	b.WriteString("# TYPE tagserved_inflight_limit gauge\n")
	fmt.Fprintf(&b, "tagserved_inflight_limit %d\n", st.MaxInFlight)

	// Memory-tiering residency. Counters are partition-clean (cluster
	// scrapes sum them across nodes); the rehydrate p99 is per node.
	// Emitted only once the service is installed: scraping a recovering
	// node must not report a phantom all-cold corpus.
	if svc := s.svc.Load(); svc != nil {
		tier := svc.Residency()
		b.WriteString("# HELP tagserved_resident_resources Resources currently hot (tracker and vector on the heap).\n")
		b.WriteString("# TYPE tagserved_resident_resources gauge\n")
		fmt.Fprintf(&b, "tagserved_resident_resources %d\n", tier.Resident)
		b.WriteString("# HELP tagserved_cold_resources Resources currently frozen to compact records.\n")
		b.WriteString("# TYPE tagserved_cold_resources gauge\n")
		fmt.Fprintf(&b, "tagserved_cold_resources %d\n", tier.Cold)
		b.WriteString("# HELP tagserved_evictions_total Hot-to-cold transitions since boot.\n")
		b.WriteString("# TYPE tagserved_evictions_total counter\n")
		fmt.Fprintf(&b, "tagserved_evictions_total %d\n", tier.Evictions)
		b.WriteString("# HELP tagserved_rehydrations_total Cold-to-hot transitions since boot.\n")
		b.WriteString("# TYPE tagserved_rehydrations_total counter\n")
		fmt.Fprintf(&b, "tagserved_rehydrations_total %d\n", tier.Rehydrations)
		b.WriteString("# HELP tagserved_resident_bytes Estimated heap held by hot resources.\n")
		b.WriteString("# TYPE tagserved_resident_bytes gauge\n")
		fmt.Fprintf(&b, "tagserved_resident_bytes %d\n", tier.ResidentBytes)
		b.WriteString("# HELP tagserved_rehydrate_p99_seconds Upper-bound p99 of cold-to-hot rehydration latency.\n")
		b.WriteString("# TYPE tagserved_rehydrate_p99_seconds gauge\n")
		fmt.Fprintf(&b, "tagserved_rehydrate_p99_seconds %s\n", promFloat(tier.RehydrateP99))
	}

	// Operational state.
	b.WriteString("# HELP tagserved_draining 1 while the server refuses new work during shutdown.\n")
	b.WriteString("# TYPE tagserved_draining gauge\n")
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(&b, "tagserved_draining %d\n", draining)
	b.WriteString("# HELP tagserved_body_too_large_total Requests refused with 413.\n")
	b.WriteString("# TYPE tagserved_body_too_large_total counter\n")
	fmt.Fprintf(&b, "tagserved_body_too_large_total %d\n", s.bodyTooLarge.Load())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}

// instrument wraps a serving handler with the admission gate: bulk is
// token-bucketed and shed first, interactive gets a bounded queue wait,
// rejected requests get 429 + Retry-After derived from the bucket's
// refill, and admitted requests are timed into the route's histogram.
func (s *Server) instrument(route string, class admit.Class, h http.HandlerFunc) http.HandlerFunc {
	ri := &routeInst{route: route, class: class, hist: admit.NewHistogram()}
	s.insts = append(s.insts, ri)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		res := s.ctl.Admit(r.Context(), class)
		if res.Outcome != admit.Admitted {
			ri.outcomes[res.Outcome].Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(res.RetryAfter)))
			writeError(w, http.StatusTooManyRequests,
				"%s overloaded (%s %s): retry later", route, class, res.Outcome)
			return
		}
		ri.outcomes[admit.Admitted].Add(1)
		defer s.ctl.Release(class)
		// The client may have hung up while we queued; skip the work, the
		// response has nobody to read it.
		if r.Context().Err() != nil {
			return
		}
		h(w, r)
		ri.observe(time.Since(start))
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
