// Package server is the HTTP/JSON front-end over the live tagging
// Service: the network face of the paper's Figure-2 system, where
// Internet crowds tag resources and the incentive allocator hands out
// paid post tasks. It exposes the full serving loop —
//
//	POST /ingest          organic posts, single or batched
//	POST /allocate        lease the next incentivized post task (CHOOSE)
//	POST /complete        fulfill a lease with the worker's post (UPDATE)
//	POST /expire          abandon a lease, re-arming its resource
//	POST /admin/snapshot  force a snapshot/compaction cycle now
//	GET  /metrics         O(1) aggregate metric snapshot + lease census
//	GET  /metrics/prom    Prometheus text exposition: admission + latency
//	GET  /topk            top-k similar resources from the live online index
//	GET  /search          query-by-tag-set retrieval over live rfd state
//	GET  /info            corpus/strategy/query-index facts + recovery stats
//	GET  /healthz         readiness gate: 200 only once recovery completed
//
// — and is safe for arbitrary client concurrency: ingest scales across
// the engine's shards, allocation is serialized inside the lease
// allocator, and every outstanding lease is owned by exactly one HTTP
// client at a time.
//
// A server can start serving before its Service exists: NewDeferred
// binds the route table immediately, every endpoint except /healthz
// answers 503 while recovery runs, and Install flips the gate once the
// recovered Service is ready. That is what lets a restarted tagserved
// accept health probes during a long WAL replay without ever exposing
// half-recovered state.
//
// Overload is a first-class state, not an accident: every serving
// route passes through an admission gate (internal/admit) that
// token-buckets the crowd's bulk ingest and bounds total concurrency.
// When the server saturates, bulk is shed first with 429 + Retry-After
// derived from the bucket's refill; interactive requests (allocate,
// complete, expire, topk, search) get a small bounded queue wait before
// being shed, so operator-facing latency degrades last. /healthz
// reports saturation (503 + reason) so load balancers can route away,
// and Shutdown stops admitting before it waits for in-flight drains —
// a request arriving mid-drain gets a fast 503, never a hung socket.
// GET /metrics/prom exposes the whole story — per-route outcome
// counters, log-bucketed latency histograms with p50/p90/p99, queue
// depth and in-flight gauges — in Prometheus text format with no
// external dependencies.
//
// The server tracks the incentive budget: /allocate reserves the
// task's reward-unit cost when the lease is handed out (so concurrent
// clients can never collectively over-commit the budget), /complete
// converts the reservation into spend, /expire releases it, and
// clients may also pass an explicit remaining bound per request (the
// min of the two applies). A zero configured budget means unlimited.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	incentivetag "incentivetag"
	"incentivetag/internal/admit"
	"incentivetag/internal/tags"
)

// DefaultMaxBody bounds request bodies when Config.MaxBodyBytes is 0;
// a batch of a few thousand posts fits comfortably.
const DefaultMaxBody = 8 << 20

// Config assembles a Server.
type Config struct {
	// Service is the live tagging service to expose. Required for New;
	// NewDeferred accepts nil and expects a later Install.
	Service *incentivetag.Service
	// Strategy is the allocation policy name, advertised via /info.
	Strategy string
	// TagUniverse is |T| (Vocab.Size()), advertised via /info so load
	// generators can synthesize plausible posts.
	TagUniverse int
	// Budget is the total incentive budget in reward units; fulfilled
	// tasks consume it and /allocate refuses once it is gone. 0 means
	// unlimited.
	//
	// The budget ledger is a PER-PROCESS serving policy, not durable
	// state: the WAL records posts, not lease lifecycles, so a restarted
	// server cannot tell recovered allocated posts from organic ones and
	// starts a fresh ledger. A deployment that must cap spend across
	// restarts should set Budget to what remains (total minus the spend
	// it has accounted externally) when relaunching.
	Budget int

	// Admission configures overload control: the bulk token bucket, the
	// shared concurrency limit and the bounded interactive wait queue.
	// The zero value admits everything (no rate limit, no concurrency
	// limit) while still tracking counters and gauges, so existing
	// deployments see no behavior change until they opt in.
	Admission admit.Config

	// MaxBodyBytes caps request bodies; oversized posts get a distinct
	// 413 instead of a generic decode error. 0 selects DefaultMaxBody.
	MaxBodyBytes int64

	// ShardMapHash is the deterministic hash of the cluster shard map
	// this node was booted from (cluster.Map.Hash). Non-empty only on
	// cluster members: /cluster/* requests must carry a matching hash
	// (409 otherwise), and /ingest refuses resources the node does not
	// own with 421 Misdirected Request — a post landing off-owner would
	// silently vanish from every scatter-gather ranking. Empty means the
	// node is standalone and /cluster/* endpoints answer 409.
	ShardMapHash string

	// ReadTimeout, WriteTimeout and IdleTimeout bound each connection's
	// full-request read, response write and keep-alive idle time, so a
	// slow-reading (or slow-sending) client can never pin a handler
	// goroutine forever. 0 selects the defaults (DefaultReadTimeout,
	// DefaultWriteTimeout, DefaultIdleTimeout); a negative value
	// disables that bound entirely.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	IdleTimeout  time.Duration
}

// Default connection timeouts: generous enough for a slow crowd-worker
// client on a bad link, tight enough that an abandoned connection frees
// its goroutine within the minute.
const (
	DefaultReadTimeout  = 30 * time.Second
	DefaultWriteTimeout = 30 * time.Second
	DefaultIdleTimeout  = 2 * time.Minute
)

// timeoutOr resolves one configured timeout: 0 → def, negative → 0
// (net/http's "no timeout").
func timeoutOr(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// httpServer builds the net/http server with every slow-client bound
// applied; addr may be empty (Serve path).
func (s *Server) httpServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       timeoutOr(s.cfg.ReadTimeout, DefaultReadTimeout),
		WriteTimeout:      timeoutOr(s.cfg.WriteTimeout, DefaultWriteTimeout),
		IdleTimeout:       timeoutOr(s.cfg.IdleTimeout, DefaultIdleTimeout),
	}
}

// Server is the HTTP front-end. Create with New (service ready up
// front) or NewDeferred + Install (serve /healthz while recovery runs);
// serve either through Handler (e.g. httptest) or
// ListenAndServe/Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// Admission state: the gate every serving route passes through, the
	// per-route instrumentation behind /metrics/prom, the drain flag that
	// Shutdown raises before waiting, and the resolved body cap.
	ctl          *admit.Controller
	insts        []*routeInst
	draining     atomic.Bool
	bodyTooLarge atomic.Uint64
	maxBody      int64

	// svc is the installed service; nil until Install (or New, which
	// installs immediately). Handlers load it atomically: a nil load is
	// the not-ready state and answers 503.
	svc atomic.Pointer[incentivetag.Service]

	// Budget accounting. reserved holds the cost of outstanding leases:
	// /allocate reserves under budgetMu before leasing (check and
	// reservation are one critical section, so concurrent clients cannot
	// collectively overshoot the budget), /complete converts the
	// reservation into spend, /expire releases it.
	budgetMu sync.Mutex
	spent    int
	reserved int

	mu sync.Mutex
	hs *http.Server
}

// New validates the configuration and builds the route table with the
// service ready immediately.
func New(cfg Config) (*Server, error) {
	if cfg.Service == nil {
		return nil, fmt.Errorf("server: nil Service")
	}
	svc := cfg.Service
	cfg.Service = nil
	s, err := NewDeferred(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Install(svc, cfg.TagUniverse); err != nil {
		return nil, err
	}
	return s, nil
}

// NewDeferred builds the route table without a service: every endpoint
// except /healthz answers 503 until Install provides one. This is the
// restart path — the listener binds (and health probes get truthful
// not-ready answers) while the service recovers its durable state.
func NewDeferred(cfg Config) (*Server, error) {
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("server: negative budget %d", cfg.Budget)
	}
	if cfg.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("server: negative max body bytes %d", cfg.MaxBodyBytes)
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	if cfg.Service != nil {
		return nil, fmt.Errorf("server: NewDeferred with a Service; use New")
	}
	s.ctl = admit.NewController(cfg.Admission)
	s.maxBody = cfg.MaxBodyBytes
	if s.maxBody == 0 {
		s.maxBody = DefaultMaxBody
	}
	// Serving routes pass through the admission gate: ingest is the
	// crowd's bulk class (shed first), the operator loop and queries are
	// interactive (bounded wait, shed last). Ops endpoints — health,
	// metrics, info, admin — bypass admission: they must answer precisely
	// when the server is overloaded.
	s.mux.HandleFunc("POST /ingest", s.instrument("/ingest", admit.Bulk, s.handleIngest))
	s.mux.HandleFunc("POST /allocate", s.instrument("/allocate", admit.Interactive, s.handleAllocate))
	s.mux.HandleFunc("POST /complete", s.instrument("/complete", admit.Interactive, s.handleComplete))
	s.mux.HandleFunc("POST /expire", s.instrument("/expire", admit.Interactive, s.handleExpire))
	s.mux.HandleFunc("POST /admin/snapshot", s.handleAdminSnapshot)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics/prom", s.handlePromMetrics)
	s.mux.HandleFunc("GET /topk", s.instrument("/topk", admit.Interactive, s.handleTopK))
	s.mux.HandleFunc("GET /search", s.instrument("/search", admit.Interactive, s.handleSearch))
	s.mux.HandleFunc("GET /info", s.handleInfo)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	// Cluster scatter-gather endpoints (only useful on cluster members;
	// guarded by the shard-map hash check). Interactive class: they are
	// the gateway-side query path's building blocks. /cluster/topk takes
	// GET and POST under one pattern, so one route label: a second
	// instrument for the same label would repeat every series of it in
	// /metrics/prom.
	s.mux.HandleFunc("/cluster/topk", s.instrument("/cluster/topk", admit.Interactive, s.handleClusterTopK))
	s.mux.HandleFunc("GET /cluster/search", s.instrument("/cluster/search", admit.Interactive, s.handleClusterSearch))
	return s, nil
}

// Install provides the (recovered) service and flips the readiness
// gate. tagUniverse is |T| of the corpus the service was built over,
// unknown before the corpus loads on the deferred path. Install may run
// at most once.
func (s *Server) Install(svc *incentivetag.Service, tagUniverse int) error {
	if svc == nil {
		return fmt.Errorf("server: installing nil Service")
	}
	if tagUniverse != 0 {
		// Written before the atomic svc store, read after an atomic svc
		// load — the store/load pair orders this safely.
		s.cfg.TagUniverse = tagUniverse
	}
	if !s.svc.CompareAndSwap(nil, svc) {
		return fmt.Errorf("server: service already installed")
	}
	return nil
}

// service returns the installed service, or nil after answering 503 —
// the single readiness check every state-touching handler goes through.
func (s *Server) service(w http.ResponseWriter) *incentivetag.Service {
	svc := s.svc.Load()
	if svc == nil {
		writeError(w, http.StatusServiceUnavailable, "service recovering; poll /healthz")
	}
	return svc
}

// Ready reports whether the service has been installed.
func (s *Server) Ready() bool { return s.svc.Load() != nil }

// Handler returns the route table as an http.Handler, wrapped in the
// drain gate: once Shutdown begins, every request except /healthz gets
// an immediate 503 — no new work starts while in-flight requests
// finish, and a probe can still see the draining state.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() && r.URL.Path != "/healthz" {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "server draining")
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// ListenAndServe serves on addr until Shutdown (which returns
// http.ErrServerClosed here) or a listener error.
func (s *Server) ListenAndServe(addr string) error {
	s.mu.Lock()
	if s.hs != nil {
		s.mu.Unlock()
		return fmt.Errorf("server: already serving")
	}
	hs := s.httpServer(addr)
	s.hs = hs
	s.mu.Unlock()
	return hs.ListenAndServe()
}

// Serve is ListenAndServe over an existing listener (lets callers bind
// port 0 and learn the address before serving).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.hs != nil {
		s.mu.Unlock()
		return fmt.Errorf("server: already serving")
	}
	hs := s.httpServer("")
	s.hs = hs
	s.mu.Unlock()
	return hs.Serve(l)
}

// Shutdown gracefully stops the HTTP server: the drain gate closes
// FIRST (new requests on still-open keep-alive connections get a fast
// 503 instead of starting work that races the WAL close), then
// in-flight requests finish (bounded by ctx) and new connections are
// refused. The Service itself is not closed — the owner closes it after
// Shutdown returns, which is what makes the WAL flush strictly after
// the last request's write.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	hs := s.hs
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// AllocatedSpent returns the reward units consumed by fulfilled tasks.
func (s *Server) AllocatedSpent() int {
	s.budgetMu.Lock()
	defer s.budgetMu.Unlock()
	return s.spent
}

// --- wire schema ---------------------------------------------------------

// IngestEvent is one post in an ingest batch.
type IngestEvent struct {
	// Resource is the target resource index.
	Resource int `json:"resource"`
	// Tags are the post's tag ids (deduplicated and sorted server-side).
	Tags []int32 `json:"tags"`
}

// IngestRequest carries one post (Resource/Tags) or a batch (Events);
// exactly one form must be used.
type IngestRequest struct {
	Resource int           `json:"resource,omitempty"`
	Tags     []int32       `json:"tags,omitempty"`
	Events   []IngestEvent `json:"events,omitempty"`
}

// IngestResponse reports how many posts were ingested.
type IngestResponse struct {
	Ingested int `json:"ingested"`
}

// AllocateRequest optionally bounds the remaining budget the strategy
// sees; the server's own budget accounting always applies on top.
type AllocateRequest struct {
	Remaining int `json:"remaining,omitempty"`
}

// AllocateResponse is the leased task. OK=false means nothing is
// allocatable (budget exhausted, or every candidate resource leased).
type AllocateResponse struct {
	OK       bool   `json:"ok"`
	Resource int    `json:"resource,omitempty"`
	Lease    uint64 `json:"lease,omitempty"`
	// Cost is the reward units completing this task will consume.
	Cost int `json:"cost,omitempty"`
}

// CompleteRequest fulfills a lease with the worker's post.
type CompleteRequest struct {
	Lease uint64  `json:"lease"`
	Tags  []int32 `json:"tags"`
}

// ExpireRequest abandons a lease.
type ExpireRequest struct {
	Lease uint64 `json:"lease"`
}

// OKResponse acknowledges a settle operation.
type OKResponse struct {
	OK bool `json:"ok"`
}

// MetricsResponse is the /metrics payload: the engine's O(1) aggregate
// snapshot plus the allocator's lease census and the server's budget
// accounting.
type MetricsResponse struct {
	// Epoch is the query-index version (posts absorbed since boot), the
	// same value /topk and /search responses carry. Exposed here so a
	// cluster gateway can epoch-tag merged metrics without extra calls.
	Epoch uint64 `json:"epoch"`

	Posts          int     `json:"posts"`
	Spent          int     `json:"spent"`
	MeanQuality    float64 `json:"mean_quality"`
	QualitySum     float64 `json:"quality_sum"`
	OverTagged     int     `json:"over_tagged"`
	UnderTagged    int     `json:"under_tagged"`
	UnderTaggedPct float64 `json:"under_tagged_pct"`
	WastedPosts    int     `json:"wasted_posts"`

	LeasesIssued      uint64 `json:"leases_issued"`
	LeasesOutstanding int    `json:"leases_outstanding"`
	LeasesFulfilled   uint64 `json:"leases_fulfilled"`
	LeasesExpired     uint64 `json:"leases_expired"`

	AllocatedSpent  int `json:"allocated_spent"`
	RemainingBudget int `json:"remaining_budget"` // -1 = unlimited

	// Memory-tiering census: hot/cold resource counts and transition
	// counters (monotone, partition-clean — a cluster gateway sums them),
	// the estimated hot heap, and the engine's rehydrate p99 in seconds
	// (gateways take the max). Zero-cold on a node that never loaded a
	// snapshot; a node restarted from one — budgeted or not — counts the
	// snapshot's records cold until traffic (or the tail replay)
	// rehydrates them.
	ResidentResources int     `json:"resident_resources"`
	ColdResources     int     `json:"cold_resources"`
	Evictions         uint64  `json:"evictions"`
	Rehydrations      uint64  `json:"rehydrations"`
	ResidentBytes     int64   `json:"resident_bytes"`
	RehydrateP99      float64 `json:"rehydrate_p99_seconds"`
}

// TopKEntry is one similar resource.
type TopKEntry struct {
	Resource int     `json:"resource"`
	Score    float64 `json:"score"`
}

// topEntries renders a ranking on the wire ([] rather than null when
// empty).
func topEntries(scored []incentivetag.Scored) []TopKEntry {
	top := make([]TopKEntry, len(scored))
	for i, sc := range scored {
		top[i] = TopKEntry{Resource: sc.ID, Score: sc.Score}
	}
	return top
}

// TopKResponse answers GET /topk?resource=i&k=10. Epoch is the query
// index version the answer was computed against (the number of posts
// the index has absorbed since boot): two responses with the same
// epoch saw the identical point-in-time state.
type TopKResponse struct {
	Resource int         `json:"resource"`
	Epoch    uint64      `json:"epoch"`
	Top      []TopKEntry `json:"top"`
}

// SearchResponse answers GET /search?tags=a,b,c&k=10: the query's
// normalized (deduplicated, sorted) tag ids and up to k matching
// resources, best cosine first. Only resources sharing at least one
// query tag are ranked — fewer than k entries means fewer matches.
type SearchResponse struct {
	Tags  []int32     `json:"tags"`
	Epoch uint64      `json:"epoch"`
	Top   []TopKEntry `json:"top"`
}

// InfoResponse answers GET /info.
type InfoResponse struct {
	N           int    `json:"n"`
	TagUniverse int    `json:"tag_universe"`
	Strategy    string `json:"strategy"`
	Budget      int    `json:"budget"` // 0 = unlimited
	Ready       bool   `json:"ready"`
	// Recovery reports what the service's boot-time recovery did plus
	// the live snapshot/compaction counters.
	Recovery incentivetag.RecoveryStats `json:"recovery"`
	// Queries is the live query index census: epoch, posting-list shape,
	// and queries served since boot.
	Queries incentivetag.QueryStats `json:"queries"`
	// Residency is the memory-tiering census: configured budgets,
	// hot/cold partition across the engine and query-index tiers, and
	// the rehydrate latency profile.
	Residency incentivetag.TierStats `json:"residency"`
}

// HealthResponse answers GET /healthz. Ready distinguishes "recovery
// still running" from the serving states; Overloaded is set (with a
// 503) when the interactive wait queue is saturated — the server is
// actively shedding interactive work, so a balancer should route away
// even though the process is alive. Reason says which degraded state
// produced a 503.
type HealthResponse struct {
	Ready      bool   `json:"ready"`
	Overloaded bool   `json:"overloaded,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// ErrorResponse carries a client- or server-side failure.
type ErrorResponse struct {
	Error string `json:"error"`
}

// --- handlers ------------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// readJSON decodes the request body strictly (unknown fields rejected —
// they are almost always a client schema bug worth failing loudly on).
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return s.decodeJSON(w, http.MaxBytesReader(w, r.Body, s.maxBody), v)
}

// decodeJSON is readJSON over any reader of the (size-capped) body.
func (s *Server) decodeJSON(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.bodyError(w, err)
		return false
	}
	return true
}

// bodyError answers a request whose body could not be read or decoded.
// Bodies over the configured cap get a distinct 413 so clients can tell
// "split your batch" apart from "fix your schema".
func (s *Server) bodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.bodyTooLarge.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes; split the batch", mbe.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "bad request body: %v", err)
}

// post builds a validated tags.Post from wire tag ids.
func post(ts []int32) (incentivetag.Post, error) {
	ids := make([]incentivetag.Tag, len(ts))
	for k, t := range ts {
		ids[k] = incentivetag.Tag(t)
	}
	return tags.Normalize(ids)
}

// handleIngest reads the body once and decodes it with the canonical
// scanner or, when the body is any other JSON, the general decoder (see
// ingest.go); both hand the same ingestBatch to applyIngest.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	buf, err := s.readBody(w, r)
	defer putBody(buf)
	if err != nil {
		s.bodyError(w, err)
		return
	}
	in, ok := scanIngest(buf.Bytes())
	if !ok {
		if in, ok = s.decodeIngest(w, buf.Bytes()); !ok {
			return
		}
	}
	s.applyIngest(w, svc, in)
}

// applyIngest is the one tail behind both /ingest decoders: ownership
// check, ingest, response.
func (s *Server) applyIngest(w http.ResponseWriter, svc *incentivetag.Service, in ingestBatch) {
	// at prefixes a batch complaint with the event it is about.
	at := func(k int) string {
		if in.single {
			return ""
		}
		return fmt.Sprintf("event %d: ", k)
	}
	for k, ev := range in.events {
		if !svc.OwnsResource(ev.Resource) {
			// A post accepted off-owner would be invisible to every
			// scatter-gather query (nodes score only owned resources), so a
			// misrouted ingest is refused loudly rather than lost silently.
			writeError(w, http.StatusMisdirectedRequest,
				"%sresource %d is not owned by this node; route via the gateway", at(k), ev.Resource)
			return
		}
	}
	if in.bad != nil {
		writeError(w, http.StatusBadRequest, "%s%v", at(len(in.events)), in.bad)
		return
	}
	var err error
	if in.single {
		err = svc.Ingest(in.events[0].Resource, in.events[0].Post)
	} else {
		err = svc.IngestMany(in.events)
	}
	if err != nil {
		// Resource-index and empty-post complaints are the client's fault
		// (400); anything else (e.g. a WAL write failure) is ours (500).
		status := http.StatusInternalServerError
		if errors.Is(err, incentivetag.ErrResourceRange) || errors.Is(err, incentivetag.ErrEmptyPost) {
			status = http.StatusBadRequest
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{Ingested: len(in.events)})
}

func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	var req AllocateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	// Check, lease and reserve in one critical section: the budget can
	// never be over-committed by concurrent /allocate calls, because a
	// lease's cost is reserved before the next check runs. Lease itself
	// is a fast heap operation; lock order budgetMu → allocator mutex,
	// never inverted.
	s.budgetMu.Lock()
	remaining := s.remainingBudgetLocked()
	if req.Remaining > 0 && req.Remaining < remaining {
		remaining = req.Remaining
	}
	if remaining <= 0 {
		s.budgetMu.Unlock()
		writeJSON(w, http.StatusOK, AllocateResponse{OK: false})
		return
	}
	i, lease, ok := svc.Lease(remaining)
	if !ok {
		s.budgetMu.Unlock()
		writeJSON(w, http.StatusOK, AllocateResponse{OK: false})
		return
	}
	cost := svc.CostOf(i)
	s.reserved += cost
	s.budgetMu.Unlock()
	writeJSON(w, http.StatusOK, AllocateResponse{
		OK:       true,
		Resource: i,
		Lease:    uint64(lease),
		Cost:     cost,
	})
}

// remainingBudgetLocked is the server-side remaining incentive budget
// net of outstanding-lease reservations; math.MaxInt32 when unlimited.
// Caller holds budgetMu.
func (s *Server) remainingBudgetLocked() int {
	if s.cfg.Budget == 0 {
		return math.MaxInt32
	}
	rem := s.cfg.Budget - s.spent - s.reserved
	if rem < 0 {
		return 0
	}
	return rem
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	var req CompleteRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	p, err := post(req.Tags)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Read the task's cost while the lease is still alive — it names the
	// resource; after Fulfill the lease is gone. If a racing settle wins,
	// Fulfill errors and nothing is charged or released.
	cost := 1
	if i, ok := svc.LeaseResource(incentivetag.LeaseID(req.Lease)); ok {
		cost = svc.CostOf(i)
	}
	if err := svc.Fulfill(incentivetag.LeaseID(req.Lease), p); err != nil {
		if strings.Contains(err.Error(), "lease") {
			// Unknown or already settled: a client protocol error; the
			// reservation (if any) belongs to whoever settles it.
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		// The lease settled but the ingest failed (ours, e.g. a WAL write
		// error): no budget was consumed, so release the reservation.
		s.budgetMu.Lock()
		s.reserved -= cost
		s.budgetMu.Unlock()
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.budgetMu.Lock()
	s.reserved -= cost
	s.spent += cost
	s.budgetMu.Unlock()
	writeJSON(w, http.StatusOK, OKResponse{OK: true})
}

func (s *Server) handleExpire(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	var req ExpireRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	// As in /complete: capture the cost while the lease is alive, and
	// release its reservation only if this call is the one that settles.
	cost := 1
	if i, ok := svc.LeaseResource(incentivetag.LeaseID(req.Lease)); ok {
		cost = svc.CostOf(i)
	}
	if err := svc.Expire(incentivetag.LeaseID(req.Lease)); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.budgetMu.Lock()
	s.reserved -= cost
	s.budgetMu.Unlock()
	writeJSON(w, http.StatusOK, OKResponse{OK: true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	m := svc.Snapshot()
	st := svc.AllocStats()
	tier := svc.Residency()
	s.budgetMu.Lock()
	spent := s.spent
	rem := -1
	if s.cfg.Budget > 0 {
		rem = s.remainingBudgetLocked()
	}
	s.budgetMu.Unlock()
	writeJSON(w, http.StatusOK, MetricsResponse{
		Epoch:             svc.QueryStats().Epoch,
		Posts:             m.Posts,
		Spent:             m.Spent,
		MeanQuality:       m.MeanQuality,
		QualitySum:        m.QualitySum,
		OverTagged:        m.OverTagged,
		UnderTagged:       m.UnderTagged,
		UnderTaggedPct:    m.UnderTaggedPct,
		WastedPosts:       m.WastedPosts,
		LeasesIssued:      st.Issued,
		LeasesOutstanding: st.Outstanding,
		LeasesFulfilled:   st.Fulfilled,
		LeasesExpired:     st.Expired,
		AllocatedSpent:    spent,
		RemainingBudget:   rem,
		ResidentResources: tier.Resident,
		ColdResources:     tier.Cold,
		Evictions:         tier.Evictions,
		Rehydrations:      tier.Rehydrations,
		ResidentBytes:     tier.ResidentBytes,
		RehydrateP99:      tier.RehydrateP99,
	})
}

// parseK reads the optional k parameter (default 10, bounded [1,1000]);
// ok=false means the error response was already written.
func parseK(w http.ResponseWriter, q url.Values) (int, bool) {
	k := 10
	if ks := q.Get("k"); ks != "" {
		var err error
		if k, err = strconv.Atoi(ks); err != nil || k <= 0 || k > 1000 {
			writeError(w, http.StatusBadRequest, "k must be in [1,1000]")
			return 0, false
		}
	}
	return k, true
}

// parseResource reads the required resource parameter; ok=false means
// the error response was already written.
func parseResource(w http.ResponseWriter, q url.Values) (int, bool) {
	rs := q.Get("resource")
	if rs == "" {
		writeError(w, http.StatusBadRequest, "missing resource parameter")
		return 0, false
	}
	resource, err := strconv.Atoi(rs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "resource %q is not an integer", rs)
	}
	return resource, err == nil
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	q := r.URL.Query()
	subject, ok := parseResource(w, q)
	if !ok {
		return
	}
	if n := svc.N(); n == 0 {
		writeError(w, http.StatusBadRequest, "corpus is empty: no resources to query")
		return
	} else if subject < 0 || subject >= n {
		writeError(w, http.StatusBadRequest, "resource %d out of range [0,%d)", subject, n)
		return
	}
	k, ok := parseK(w, q)
	if !ok {
		return
	}
	// Live online index: incrementally maintained from ingest deltas,
	// epoch-versioned consistent read — no snapshot clone, no rebuild.
	scored, epoch, err := svc.TopK(subject, k)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, TopKResponse{Resource: subject, Epoch: epoch, Top: topEntries(scored)})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	q := r.URL.Query()
	ts := q.Get("tags")
	if ts == "" {
		writeError(w, http.StatusBadRequest, "missing tags parameter (comma-separated tag ids)")
		return
	}
	parts := strings.Split(ts, ",")
	ids := make([]incentivetag.Tag, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		id, err := strconv.Atoi(part)
		if err != nil {
			writeError(w, http.StatusBadRequest, "tag %q is not an integer id", part)
			return
		}
		ids = append(ids, incentivetag.Tag(id))
	}
	query, err := incentivetag.NewPost(ids...)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, ok := parseK(w, q)
	if !ok {
		return
	}
	scored, epoch, err := svc.Search(query, k)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := SearchResponse{Tags: make([]int32, len(query)), Epoch: epoch, Top: topEntries(scored)}
	for i, t := range query {
		out.Tags[i] = int32(t)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	writeJSON(w, http.StatusOK, InfoResponse{
		N:           svc.N(),
		TagUniverse: s.cfg.TagUniverse,
		Strategy:    s.cfg.Strategy,
		Budget:      s.cfg.Budget,
		Ready:       true,
		Recovery:    svc.RecoveryStats(),
		Queries:     svc.QueryStats(),
		Residency:   svc.Residency(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// The one endpoint that answers before Install: the readiness gate
	// restart scripts and load generators wait on. Three 503 states,
	// each with its reason: recovering, draining, overloaded.
	if s.svc.Load() == nil {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Ready: false, Reason: "recovering"})
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Ready: true, Reason: "draining"})
		return
	}
	if s.ctl.Saturated() {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{
			Ready: true, Overloaded: true, Reason: "interactive queue saturated",
		})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Ready: true})
}

func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	// A snapshot/compaction cycle on a large corpus (or queued behind
	// the background snapshotter's snapMu) can legitimately outlast the
	// slow-client WriteTimeout, which would kill the connection after
	// the work completed server-side — an ambiguous admin operation.
	// Lift the per-connection deadline for this trusted, rare request;
	// the timeout still protects every serving route.
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Time{})
	rc.SetWriteDeadline(time.Time{})
	res, err := svc.SnapshotNow()
	if err != nil {
		// No WAL configured (or the snapshot write failed): an operator
		// mistake or an I/O fault, not a client schema problem.
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
