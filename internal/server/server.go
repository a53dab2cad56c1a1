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
// The incentive budget is the Service's (ServiceOptions.Budget), kept
// by its lease allocator (internal/alloc): /allocate, /complete and
// /expire only lease and settle, and /metrics and /info report the
// allocator's ledger.
package server

import (
	"context"
	"errors"
	"fmt"
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
}

// Server is the HTTP front-end. Create with New (service ready up
// front) or NewDeferred + Install (serve /healthz while recovery runs);
// serve either through Handler (e.g. httptest) or Serve/Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// edge is the admission gate every serving route passes through, with
	// the body cap and the instrumentation behind /metrics/prom; draining
	// is the flag Shutdown raises before waiting.
	edge     *Edge
	draining atomic.Bool

	// svc is the installed service; nil until Install (or New, which
	// installs immediately). Handlers load it atomically: a nil load is
	// the not-ready state and answers 503.
	svc atomic.Pointer[incentivetag.Service]

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
	if cfg.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("server: negative max body bytes %d", cfg.MaxBodyBytes)
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	if cfg.Service != nil {
		return nil, fmt.Errorf("server: NewDeferred with a Service; use New")
	}
	s.edge = NewEdge("tagserved_", cfg.Admission, cfg.MaxBodyBytes)
	// Serving routes pass through the admission gate: ingest is the
	// crowd's bulk class (shed first), the operator loop and queries are
	// interactive (bounded wait, shed last). Ops endpoints — health,
	// metrics, info, admin — bypass admission: they must answer precisely
	// when the server is overloaded.
	s.mux.HandleFunc("POST /ingest", s.edge.Route("/ingest", admit.Bulk, s.handleIngest))
	s.mux.HandleFunc("POST /allocate", s.edge.Route("/allocate", admit.Interactive, s.handleAllocate))
	s.mux.HandleFunc("POST /complete", s.edge.Route("/complete", admit.Interactive, s.handleComplete))
	s.mux.HandleFunc("POST /expire", s.edge.Route("/expire", admit.Interactive, s.handleExpire))
	s.mux.HandleFunc("POST /admin/snapshot", s.handleAdminSnapshot)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics/prom", s.handlePromMetrics)
	s.mux.HandleFunc("GET /topk", s.edge.Route("/topk", admit.Interactive, s.handleTopK))
	s.mux.HandleFunc("GET /search", s.edge.Route("/search", admit.Interactive, s.handleSearch))
	s.mux.HandleFunc("GET /info", s.handleInfo)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	// Cluster scatter-gather endpoints (only useful on cluster members;
	// guarded by the shard-map hash check). Interactive class: they are
	// the gateway-side query path's building blocks. /cluster/topk takes
	// GET and POST under one pattern, so one route label: a second Route
	// for the same label would repeat every series of it in /metrics/prom.
	s.mux.HandleFunc("/cluster/topk", s.edge.Route("/cluster/topk", admit.Interactive, s.handleClusterTopK))
	s.mux.HandleFunc("GET /cluster/search", s.edge.Route("/cluster/search", admit.Interactive, s.handleClusterSearch))
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
		WriteError(w, http.StatusServiceUnavailable, "service recovering; poll /healthz")
	}
	return svc
}

// Handler returns the route table as an http.Handler, wrapped in the
// drain gate: once Shutdown begins, every request except /healthz gets
// an immediate 503 — no new work starts while in-flight requests
// finish, and a probe can still see the draining state.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() && r.URL.Path != "/healthz" {
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusServiceUnavailable, "server draining")
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Serve serves on l through NewHTTPServer until Shutdown (which returns
// http.ErrServerClosed here) or a listener error. Taking a listener lets
// callers bind port 0 and learn the address before serving.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.hs != nil {
		s.mu.Unlock()
		return fmt.Errorf("server: already serving")
	}
	hs := NewHTTPServer(s.Handler())
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
// sees (0 = no bound); the service's budget ledger always applies on
// top.
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
// snapshot plus the allocator's lease census and budget ledger.
type MetricsResponse struct {
	// Epoch is the query-index version (posts absorbed since boot), the
	// same value /topk and /search responses carry. Exposed here so a
	// cluster gateway can epoch-tag merged metrics without extra calls.
	Epoch uint64 `json:"epoch"`

	// Resources is how many resources the quality and tagging
	// aggregates cover: the corpus on a single node, the owned resources
	// on a cluster member — so a gateway's Σ quality_sum / Σ resources
	// is the cluster's exact mean quality.
	Resources      int     `json:"resources"`
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
	// Residency is the memory-tiering census: configured budgets, the
	// engine's hot/cold partition (the query index holds no copy), and
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
	buf, err := s.edge.readBody(w, r)
	defer putBody(buf)
	if err != nil {
		s.edge.bodyError(w, err)
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
			// A member holds only its owned resources, so a misrouted post
			// has nowhere to land: refused loudly as a misdirection (the
			// Service would refuse it too, as a 400), never lost silently.
			WriteError(w, http.StatusMisdirectedRequest,
				"%sresource %d is not owned by this node; route via the gateway", at(k), ev.Resource)
			return
		}
	}
	if in.bad != nil {
		WriteError(w, http.StatusBadRequest, "%s%v", at(len(in.events)), in.bad)
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
		WriteError(w, status, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, IngestResponse{Ingested: len(in.events)})
}

func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	var req AllocateRequest
	if !s.edge.ReadJSON(w, r, &req) {
		return
	}
	remaining := req.Remaining
	if remaining <= 0 {
		remaining = math.MaxInt32
	}
	i, lease, ok := svc.Lease(remaining)
	if !ok {
		WriteJSON(w, http.StatusOK, AllocateResponse{OK: false})
		return
	}
	WriteJSON(w, http.StatusOK, AllocateResponse{
		OK:       true,
		Resource: i,
		Lease:    uint64(lease),
		Cost:     svc.CostOf(i),
	})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	var req CompleteRequest
	if !s.edge.ReadJSON(w, r, &req) {
		return
	}
	p, err := post(req.Tags)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := svc.Fulfill(incentivetag.LeaseID(req.Lease), p); err != nil {
		// Unknown or already settled is the client's protocol error (409);
		// anything else (e.g. a WAL write failure) is ours (500), and the
		// allocator has already released the lease's reservation.
		status := http.StatusInternalServerError
		if errors.Is(err, incentivetag.ErrUnknownLease) {
			status = http.StatusConflict
		}
		WriteError(w, status, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, OKResponse{OK: true})
}

func (s *Server) handleExpire(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	var req ExpireRequest
	if !s.edge.ReadJSON(w, r, &req) {
		return
	}
	if err := svc.Expire(incentivetag.LeaseID(req.Lease)); err != nil {
		WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, OKResponse{OK: true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	m := svc.Snapshot()
	st := svc.AllocStats()
	tier := svc.Residency()
	WriteJSON(w, http.StatusOK, MetricsResponse{
		Epoch:             svc.QueryStats().Epoch,
		Resources:         m.Resources,
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
		AllocatedSpent:    st.Spent,
		RemainingBudget:   st.Remaining,
		ResidentResources: tier.Resident,
		ColdResources:     tier.Cold,
		Evictions:         tier.Evictions,
		Rehydrations:      tier.Rehydrations,
		ResidentBytes:     tier.ResidentBytes,
		RehydrateP99:      tier.RehydrateP99,
	})
}

// handlePromMetrics is GET /metrics/prom: the edge's admission and
// latency series plus what only a node has, its residency census and
// drain state. The JSON GET /metrics endpoint is unchanged; this one
// exists so a stock Prometheus scrape — or a grep in CI — can watch the
// server shed load.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	s.edge.ServeProm(w, func(p *Prom) {
		// Memory-tiering residency. Counters are partition-clean (cluster
		// scrapes sum them across nodes); the rehydrate p99 is per node.
		// Emitted only once the service is installed: scraping a recovering
		// node must not report a phantom all-cold corpus.
		if svc := s.svc.Load(); svc != nil {
			tier := svc.Residency()
			p.scalar("resident_resources", "gauge", "Resources currently hot (tracker and vector on the heap).", tier.Resident)
			p.scalar("cold_resources", "gauge", "Resources currently frozen to compact records.", tier.Cold)
			p.scalar("evictions_total", "counter", "Hot-to-cold transitions since boot.", tier.Evictions)
			p.scalar("rehydrations_total", "counter", "Cold-to-hot transitions since boot.", tier.Rehydrations)
			p.scalar("resident_bytes", "gauge", "Estimated heap held by hot resources.", tier.ResidentBytes)
			p.scalar("rehydrate_p99_seconds", "gauge", "Upper-bound p99 of cold-to-hot rehydration latency.", tier.RehydrateP99)
		}
		draining := 0
		if s.draining.Load() {
			draining = 1
		}
		p.scalar("draining", "gauge", "1 while the server refuses new work during shutdown.", draining)
	})
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	q := r.URL.Query()
	subject, ok := ParseResource(w, q)
	if !ok {
		return
	}
	if n := svc.N(); n == 0 {
		WriteError(w, http.StatusBadRequest, "corpus is empty: no resources to query")
		return
	} else if subject < 0 || subject >= n {
		WriteError(w, http.StatusBadRequest, "resource %d out of range [0,%d)", subject, n)
		return
	}
	k, ok := ParseK(w, q)
	if !ok {
		return
	}
	if !svc.OwnsResource(subject) {
		// A cluster member holds nothing of a resource it does not own:
		// a misdirection, as /cluster/topk answers it.
		WriteError(w, http.StatusMisdirectedRequest, "resource %d is not owned by this node", subject)
		return
	}
	// Live online index: incrementally maintained from ingest deltas,
	// epoch-versioned consistent read — no snapshot clone, no rebuild.
	scored, epoch, err := svc.TopK(subject, k)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, TopKResponse{Resource: subject, Epoch: epoch, Top: topEntries(scored)})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if svc := s.service(w); svc != nil {
		serveSearch(w, r.URL.Query(), svc)
	}
}

// serveSearch is the body GET /search and GET /cluster/search share: tag
// and k parsing, the ranking (owned resources only on a cluster member)
// and the response.
func serveSearch(w http.ResponseWriter, q url.Values, svc *incentivetag.Service) {
	ts := q.Get("tags")
	if ts == "" {
		WriteError(w, http.StatusBadRequest, "missing tags parameter (comma-separated tag ids)")
		return
	}
	parts := strings.Split(ts, ",")
	ids := make([]incentivetag.Tag, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		id, err := strconv.Atoi(part)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "tag %q is not an integer id", part)
			return
		}
		ids = append(ids, incentivetag.Tag(id))
	}
	query, err := incentivetag.NewPost(ids...)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, ok := ParseK(w, q)
	if !ok {
		return
	}
	scored, epoch, err := svc.Search(query, k)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := SearchResponse{Tags: make([]int32, len(query)), Epoch: epoch, Top: topEntries(scored)}
	for i, t := range query {
		out.Tags[i] = int32(t)
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	WriteJSON(w, http.StatusOK, InfoResponse{
		N:           svc.N(),
		TagUniverse: s.cfg.TagUniverse,
		Strategy:    s.cfg.Strategy,
		Budget:      svc.AllocStats().Budget,
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
		WriteJSON(w, http.StatusServiceUnavailable, HealthResponse{Ready: false, Reason: "recovering"})
		return
	}
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, HealthResponse{Ready: true, Reason: "draining"})
		return
	}
	if s.edge.ctl.Saturated() {
		WriteJSON(w, http.StatusServiceUnavailable, HealthResponse{
			Ready: true, Overloaded: true, Reason: "interactive queue saturated",
		})
		return
	}
	WriteJSON(w, http.StatusOK, HealthResponse{Ready: true})
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
		WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, res)
}
