package cluster

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"incentivetag/internal/admit"
	"incentivetag/internal/server"
)

// Config assembles a Gateway.
type Config struct {
	// Map is the validated cluster membership. Required.
	Map *Map
	// Admission configures the gateway's own overload control, reusing
	// the node-side middleware: proxied ingest is the bulk class (shed
	// first with 429 + Retry-After), queries and the lease loop are
	// interactive. The zero value admits everything.
	Admission admit.Config
	// MaxBodyBytes caps proxied request bodies (0 = server.DefaultMaxBody).
	MaxBodyBytes int64
	// ProbeInterval is the per-backend /healthz cadence
	// (0 = DefaultProbeInterval).
	ProbeInterval time.Duration
	// Dial opens a connection to a node's host:port; tests hand in
	// in-memory ones. Nil dials TCP.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

// Gateway is the cluster front-end: it owns the ring, the per-backend
// clients and the health prober, and serves the same public surface as
// a single tagserved node — /ingest routed to each post's owner,
// /topk and /search scatter-gathered and merged bit-identically, merged
// /metrics, plus cluster-only /owner. Create with New, start the prober
// with Start, serve Handler through server.NewHTTPServer.
type Gateway struct {
	m        *Map
	ring     *Ring
	mapHash  string
	backends []*backend

	// edge is the node's request edge, reused: admission, body cap,
	// instrumentation and the shared half of /metrics/prom.
	edge *server.Edge

	probeInterval time.Duration
	probeCancel   context.CancelFunc
	probeWG       sync.WaitGroup

	rr  atomic.Uint64 // allocate round-robin cursor
	mux *http.ServeMux
}

// New validates the configuration and builds the route table. The
// prober is not running yet — call Start (all backends count as down
// until their first successful probe).
func New(cfg Config) (*Gateway, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("cluster: nil shard map")
	}
	if err := cfg.Map.validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("cluster: negative max body bytes %d", cfg.MaxBodyBytes)
	}
	g := &Gateway{
		m:             cfg.Map,
		ring:          cfg.Map.ring(),
		mapHash:       cfg.Map.Hash(),
		edge:          server.NewEdge("taggate_", cfg.Admission, cfg.MaxBodyBytes),
		probeInterval: cfg.ProbeInterval,
		mux:           http.NewServeMux(),
	}
	if g.probeInterval <= 0 {
		g.probeInterval = DefaultProbeInterval
	}
	for i, n := range cfg.Map.Nodes {
		b, err := newBackend(i, n, cfg.Dial)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		g.backends = append(g.backends, b)
	}
	g.mux.HandleFunc("POST /ingest", g.edge.Route("/ingest", admit.Bulk, g.handleIngest))
	g.mux.HandleFunc("GET /topk", g.edge.Route("/topk", admit.Interactive, g.handleTopK))
	g.mux.HandleFunc("GET /search", g.edge.Route("/search", admit.Interactive, g.handleSearch))
	g.mux.HandleFunc("POST /allocate", g.edge.Route("/allocate", admit.Interactive, g.handleAllocate))
	g.mux.HandleFunc("POST /complete", g.edge.Route("/complete", admit.Interactive, g.handleComplete))
	g.mux.HandleFunc("POST /expire", g.edge.Route("/expire", admit.Interactive, g.handleExpire))
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /metrics/prom", g.handlePromMetrics)
	g.mux.HandleFunc("GET /info", g.handleInfo)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /owner", g.handleOwner)
	return g, nil
}

// Start launches the background health prober.
func (g *Gateway) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	g.probeCancel = cancel
	g.prober(ctx, &g.probeWG)
}

// Stop halts the prober and waits for its goroutines.
func (g *Gateway) Stop() {
	if g.probeCancel != nil {
		g.probeCancel()
		g.probeWG.Wait()
		g.probeCancel = nil
	}
}

// Handler returns the gateway's route table.
func (g *Gateway) Handler() http.Handler { return g.mux }

// MapHash exposes the placement fingerprint (logged at boot, asserted
// in tests).
func (g *Gateway) MapHash() string { return g.mapHash }

// --- wire types -----------------------------------------------------------

// TopKResponse is the gateway's merged /topk answer. Epoch is the sum
// of the per-node epochs in Epochs (each node's epoch counts the posts
// it absorbed, posts land only on their owner, so the sum plays the
// same "index version" role the single-node epoch does). Partial is
// true when at least one node's partial ranking is missing — the top
// list is then a lower bound, served with 200 rather than failing the
// whole query for one dead shard.
type TopKResponse struct {
	Resource int                `json:"resource"`
	Epoch    uint64             `json:"epoch"`
	Epochs   map[string]uint64  `json:"epochs"`
	Partial  bool               `json:"partial"`
	Top      []server.TopKEntry `json:"top"`
}

// SearchResponse is the gateway's merged /search answer; fields as in
// TopKResponse.
type SearchResponse struct {
	Tags    []int32            `json:"tags"`
	Epoch   uint64             `json:"epoch"`
	Epochs  map[string]uint64  `json:"epochs"`
	Partial bool               `json:"partial"`
	Top     []server.TopKEntry `json:"top"`
}

// MetricsResponse is the gateway's merged /metrics. Every member holds
// its owned resources only, so every aggregate partitions across owners:
// posts, spent, wasted posts, over- and under-tagged counts, the lease
// census and budget accounting are exact cluster-wide sums, and
// mean_quality is Σ quality_sum / Σ resources over the answering nodes —
// the single-node mean up to float reassociation when none is down. The
// per-node values are under Nodes.
type MetricsResponse struct {
	Epoch   uint64            `json:"epoch"`
	Epochs  map[string]uint64 `json:"epochs"`
	Partial bool              `json:"partial"`

	Posts       int     `json:"posts"`
	Spent       int     `json:"spent"`
	WastedPosts int     `json:"wasted_posts"`
	MeanQuality float64 `json:"mean_quality"`
	OverTagged  int     `json:"over_tagged"`
	UnderTagged int     `json:"under_tagged"`

	LeasesIssued      uint64 `json:"leases_issued"`
	LeasesOutstanding int    `json:"leases_outstanding"`
	LeasesFulfilled   uint64 `json:"leases_fulfilled"`
	LeasesExpired     uint64 `json:"leases_expired"`

	AllocatedSpent  int `json:"allocated_spent"`
	RemainingBudget int `json:"remaining_budget"` // -1 = any node unlimited

	// Memory-tiering census. Residency partitions cleanly — each node
	// tiers only the resources it holds — so counts, transition counters
	// and resident bytes are exact cluster-wide sums; the rehydrate p99
	// is the max across live nodes (the worst tail a query can hit).
	ResidentResources int     `json:"resident_resources"`
	ColdResources     int     `json:"cold_resources"`
	Evictions         uint64  `json:"evictions"`
	Rehydrations      uint64  `json:"rehydrations"`
	ResidentBytes     int64   `json:"resident_bytes"`
	RehydrateP99      float64 `json:"rehydrate_p99_seconds"`

	Nodes map[string]server.MetricsResponse `json:"nodes"`
}

// InfoResponse is the gateway's /info: the corpus shape (identical on
// every node — all boot the same primed dataset) read from one live
// node, plus the cluster topology.
type InfoResponse struct {
	N           int         `json:"n"`
	TagUniverse int         `json:"tag_universe"`
	Strategy    string      `json:"strategy"`
	Budget      int         `json:"budget"`
	Ready       bool        `json:"ready"`
	Cluster     ClusterInfo `json:"cluster"`
}

// ClusterInfo describes the gateway's view of the cluster.
type ClusterInfo struct {
	Nodes   int    `json:"nodes"`
	Up      int    `json:"up"`
	VNodes  int    `json:"vnodes"`
	MapHash string `json:"map_hash"`
}

// NodeHealth is one backend's liveness in /healthz.
type NodeHealth struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	Up   bool   `json:"up"`
}

// HealthResponse is the gateway's /healthz: Ready when every backend
// is up, Degraded when the gateway is serving partial results because
// at least one is down.
type HealthResponse struct {
	Ready    bool         `json:"ready"`
	Degraded bool         `json:"degraded"`
	Nodes    []NodeHealth `json:"nodes"`
}

// OwnerResponse answers /owner?resource=i: where the ring places a
// resource (CI and operators use it to aim requests at a known shard).
type OwnerResponse struct {
	Resource int    `json:"resource"`
	Node     string `json:"node"`
	URL      string `json:"url"`
	Up       bool   `json:"up"`
}

// --- helpers --------------------------------------------------------------

// relayStatus forwards a backend's non-2xx answer (message, status and
// — for 429 — Retry-After) to the gateway's client.
func relayStatus(w http.ResponseWriter, e *statusError) {
	if e.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterOr(e, 1)))
	}
	server.WriteError(w, e.status, "%s", e.msg)
}

// upBackends snapshots the currently-live scatter set.
func (g *Gateway) upBackends() []*backend {
	up := make([]*backend, 0, len(g.backends))
	for _, b := range g.backends {
		if b.up.Load() {
			up = append(up, b)
		}
	}
	return up
}

// mergeTop merges per-node partial rankings under the engine's strict
// total order — score descending, id ascending — and truncates to k.
// Every score was computed on its owner node with bit-identical float
// expressions, and resource ids are globally unique, so this sort is
// exactly the single-node selector's order and the merged prefix equals
// the single-node top-k (see internal/ir/cluster.go for the argument).
func mergeTop(lists [][]server.TopKEntry, k int) []server.TopKEntry {
	var all []server.TopKEntry
	for _, l := range lists {
		all = append(all, l...)
	}
	slices.SortFunc(all, func(a, b server.TopKEntry) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Resource, b.Resource)
	})
	if len(all) > k {
		all = all[:k]
	}
	if len(all) == 0 {
		return []server.TopKEntry{} // render as [] not null, like the nodes do
	}
	return all
}

// --- ingest ---------------------------------------------------------------

func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req server.IngestRequest
	if !g.edge.ReadJSON(w, r, &req) {
		return
	}
	single := len(req.Tags) > 0
	if single == (len(req.Events) > 0) {
		server.WriteError(w, http.StatusBadRequest, "provide either resource+tags or events, not both or neither")
		return
	}
	if single {
		g.ingestOne(w, r, &req)
		return
	}
	g.ingestBatch(w, r, req.Events)
}

// ingestOne proxies a single post to its owner, relaying the node's
// status verbatim — the gateway adds routing, not new semantics.
func (g *Gateway) ingestOne(w http.ResponseWriter, r *http.Request, req *server.IngestRequest) {
	b := g.backends[g.ring.owner(req.Resource)]
	if !b.up.Load() {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable,
			"owner node %q for resource %d is down", b.name, req.Resource)
		return
	}
	var out server.IngestResponse
	err := b.do(r.Context(), http.MethodPost, "/ingest", req, &out)
	var se *statusError
	if errors.As(err, &se) {
		relayStatus(w, se)
		return
	}
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "owner node %q: %v", b.name, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// ingestBatch splits a batch by owner (per-resource order preserved —
// the engine's state is a per-resource aggregate, so cross-resource
// reordering cannot change the outcome) and forwards the sub-batches
// concurrently. All-shed batches relay 429 so the client's backoff
// still works through the gateway; a sub-batch failure after others
// succeeded is reported as 502 with the exact ingested count, because
// a blind client retry would double-ingest the successful shards.
func (g *Gateway) ingestBatch(w http.ResponseWriter, r *http.Request, events []server.IngestEvent) {
	byOwner := make(map[int][]server.IngestEvent)
	for _, ev := range events {
		o := g.ring.owner(ev.Resource)
		byOwner[o] = append(byOwner[o], ev)
	}
	type result struct {
		b        *backend
		n        int
		ingested int
		err      error
	}
	results := make([]result, 0, len(byOwner))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for o, evs := range byOwner {
		b := g.backends[o]
		wg.Add(1)
		go func(b *backend, evs []server.IngestEvent) {
			defer wg.Done()
			res := result{b: b, n: len(evs)}
			if !b.up.Load() {
				res.err = errBackendDown
			} else {
				var out server.IngestResponse
				res.err = b.do(r.Context(), http.MethodPost, "/ingest", server.IngestRequest{Events: evs}, &out)
				if res.err == nil {
					res.ingested = out.Ingested
				}
			}
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		}(b, evs)
	}
	wg.Wait()

	ingested, failed, retryAfter := 0, 0, 0
	allShed := true
	var firstErr error
	for _, res := range results {
		if res.err == nil {
			ingested += res.ingested
			continue
		}
		failed++
		if firstErr == nil {
			firstErr = fmt.Errorf("node %q (%d events): %w", res.b.name, res.n, res.err)
		}
		var se *statusError
		if errors.As(res.err, &se) && se.status == http.StatusTooManyRequests {
			if ra := retryAfterOr(se, 1); ra > retryAfter {
				retryAfter = ra
			}
		} else {
			allShed = false
		}
	}
	switch {
	case failed == 0:
		server.WriteJSON(w, http.StatusOK, server.IngestResponse{Ingested: ingested})
	case ingested == 0 && allShed:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		server.WriteError(w, http.StatusTooManyRequests, "all owner nodes shed the batch: retry later")
	default:
		server.WriteError(w, http.StatusBadGateway,
			"partial ingest: %d of %d events ingested, %d sub-batches failed; do not blindly retry (successful shards would double-ingest); first failure: %v",
			ingested, len(events), failed, firstErr)
	}
}

// --- queries --------------------------------------------------------------

// scatterLeg is one node's part in a scatter: its answer or why there is
// none.
type scatterLeg struct {
	b    *backend
	resp server.ClusterLeg
	err  error
}

func (g *Gateway) handleTopK(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	resource, ok := server.ParseResource(w, q)
	if !ok {
		return
	}
	k, ok := server.ParseK(w, q)
	if !ok {
		return
	}

	// The owner's leg goes first: the subject's live count vector exists
	// only there, and the owner answers it — as the query for every other
	// node — beside its own partial ranking, both from one read view.
	// Without it there is no query to scatter, so a down owner is the one
	// case /topk answers 503 instead of degrading to partial.
	owner := g.backends[g.ring.owner(resource)]
	if !owner.up.Load() {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable,
			"resource %d's owner node %q is down; top-k needs the subject vector", resource, owner.name)
		return
	}
	legs := []scatterLeg{{b: owner}}
	ownerBuf, err := owner.leg(r.Context(), http.MethodGet,
		"/cluster/topk?resource="+strconv.Itoa(resource)+"&k="+strconv.Itoa(k)+"&maphash="+g.mapHash, nil, &legs[0].resp)
	var se *statusError
	if errors.As(err, &se) {
		relayStatus(w, se)
		return
	}
	if err != nil {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, "owner node %q: %v", owner.name, err)
		return
	}
	query := legs[0].resp.Query
	if len(query) == 0 {
		putAnswer(ownerBuf)
		server.WriteError(w, http.StatusBadGateway, "owner node %q answered without the query for the other nodes", owner.name)
		return
	}

	// Every other live node ranks against the owner's bytes as they came:
	// the gateway neither decodes nor re-encodes the subject vector.
	for _, b := range g.upBackends() {
		if b != owner {
			legs = append(legs, scatterLeg{b: b})
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(legs); i++ {
		wg.Add(1)
		go func(l *scatterLeg) {
			defer wg.Done()
			var buf *bytes.Buffer
			buf, l.err = l.b.leg(r.Context(), http.MethodPost, "/cluster/topk", query, &l.resp)
			putAnswer(buf)
		}(&legs[i])
	}
	wg.Wait()

	lists := make([][]server.TopKEntry, 0, len(legs))
	epochs := make(map[string]uint64, len(legs))
	var epochSum uint64
	for _, l := range legs {
		if l.err != nil {
			continue
		}
		lists = append(lists, l.resp.Top)
		epochs[l.b.name] = l.resp.Epoch
		epochSum += l.resp.Epoch
	}
	// query aliases the owner's buffer, so the buffer goes back only now:
	// a leg copies its body into its request before it returns.
	putAnswer(ownerBuf)
	server.WriteJSON(w, http.StatusOK, TopKResponse{
		Resource: resource,
		Epoch:    epochSum,
		Epochs:   epochs,
		Partial:  len(lists) < len(g.backends),
		Top:      mergeTop(lists, k),
	})
}

func (g *Gateway) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ts := q.Get("tags")
	if ts == "" {
		server.WriteError(w, http.StatusBadRequest, "missing tags parameter (comma-separated tag ids)")
		return
	}
	k, ok := server.ParseK(w, q)
	if !ok {
		return
	}
	up := g.upBackends()
	if len(up) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "no live backends")
		return
	}
	path := "/cluster/search?tags=" + url.QueryEscape(ts) +
		"&k=" + strconv.Itoa(k) + "&maphash=" + g.mapHash
	legs := make([]scatterLeg, len(up))
	var wg sync.WaitGroup
	for i, b := range up {
		legs[i].b = b
		wg.Add(1)
		go func(l *scatterLeg) {
			defer wg.Done()
			var buf *bytes.Buffer
			buf, l.err = l.b.leg(r.Context(), http.MethodGet, path, nil, &l.resp)
			putAnswer(buf) // a search answer carries no query: nothing aliases it
		}(&legs[i])
	}
	wg.Wait()

	lists := make([][]server.TopKEntry, 0, len(legs))
	epochs := make(map[string]uint64, len(legs))
	var epochSum uint64
	var tags []int32
	okLegs := 0
	var firstStatus *statusError
	for _, l := range legs {
		if l.err != nil {
			var se *statusError
			if errors.As(l.err, &se) && firstStatus == nil {
				firstStatus = se
			}
			continue
		}
		okLegs++
		if tags == nil {
			tags = l.resp.Tags
		}
		lists = append(lists, l.resp.Top)
		epochs[l.b.name] = l.resp.Epoch
		epochSum += l.resp.Epoch
	}
	if okLegs == 0 {
		// Every leg failed the same way a single node would have (e.g. a
		// malformed tag list is a 400 on all of them): relay that instead
		// of masking a client error as a gateway outage.
		if firstStatus != nil {
			relayStatus(w, firstStatus)
			return
		}
		server.WriteError(w, http.StatusServiceUnavailable, "no live backends answered the scatter")
		return
	}
	server.WriteJSON(w, http.StatusOK, SearchResponse{
		Tags:    tags,
		Epoch:   epochSum,
		Epochs:  epochs,
		Partial: okLegs < len(g.backends),
		Top:     mergeTop(lists, k),
	})
}

// --- lease loop -----------------------------------------------------------

// leaseNodeShift packs the owning backend's index into the high bits of
// a gateway lease id: a node's ids (its boot epoch, then a count) stay
// below bit 48, and the gateway stays stateless — /complete and /expire
// decode the node from the id itself.
const leaseNodeShift = 48

func encodeLease(node int, lease uint64) (uint64, bool) {
	if lease >= 1<<leaseNodeShift {
		return 0, false
	}
	return uint64(node+1)<<leaseNodeShift | lease, true
}

func (g *Gateway) decodeLease(l uint64) (*backend, uint64, bool) {
	node := int(l>>leaseNodeShift) - 1
	if node < 0 || node >= len(g.backends) {
		return nil, 0, false
	}
	return g.backends[node], l & (1<<leaseNodeShift - 1), true
}

// handleAllocate leases a task from one shard, round-robin across live
// nodes. Each node's allocator holds only the resources it owns, so
// any node's answer is a valid cluster-wide allocation; a node with
// nothing allocatable (ok=false) or shedding (429) just moves the
// cursor to the next. ok=false only after every live node declined.
func (g *Gateway) handleAllocate(w http.ResponseWriter, r *http.Request) {
	var req server.AllocateRequest
	if !g.edge.ReadJSON(w, r, &req) {
		return
	}
	up := g.upBackends()
	if len(up) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "no live backends")
		return
	}
	start := int(g.rr.Add(1))
	allShed, retryAfter := true, 0
	for i := 0; i < len(up); i++ {
		b := up[(start+i)%len(up)]
		var out server.AllocateResponse
		err := b.do(r.Context(), http.MethodPost, "/allocate", req, &out)
		var se *statusError
		if errors.As(err, &se) && se.status == http.StatusTooManyRequests {
			if ra := retryAfterOr(se, 1); ra > retryAfter {
				retryAfter = ra
			}
			continue
		}
		if err != nil {
			allShed = false
			continue
		}
		allShed = false
		if !out.OK {
			continue
		}
		lease, fit := encodeLease(b.idx, out.Lease)
		if !fit {
			server.WriteError(w, http.StatusInternalServerError,
				"node %q lease id %d overflows the gateway's routing bits", b.name, out.Lease)
			return
		}
		out.Lease = lease
		server.WriteJSON(w, http.StatusOK, out)
		return
	}
	if allShed && retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		server.WriteError(w, http.StatusTooManyRequests, "all nodes shed the allocation: retry later")
		return
	}
	server.WriteJSON(w, http.StatusOK, server.AllocateResponse{OK: false})
}

func (g *Gateway) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req server.CompleteRequest
	if !g.edge.ReadJSON(w, r, &req) {
		return
	}
	b, inner, ok := g.decodeLease(req.Lease)
	if !ok {
		server.WriteError(w, http.StatusBadRequest, "lease %d does not decode to a cluster node", req.Lease)
		return
	}
	req.Lease = inner
	g.settle(w, r, b, "/complete", req)
}

func (g *Gateway) handleExpire(w http.ResponseWriter, r *http.Request) {
	var req server.ExpireRequest
	if !g.edge.ReadJSON(w, r, &req) {
		return
	}
	b, inner, ok := g.decodeLease(req.Lease)
	if !ok {
		server.WriteError(w, http.StatusBadRequest, "lease %d does not decode to a cluster node", req.Lease)
		return
	}
	req.Lease = inner
	g.settle(w, r, b, "/expire", req)
}

// settle forwards a lease settlement to the node that issued it.
func (g *Gateway) settle(w http.ResponseWriter, r *http.Request, b *backend, path string, req any) {
	if !b.up.Load() {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, "node %q holding the lease is down", b.name)
		return
	}
	var out server.OKResponse
	err := b.do(r.Context(), http.MethodPost, path, req, &out)
	var se *statusError
	if errors.As(err, &se) {
		relayStatus(w, se)
		return
	}
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "node %q: %v", b.name, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// --- ops ------------------------------------------------------------------

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	up := g.upBackends()
	if len(up) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "no live backends")
		return
	}
	type leg struct {
		name string
		resp server.MetricsResponse
		err  error
	}
	legs := make([]leg, len(up))
	var wg sync.WaitGroup
	for i, b := range up {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			legs[i].name = b.name
			legs[i].err = b.do(r.Context(), http.MethodGet, "/metrics", nil, &legs[i].resp)
		}(i, b)
	}
	wg.Wait()

	out := MetricsResponse{
		Epochs: make(map[string]uint64),
		Nodes:  make(map[string]server.MetricsResponse),
	}
	okLegs, resources := 0, 0
	unlimited := false
	var qualitySum float64
	for _, l := range legs {
		if l.err != nil {
			continue
		}
		okLegs++
		m := l.resp
		out.Nodes[l.name] = m
		out.Epochs[l.name] = m.Epoch
		out.Epoch += m.Epoch
		out.Posts += m.Posts
		out.Spent += m.Spent
		out.WastedPosts += m.WastedPosts
		out.OverTagged += m.OverTagged
		out.UnderTagged += m.UnderTagged
		out.LeasesIssued += m.LeasesIssued
		out.LeasesOutstanding += m.LeasesOutstanding
		out.LeasesFulfilled += m.LeasesFulfilled
		out.LeasesExpired += m.LeasesExpired
		out.AllocatedSpent += m.AllocatedSpent
		out.ResidentResources += m.ResidentResources
		out.ColdResources += m.ColdResources
		out.Evictions += m.Evictions
		out.Rehydrations += m.Rehydrations
		out.ResidentBytes += m.ResidentBytes
		if m.RehydrateP99 > out.RehydrateP99 {
			out.RehydrateP99 = m.RehydrateP99
		}
		if m.RemainingBudget < 0 {
			unlimited = true
		} else {
			out.RemainingBudget += m.RemainingBudget
		}
		qualitySum += m.QualitySum
		resources += m.Resources
	}
	if okLegs == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "no live backends answered the scatter")
		return
	}
	if unlimited {
		out.RemainingBudget = -1
	}
	if resources > 0 {
		out.MeanQuality = qualitySum / float64(resources)
	}
	out.Partial = okLegs < len(g.backends)
	server.WriteJSON(w, http.StatusOK, out)
}

func (g *Gateway) handleInfo(w http.ResponseWriter, r *http.Request) {
	up := g.upBackends()
	ci := ClusterInfo{Nodes: len(g.backends), Up: len(up), VNodes: g.m.VNodes, MapHash: g.mapHash}
	if len(up) == 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, InfoResponse{Ready: false, Cluster: ci})
		return
	}
	var ni server.InfoResponse
	var got bool
	for _, b := range up {
		if err := b.do(r.Context(), http.MethodGet, "/info", nil, &ni); err == nil {
			got = true
			break
		}
	}
	if !got {
		server.WriteJSON(w, http.StatusServiceUnavailable, InfoResponse{Ready: false, Cluster: ci})
		return
	}
	server.WriteJSON(w, http.StatusOK, InfoResponse{
		N:           ni.N,
		TagUniverse: ni.TagUniverse,
		Strategy:    ni.Strategy,
		Budget:      ni.Budget,
		Ready:       len(up) == len(g.backends),
		Cluster:     ci,
	})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	nodes := make([]NodeHealth, len(g.backends))
	upCount := 0
	for i, b := range g.backends {
		u := b.up.Load()
		if u {
			upCount++
		}
		nodes[i] = NodeHealth{Name: b.name, URL: b.url, Up: u}
	}
	resp := HealthResponse{
		Ready:    upCount == len(g.backends),
		Degraded: upCount > 0 && upCount < len(g.backends),
		Nodes:    nodes,
	}
	// The gateway is useless with zero live shards — that, and only
	// that, is a gateway-level 503. One dead shard is degraded-but-
	// serving: scatter queries still answer with partial results.
	status := http.StatusOK
	if upCount == 0 {
		status = http.StatusServiceUnavailable
	}
	server.WriteJSON(w, status, resp)
}

func (g *Gateway) handleOwner(w http.ResponseWriter, r *http.Request) {
	resource, ok := server.ParseResource(w, r.URL.Query())
	if !ok {
		return
	}
	b := g.backends[g.ring.owner(resource)]
	server.WriteJSON(w, http.StatusOK, OwnerResponse{
		Resource: resource,
		Node:     b.name,
		URL:      b.url,
		Up:       b.up.Load(),
	})
}
