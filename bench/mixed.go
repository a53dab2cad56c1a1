package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"incentivetag"
	"incentivetag/internal/ir"
	"incentivetag/internal/server"
)

// mixed-node: one durable, memory-tiered node serving the paper's
// incentive loop beside organic posts and reads on the same state. Each
// client draws from a fixed seeded mix: 50 % /topk on Zipf-skewed
// subjects, 10 % /search, 25 % single-post /ingest of a Zipf-chosen
// resource's next recorded post, 15 % incentive tasks (/allocate then
// /complete with the leased resource's next recorded post; 1 lease in 20
// is abandoned through /expire). Every write advances the index epoch, so
// the result cache almost never hits and the pruned executor does the
// read work; the allocator, the strategy and engine residency under a cap
// below the working set work here and nowhere else.

// Operation classes of the mix.
const (
	mixTopK uint8 = iota
	mixSearch
	mixIngest
	mixTask
	mixTaskExpire // a task whose lease is abandoned; reported with mixTask
)

var (
	mixClasses = []string{"topk", "search", "ingest", "task"}
	mixUnits   = []int{1, 1, 1, 2} // a task is two operations
)

// mixOp is one pre-drawn operation: its kind and the subject, resource or
// search query it targets.
type mixOp struct {
	kind uint8
	arg  int32
}

const (
	mixOpsPerClient = 1 << 16 // drawn per client and cycled
	mixSearches     = 256
	zipfS           = 1.1
)

// mixedEnv is one set-up of the workload.
type mixedEnv struct {
	cfg      runConfig
	corpus   *corpus
	dir      string
	node     *node
	conns    []*httpConn
	ops      [][]mixOp
	next     []int
	topks    []query // by subject
	searches []query
	allocate []byte
	cursor   []atomic.Int32 // per resource: recorded future posts handed out
	scratch  [][2][]byte    // per client: body and request buffers
	ingested []int          // per client: single posts acknowledged
	finished []int          // per client: tasks completed with a post
}

func (e *mixedEnv) serviceOptions(dir string) incentivetag.ServiceOptions {
	return incentivetag.ServiceOptions{
		Strategy:             "FP-MU",
		Seed:                 e.cfg.seed,
		WALDir:               dir,
		SnapshotEvery:        e.cfg.sc.snapshotEvery,
		SnapshotInterval:     time.Hour,
		MaxResidentResources: e.cfg.sc.maxResident,
	}
}

func setupMixed(cfg runConfig, rec *recorder) (e *mixedEnv, err error) {
	c, err := newCorpus(cfg.sc.n, cfg.seed)
	if err != nil {
		return nil, err
	}
	e = &mixedEnv{
		cfg: cfg, corpus: c,
		next:     make([]int, clients),
		cursor:   make([]atomic.Int32, c.n()),
		scratch:  make([][2][]byte, clients),
		ingested: make([]int, clients),
		finished: make([]int, clients),
		allocate: postRequest("/allocate", []byte("{}")),
	}
	defer func() {
		if err != nil {
			e.drop()
		}
	}()
	for i := range e.scratch {
		e.scratch[i] = [2][]byte{make([]byte, 0, 1<<10), make([]byte, 0, 2<<10)}
	}
	for s := 0; s < c.n(); s++ {
		path := topkPath(s)
		e.topks = append(e.topks, query{class: classTopK, subject: s, path: path, req: getRequest(path)})
	}
	sampler := newTagSampler(c.ds)
	rng := rand.New(rand.NewSource(cfg.seed + 4099))
	for i := 0; i < mixSearches; i++ {
		tags, post := sampler.searchQuery(rng)
		path := searchPath(tags)
		e.searches = append(e.searches, query{class: classSearch, tags: post, path: path, req: getRequest(path)})
	}
	// Popularity ranks map to resource ids through one seeded permutation,
	// so the hot resources are spread over the engine's shards.
	rank := rng.Perm(c.n())
	for client := 0; client < clients; client++ {
		r := rand.New(rand.NewSource(cfg.seed*131 + int64(client)))
		zipf := rand.NewZipf(r, zipfS, 1, uint64(c.n()-1))
		ops := make([]mixOp, mixOpsPerClient)
		for i := range ops {
			switch x := r.Intn(100); {
			case x < 50:
				ops[i] = mixOp{mixTopK, int32(rank[zipf.Uint64()])}
			case x < 60:
				ops[i] = mixOp{mixSearch, int32(r.Intn(mixSearches))}
			case x < 85:
				ops[i] = mixOp{mixIngest, int32(rank[zipf.Uint64()])}
			default:
				ops[i] = mixOp{kind: mixTask}
				if r.Intn(20) == 0 {
					ops[i].kind = mixTaskExpire
				}
			}
		}
		e.ops = append(e.ops, ops)
	}
	if e.dir, err = cfg.scratch("mixed"); err != nil {
		return e, err
	}
	e.node, err = startNode(c.ds, e.serviceOptions(filepath.Join(e.dir, "wal")), server.Config{}, "", cfg.traced, rec)
	if err != nil {
		return e, err
	}
	if e.conns, err = dialClients(e.node.addr); err != nil {
		return e, err
	}
	for client, conn := range e.conns {
		for i := 0; i < cfg.sc.warmOps; i++ {
			if _, ok := e.op(client, conn); !ok {
				return e, fmt.Errorf("warm-up operation refused")
			}
		}
	}
	// The first tier pass brings the node inside its residency cap before
	// anything is timed; from here the background loop keeps it there.
	if _, err = e.node.svc.TierNow(); err != nil {
		return e, err
	}
	return e, nil
}

var (
	patOK       = []byte(`"ok":true`)
	patLease    = []byte(`"lease":`)
	patResource = []byte(`"resource":`)
)

// nextPost hands out the resource's next recorded future post.
func (e *mixedEnv) nextPost(resource int) incentivetag.Post {
	return e.corpus.futurePost(resource, int(e.cursor[resource].Add(1))-1)
}

// op performs the client's next operation of the mix. Bodies that depend
// on the run — the next recorded post, a lease id — are appended into the
// client's own buffers, so the timed phases still allocate nothing.
func (e *mixedEnv) op(client int, conn *httpConn) (uint8, bool) {
	o := e.ops[client][e.next[client]%len(e.ops[client])]
	e.next[client]++
	buf := &e.scratch[client]
	ok200 := func(req []byte) ([]byte, bool) {
		status, body, err := conn.roundTrip(req)
		return body, err == nil && status == http.StatusOK
	}
	switch o.kind {
	case mixTopK:
		_, ok := ok200(e.topks[o.arg].req)
		return mixTopK, ok
	case mixSearch:
		_, ok := ok200(e.searches[o.arg].req)
		return mixSearch, ok
	case mixIngest:
		buf[0] = appendSingle(buf[0][:0], int(o.arg), e.nextPost(int(o.arg)))
		buf[1] = appendPost(buf[1][:0], "/ingest", buf[0])
		_, ok := ok200(buf[1])
		if ok {
			e.ingested[client]++
		}
		return mixIngest, ok
	}
	body, ok := ok200(e.allocate)
	if !ok || !bytes.Contains(body, patOK) {
		return mixTask, false
	}
	lease, _ := jsonUint(body, patLease)
	resource, _ := jsonUint(body, patResource) // omitted by the server when 0
	buf[0] = append(buf[0][:0], `{"lease":`...)
	buf[0] = strconv.AppendUint(buf[0], lease, 10)
	if o.kind == mixTaskExpire {
		buf[0] = append(buf[0], '}')
		buf[1] = appendPost(buf[1][:0], "/expire", buf[0])
		_, ok = ok200(buf[1])
		return mixTask, ok
	}
	buf[0] = append(buf[0], `,"tags":`...)
	buf[0] = appendTags(buf[0], e.nextPost(int(resource)))
	buf[0] = append(buf[0], '}')
	buf[1] = appendPost(buf[1][:0], "/complete", buf[0])
	if _, ok = ok200(buf[1]); ok {
		e.finished[client]++
	}
	return mixTask, ok
}

func (e *mixedEnv) drop() error {
	closeConns(e.conns)
	var err error
	if e.node != nil {
		err = e.node.stop()
	}
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}

func runMixedNode(cfg runConfig) (result, error) {
	res := newResult()
	var rec *recorder
	setups := cfg.sc.setups
	if cfg.traced {
		rec = newRecorder(cfg.workload)
		setups = 1
	}
	e, setup, err := repeatSetup(setups, func() (*mixedEnv, error) { return setupMixed(cfg, rec) }, (*mixedEnv).drop)
	if err != nil {
		return res, err
	}
	defer e.drop()
	if e.node.tap != nil {
		e.node.tap.on.Store(true)
	}
	ph := phasesFor(cfg.seconds, cfg.traced)
	rate := openRate[wMixedNode]
	svc := e.node.svc
	tier0, q0, snaps0 := svc.Residency(), svc.QueryStats(), svc.RecoveryStats().SnapshotsTaken
	t := runTimed(e.conns, ph, rate, len(mixClasses), e.op)
	tier1, q1, snaps := svc.Residency(), svc.QueryStats(), svc.RecoveryStats().SnapshotsTaken-snaps0
	t.describe(cfg.log, mixClasses, rate)
	if err := e.gate(); err != nil {
		return res, fmt.Errorf("%s gate: %w", cfg.workload, err)
	}
	if !cfg.traced {
		t.endToEndOf(&res, setup, mixUnits)
		return res, nil
	}
	t.processOf(&res, mixUnits)
	t.classLatency(&res, "topk", int(mixTopK), true)
	t.classLatency(&res, "search", int(mixSearch), false)
	t.classLatency(&res, "ingest", int(mixIngest), true)
	t.classLatency(&res, "task", int(mixTask), true)
	kops := float64(t.open.units(mixUnits)+t.closed.units(mixUnits)) / 1e3
	if kops > 0 {
		res.metrics["engine.evictions_per_kop"] = float64(tier1.Evictions-tier0.Evictions) / kops
		res.metrics["engine.rehydrations_per_kop"] = float64(tier1.Rehydrations-tier0.Rehydrations) / kops
	}
	res.metrics["engine.rehydrate_p99_us"] = tier1.RehydrateP99 * 1e6
	res.metrics["engine.resident_mb"] = float64(tier1.ResidentBytes) / 1e6
	if lookups := (q1.CacheHits - q0.CacheHits) + (q1.CacheMisses - q0.CacheMisses); lookups > 0 {
		res.metrics["service.cache_hit_ratio"] = float64(q1.CacheHits-q0.CacheHits) / float64(lookups)
	}
	res.metrics["service.snapshots_in_run"] = float64(snaps)
	fmt.Fprintf(cfg.log, "  residency: %d resident of %d (cap %d), %.1f evictions and %.1f rehydrations per 1000 operations; cache hit ratio %.4f\n",
		tier1.Resident, svc.N(), cfg.sc.maxResident, res.metrics["engine.evictions_per_kop"], res.metrics["engine.rehydrations_per_kop"], res.metrics["service.cache_hit_ratio"])
	if err := e.ladder(rec, &res); err != nil {
		return res, fmt.Errorf("%s ladder: %w", cfg.workload, err)
	}
	path, err := rec.write(cfg.outDir)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(cfg.log, "  trace written to %s\n", path)
	return res, nil
}

// gate checks the quiet node: it holds exactly the posts acknowledged
// (single ingests plus completed tasks), every lease was settled, a tier
// pass leaves it inside its cap, and /topk over HTTP equals an index
// rebuilt from a snapshot of the state, bit for bit.
func (e *mixedEnv) gate() error {
	want := 0
	for client := range e.ingested {
		want += e.ingested[client] + e.finished[client]
	}
	if e.cfg.sc.corruptGate {
		want++
	}
	var m server.MetricsResponse
	if err := getJSON(e.node.addr, "/metrics", &m); err != nil {
		return err
	}
	if m.Posts != want {
		return fmt.Errorf("server reports %d posts, clients were acknowledged %d", m.Posts, want)
	}
	if m.LeasesOutstanding != 0 || m.LeasesIssued != m.LeasesFulfilled+m.LeasesExpired {
		return fmt.Errorf("leases: %d issued, %d fulfilled, %d expired, %d outstanding",
			m.LeasesIssued, m.LeasesFulfilled, m.LeasesExpired, m.LeasesOutstanding)
	}
	svc := e.node.svc
	if _, err := svc.TierNow(); err != nil {
		return err
	}
	if r := svc.Residency().Resident; r > e.cfg.sc.maxResident {
		return fmt.Errorf("%d resources resident after a tier pass, cap %d", r, e.cfg.sc.maxResident)
	}
	oracle := ir.BuildInverted(svc.SnapshotRFDs())
	rng := rand.New(rand.NewSource(e.cfg.seed + 29))
	for i := 0; i < 50; i++ {
		subject := rng.Intn(svc.N())
		var got server.TopKResponse
		if err := getJSON(e.node.addr, e.topks[subject].path, &got); err != nil {
			return err
		}
		ranked := oracle.TopK(subject, topK)
		if len(got.Top) != len(ranked) {
			return fmt.Errorf("%s: %d entries, rebuilt index has %d", e.topks[subject].path, len(got.Top), len(ranked))
		}
		for j, r := range ranked {
			if got.Top[j].Resource != r.ID || math.Float64bits(got.Top[j].Score) != math.Float64bits(r.Score) {
				return fmt.Errorf("%s rank %d: (%d, %x), rebuilt index has (%d, %x)", e.topks[subject].path, j,
					got.Top[j].Resource, math.Float64bits(got.Top[j].Score), r.ID, math.Float64bits(r.Score))
			}
		}
	}
	return nil
}

// ladder takes the first operations of client 0's mix apart by kind, on a
// fresh node of the same configuration: the reads climb the single-node
// query ladder, the tasks are timed at the allocator (Service.Lease and
// Fulfill) and at the /allocate and /complete handlers, the single posts
// at the /ingest handler.
func (e *mixedEnv) ladder(rec *recorder, res *result) error {
	ops := e.ops[0][:min(e.cfg.sc.ladderOps, len(e.ops[0]))]
	var reads []query
	var posts []int32
	tasks := 0
	for _, o := range ops {
		switch o.kind {
		case mixTopK:
			reads = append(reads, e.topks[o.arg])
		case mixSearch:
			reads = append(reads, e.searches[o.arg])
		case mixIngest:
			posts = append(posts, o.arg)
		default:
			tasks++
		}
	}
	opts := e.serviceOptions(filepath.Join(e.dir, "ladder"))
	opts.SnapshotInterval = -1
	opts.TierInterval = -1 // the ladder runs its tier pass by hand
	svc, err := incentivetag.NewService(e.corpus.ds, opts)
	if err != nil {
		return err
	}
	defer svc.Close()
	if _, err := svc.TierNow(); err != nil {
		return err
	}
	if _, err := queryLadder(e.cfg.log, rec, e.corpus, svc, reads, res); err != nil {
		return err
	}

	cursor := make([]int, svc.N())
	next := func(resource int) incentivetag.Post {
		cursor[resource]++
		return e.corpus.futurePost(resource, cursor[resource]-1)
	}
	var leaseNs, fulfillNs []float64
	for i := 0; i < tasks; i++ {
		var resource int
		var lease incentivetag.LeaseID
		var ok bool
		leaseNs = append(leaseNs, float64(rec.call("alloc", "Service.Lease", func() {
			resource, lease, ok = svc.Lease(math.MaxInt32)
		})))
		if !ok {
			return fmt.Errorf("nothing allocatable at task %d", i)
		}
		p := next(resource)
		var ferr error
		fulfillNs = append(fulfillNs, float64(rec.call("alloc", "Service.Fulfill", func() { ferr = svc.Fulfill(lease, p) })))
		if ferr != nil {
			return ferr
		}
	}

	srv, err := server.New(server.Config{Service: svc, Strategy: "FP-MU", TagUniverse: e.corpus.universe})
	if err != nil {
		return err
	}
	h := srv.Handler()
	var allocNs, completeNs []float64
	for i := 0; i < tasks; i++ {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/allocate", bytes.NewReader([]byte("{}")))
		allocNs = append(allocNs, float64(rec.call("server", "POST /allocate", func() { h.ServeHTTP(w, req) })))
		body := w.Body.Bytes()
		if w.Code != http.StatusOK || !bytes.Contains(body, patOK) {
			return fmt.Errorf("/allocate on a recorder: status %d: %s", w.Code, body)
		}
		lease, _ := jsonUint(body, patLease)
		resource, _ := jsonUint(body, patResource)
		done := strconv.AppendUint([]byte(`{"lease":`), lease, 10)
		done = append(appendTags(append(done, `,"tags":`...), next(int(resource))), '}')
		w = httptest.NewRecorder()
		req = httptest.NewRequest(http.MethodPost, "/complete", bytes.NewReader(done))
		completeNs = append(completeNs, float64(rec.call("server", "POST /complete", func() { h.ServeHTTP(w, req) })))
		if w.Code != http.StatusOK {
			return fmt.Errorf("/complete on a recorder: status %d: %s", w.Code, w.Body.Bytes())
		}
	}
	single, err := handlerRung(rec, h, "POST /ingest (1 post)", len(posts), func(i int) *http.Request {
		r := int(posts[i])
		return httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(appendSingle(nil, r, next(r))))
	})
	if err != nil {
		return err
	}
	res.metrics["alloc.lease_us"] = medianF(leaseNs) / 1e3
	res.metrics["alloc.fulfill_us"] = medianF(fulfillNs) / 1e3
	res.metrics["server.allocate_handler_us"] = medianF(allocNs) / 1e3
	res.metrics["server.complete_handler_us"] = medianF(completeNs) / 1e3
	res.metrics["server.ingest1_handler_us"] = single.perOp / 1e3
	fmt.Fprintf(e.cfg.log, "  incentive loop, %d tasks and %d single posts, us per call:\n", tasks, len(posts))
	fmt.Fprintf(e.cfg.log, "    alloc   Service.Lease %.2f, Service.Fulfill %.2f\n", res.metrics["alloc.lease_us"], res.metrics["alloc.fulfill_us"])
	fmt.Fprintf(e.cfg.log, "    server  POST /allocate %.2f, POST /complete %.2f, POST /ingest (1 post) %.2f\n",
		res.metrics["server.allocate_handler_us"], res.metrics["server.complete_handler_us"], res.metrics["server.ingest1_handler_us"])
	return nil
}
