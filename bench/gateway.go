package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"incentivetag"
	"incentivetag/internal/cluster"
	"incentivetag/internal/server"
)

// query-gateway: three nodes, each owning its ring slice of a static
// shard map, behind a cluster.Gateway, read-only in the timed phases:
// 80 % GET /topk over every subject in shuffled order, 20 % GET /search
// with 2–3 tags drawn by corpus frequency. It is the scatter path — one
// /cluster/rfd fetch, a three-way /cluster/topk scatter, a merge — where
// cluster and server JSON do most of the work and nothing is cached.

const gatewayNodes = 3

// Query classes.
const (
	classTopK uint8 = iota
	classSearch
)

// query is one read, kept both as request bytes for the wire and as
// values for the rungs that call a layer directly.
type query struct {
	class   uint8
	subject int
	tags    incentivetag.Post
	path    string
	req     []byte
}

// drawQueries builds a client's query list: every subject once per pass
// in an order of its own, a search after every fourth /topk.
func drawQueries(c *corpus, sampler *tagSampler, rng *rand.Rand, passes int) []query {
	var out []query
	for p := 0; p < passes; p++ {
		for k, subject := range rng.Perm(c.n()) {
			path := topkPath(subject)
			out = append(out, query{class: classTopK, subject: subject, path: path, req: getRequest(path)})
			if k%4 == 3 {
				tags, post := sampler.searchQuery(rng)
				path := searchPath(tags)
				out = append(out, query{class: classSearch, tags: post, path: path, req: getRequest(path)})
			}
		}
	}
	return out
}

// gatewayEnv is one set-up of the workload.
type gatewayEnv struct {
	cfg     runConfig
	corpus  *corpus
	nodes   []*node
	ref     *node // unsharded, fed the same stream: the gate's oracle
	gw      *cluster.Gateway
	gwTap   *tap
	gwHTTP  *http.Server
	gwDone  chan error
	gwAddr  string
	conns   []*httpConn
	sampler *tagSampler
	queries [][]query // per client
	next    []int
	preload []incentivetag.PostEvent
}

func setupGateway(cfg runConfig, rec *recorder) (e *gatewayEnv, err error) {
	c, err := newCorpus(cfg.sc.n, cfg.seed)
	if err != nil {
		return nil, err
	}
	e = &gatewayEnv{cfg: cfg, corpus: c, next: make([]int, clients)}
	defer func() {
		if err != nil {
			e.drop()
		}
	}()
	addrs, err := freeAddrs(gatewayNodes)
	if err != nil {
		return e, err
	}
	m := &cluster.Map{VNodes: cluster.DefaultVNodes}
	for i, a := range addrs {
		m.Nodes = append(m.Nodes, cluster.Node{Name: "node" + strconv.Itoa(i), URL: "http://" + a})
	}
	opts := incentivetag.ServiceOptions{Strategy: "FP-MU", Seed: cfg.seed}
	for i, nd := range m.Nodes {
		owned, err := m.OwnedBy(nd.Name)
		if err != nil {
			return e, err
		}
		o := opts
		o.Owned = owned
		n, err := startNode(c.ds, o, server.Config{ShardMapHash: m.Hash()}, addrs[i], cfg.traced, rec)
		if err != nil {
			return e, err
		}
		e.nodes = append(e.nodes, n)
	}
	if e.ref, err = startNode(c.ds, opts, server.Config{}, "", false, nil); err != nil {
		return e, err
	}
	if e.gw, err = cluster.New(cluster.Config{Map: m}); err != nil {
		return e, err
	}
	e.gw.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err = e.gw.WaitReady(ctx); err != nil {
		return e, err
	}
	h := e.gw.Handler()
	if cfg.traced {
		e.gwTap = newTap(h, "cluster", rec)
		h = e.gwTap
	}
	if e.gwHTTP, e.gwAddr, e.gwDone, err = serve(h, ""); err != nil {
		return e, err
	}

	// Preload: the same stream through the gateway and into the reference
	// node, mixed singles and small batches, one connection each so both
	// apply every resource's posts in stream order.
	e.preload = c.future[:min(cfg.sc.preloadPosts, len(c.future))]
	rng := rand.New(rand.NewSource(cfg.seed + 911))
	var bodies [][]byte
	for at := 0; at < len(e.preload); {
		if rng.Intn(3) == 0 {
			ev := e.preload[at]
			bodies = append(bodies, postRequest("/ingest", appendSingle(nil, ev.Resource, ev.Post)))
			at++
			continue
		}
		k := min(2+rng.Intn(7), len(e.preload)-at)
		bodies = append(bodies, postRequest("/ingest", appendEvents(nil, e.preload[at:at+k])))
		at += k
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for t, addr := range []string{e.gwAddr, e.ref.addr} {
		wg.Add(1)
		go func(t int, addr string) {
			defer wg.Done()
			errs[t] = postAll(addr, bodies)
		}(t, addr)
	}
	wg.Wait()
	for _, perr := range errs {
		if perr != nil {
			return e, fmt.Errorf("preload: %w", perr)
		}
	}

	e.sampler = newTagSampler(c.ds)
	for client := 0; client < clients; client++ {
		e.queries = append(e.queries, drawQueries(c, e.sampler, rand.New(rand.NewSource(cfg.seed*31+int64(client))), 2))
	}
	if e.conns, err = dialClients(e.gwAddr); err != nil {
		return e, err
	}
	for client, conn := range e.conns {
		for i := 0; i < cfg.sc.warmOps; i++ {
			if _, ok := e.op(client, conn); !ok {
				return e, fmt.Errorf("warm-up query refused")
			}
		}
	}
	return e, nil
}

// postAll sends the requests in order over one connection.
func postAll(addr string, reqs [][]byte) error {
	c, err := dialHTTP(addr)
	if err != nil {
		return err
	}
	defer c.close()
	for _, req := range reqs {
		status, body, err := c.roundTrip(req)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %s", status, body)
		}
	}
	return nil
}

func (e *gatewayEnv) op(client int, conn *httpConn) (uint8, bool) {
	q := &e.queries[client][e.next[client]%len(e.queries[client])]
	e.next[client]++
	status, _, err := conn.roundTrip(q.req)
	return q.class, err == nil && status == http.StatusOK
}

func (e *gatewayEnv) drop() error {
	closeConns(e.conns)
	var err error
	keep := func(e2 error) {
		if err == nil {
			err = e2
		}
	}
	if e.gwHTTP != nil {
		keep(stopServing(e.gwHTTP, e.gwDone))
	}
	if e.gw != nil {
		e.gw.Stop()
	}
	for _, n := range e.nodes {
		keep(n.stop())
	}
	if e.ref != nil {
		keep(e.ref.stop())
	}
	return err
}

func (e *gatewayEnv) setTaps(on bool) {
	for _, n := range e.nodes {
		n.tap.on.Store(on)
	}
	e.gwTap.on.Store(on)
}

func runQueryGateway(cfg runConfig) (result, error) {
	res := newResult()
	var rec *recorder
	setups := cfg.sc.setups
	if cfg.traced {
		rec = newRecorder(cfg.workload)
		setups = 1
	}
	e, setup, err := repeatSetup(setups, func() (*gatewayEnv, error) { return setupGateway(cfg, rec) }, (*gatewayEnv).drop)
	if err != nil {
		return res, err
	}
	defer e.drop()
	if err := e.gate(); err != nil {
		return res, fmt.Errorf("%s gate: %w", cfg.workload, err)
	}
	if cfg.traced {
		e.setTaps(true)
	}
	ph := phasesFor(cfg.seconds, cfg.traced)
	units := []int{1, 1}
	rate := openRate[wQueryGateway]
	t := runTimed(e.conns, ph, rate, 2, e.op)
	t.describe(cfg.log, []string{"topk", "search"}, rate)
	if !cfg.traced {
		t.endToEndOf(&res, setup, units)
		return res, nil
	}
	t.processOf(&res, units)
	t.classLatency(&res, "topk", int(classTopK), true)
	t.classLatency(&res, "search", int(classSearch), false)
	tapped := float64(t.closed.units(units)) / t.closed.elapsed.Seconds()
	res.metrics["queries_per_s"] = tapped

	// The cost of measuring from outside is itself a number: the same
	// closed loop again with every tap off.
	e.setTaps(false)
	bare := closedLoop(e.conns, ph.closed, 2, e.op)
	res.attempted += bare.attempted
	res.failed += bare.failed
	if n := bare.units(units); n > 0 {
		res.metrics["trace_overhead_ratio"] = tapped / (float64(n) / bare.elapsed.Seconds())
	}
	fmt.Fprintf(cfg.log, "  closed loop with taps %.0f queries/s, without %.0f (ratio %.3f)\n",
		tapped, float64(bare.units(units))/bare.elapsed.Seconds(), res.metrics["trace_overhead_ratio"])

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

// sameTop reports the first difference between two rankings, comparing
// ids and the bits of the scores.
func sameTop(got, want []server.TopKEntry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Resource != want[i].Resource || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d: (%d, %x), want (%d, %x)", i,
				got[i].Resource, math.Float64bits(got[i].Score), want[i].Resource, math.Float64bits(want[i].Score))
		}
	}
	return nil
}

// gate checks, before any timing, that the merged answers of the gateway
// are bit-identical to the reference node's: 80 sampled /topk subjects and
// 20 /search queries, none partial, one epoch per node.
func (e *gatewayEnv) gate() error {
	rng := rand.New(rand.NewSource(e.cfg.seed + 17))
	for i := 0; i < 100; i++ {
		if i < 80 {
			path := topkPath(rng.Intn(e.corpus.n()))
			var got cluster.TopKResponse
			var want server.TopKResponse
			if err := getJSON(e.gwAddr, path, &got); err != nil {
				return err
			}
			if err := getJSON(e.ref.addr, path, &want); err != nil {
				return err
			}
			if e.cfg.sc.corruptGate && i == 0 && len(want.Top) > 0 {
				want.Top[0].Score = math.Nextafter(want.Top[0].Score, 2)
			}
			if got.Partial || len(got.Epochs) != gatewayNodes {
				return fmt.Errorf("%s: partial=%v with %d node epochs, want a full answer from %d nodes", path, got.Partial, len(got.Epochs), gatewayNodes)
			}
			if err := sameTop(got.Top, want.Top); err != nil {
				return fmt.Errorf("%s: gateway differs from the reference node: %w", path, err)
			}
			continue
		}
		tags, _ := e.sampler.searchQuery(rng)
		path := searchPath(tags)
		var got cluster.SearchResponse
		var want server.SearchResponse
		if err := getJSON(e.gwAddr, path, &got); err != nil {
			return err
		}
		if err := getJSON(e.ref.addr, path, &want); err != nil {
			return err
		}
		if got.Partial || len(got.Epochs) != gatewayNodes {
			return fmt.Errorf("%s: partial=%v with %d node epochs", path, got.Partial, len(got.Epochs))
		}
		if err := sameTop(got.Top, want.Top); err != nil {
			return fmt.Errorf("%s: gateway differs from the reference node: %w", path, err)
		}
	}
	return nil
}

// ladder climbs the read path on the first queries of client 0: the ir
// kernels on an index built from the reference state, Service.TopK miss
// and hit, the /topk handler on a recorder and over one TCP connection —
// all single node — then the same queries through the gateway over one
// connection, with the node taps timing every leg.
func (e *gatewayEnv) ladder(rec *recorder, res *result) error {
	qs := e.queries[0]
	if len(qs) > e.cfg.sc.ladderQueries {
		qs = qs[:e.cfg.sc.ladderQueries]
	}
	svc, err := incentivetag.NewService(e.corpus.ds, incentivetag.ServiceOptions{Strategy: "FP-MU", Seed: e.cfg.seed})
	if err != nil {
		return err
	}
	defer svc.Close()
	if err := svc.IngestMany(e.preload); err != nil {
		return err
	}
	single, err := queryLadder(e.cfg.log, rec, e.corpus, svc, qs, res)
	if err != nil {
		return err
	}

	e.setTaps(true)
	for _, n := range e.nodes {
		n.tap.reset()
	}
	conn, err := dialHTTP(e.gwAddr)
	if err != nil {
		return err
	}
	defer conn.close()
	topks, searches := splitQueries(qs)
	var bad error
	send := func(list []query) func(i int) {
		return func(i int) {
			status, _, err := conn.roundTrip(list[i].req)
			if err != nil || status != http.StatusOK {
				bad = fmt.Errorf("gateway %s: status %d: %v", list[i].path, status, err)
			}
		}
	}
	const clientOp = "GET /topk over TCP"
	scatter := rec.measure("cluster", clientOp, len(topks), send(topks))
	var legs, legBytes int64
	var rfdNs, topkNs []int64
	for _, n := range e.nodes {
		rfd, topk := n.tap.path("/cluster/rfd"), n.tap.path("/cluster/topk")
		legs += rfd.requests + topk.requests
		legBytes += rfd.bytes + topk.bytes
		rfdNs = append(rfdNs, rfd.nanos...)
		topkNs = append(topkNs, topk.nanos...)
	}
	search := rec.measure("cluster", "GET /search over TCP", len(searches), send(searches))
	e.setTaps(false)
	if bad != nil {
		return bad
	}

	selfs := rec.selfTimes("cluster", clientOp, "server")
	totals := rec.durations("cluster", clientOp)
	legsWall := make([]float64, len(selfs))
	for i := range selfs {
		legsWall[i] = totals[i] - selfs[i]
	}
	self, wall := medianF(selfs), medianF(legsWall)
	rfdLeg := medianI64(rfdNs)
	slowest := medianF(rec.childMax("cluster", clientOp, "/cluster/topk"))
	res.metrics["cluster.topk_us"] = scatter.perOp / 1e3
	res.metrics["cluster.search_us"] = search.perOp / 1e3
	res.metrics["cluster.legs_per_topk"] = float64(legs) / float64(len(topks))
	res.metrics["cluster.bytes_per_topk"] = float64(legBytes) / float64(len(topks))
	res.metrics["cluster.rfd_leg_us"] = rfdLeg / 1e3
	res.metrics["cluster.topk_leg_us"] = medianI64(topkNs) / 1e3
	res.metrics["cluster.legs_wall_us"] = wall / 1e3
	res.metrics["cluster.topk_self_us"] = self / 1e3
	res.metrics["cluster.scatter_overhead"] = single.loopbackNs / scatter.perOp
	res.metrics["ledger.topk_closure"] = (self + wall) / scatter.perOp
	if tapped := res.metrics["queries_per_s"]; tapped > 0 {
		mix := 0.8*scatter.perOp + 0.2*search.perOp
		res.metrics["loadgen.closed_vs_ladder"] = tapped / (1e9 / mix)
	}

	w := e.cfg.log
	fmt.Fprintf(w, "  gateway /topk over one connection, us per query (%d queries):\n", len(topks))
	fmt.Fprintf(w, "    cluster    %-26s %10.1f\n", clientOp, scatter.perOp/1e3)
	fmt.Fprintf(w, "    server     node handlers busy, any leg  %8.1f   (/cluster/rfd %.1f; /cluster/topk median %.1f, slowest %.1f; kernel ir.TopKWeighted %.1f)\n",
		wall/1e3, rfdLeg/1e3, res.metrics["cluster.topk_leg_us"], slowest/1e3, res.metrics["ir.topk_weighted_us"])
	fmt.Fprintf(w, "    cluster    self: routing, backend round trips, JSON, merge %8.1f\n", self/1e3)
	fmt.Fprintf(w, "    self + legs sum to %.3f of the gateway query; %.1f legs and %.0f body bytes per query\n",
		res.metrics["ledger.topk_closure"], res.metrics["cluster.legs_per_topk"], res.metrics["cluster.bytes_per_topk"])
	fmt.Fprintf(w, "    scatter_overhead %.4f = single-node /topk over TCP %.1f us / gateway %.1f us\n",
		res.metrics["cluster.scatter_overhead"], single.loopbackNs/1e3, scatter.perOp/1e3)
	return nil
}
