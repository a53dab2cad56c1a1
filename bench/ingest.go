package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"incentivetag"
	"incentivetag/internal/engine"
	"incentivetag/internal/ir"
	"incentivetag/internal/server"
	"incentivetag/internal/sim"
	"incentivetag/internal/stability"
	"incentivetag/internal/tagstore"
)

// ingest-http: one durable node, two clients POSTing 256-event batches of
// the corpus' recorded future posts. It is the write path top to bottom —
// server JSON decode and admission, service, engine apply, ir index
// update, tagstore group commit — and the only workload where the WAL and
// restart recovery do real work.

// ingestEnv is one set-up of the workload.
type ingestEnv struct {
	cfg    runConfig
	corpus *corpus
	dir    string // scratch root; the WAL lives in dir/wal
	node   *node
	conns  []*httpConn
	reqs   [][]byte // complete POST /ingest requests, one per batch
	posts  []int    // posts in each request
	next   []int    // per client: index of its next request
	acked  []int    // per client: posts acknowledged with 2xx
}

func (e *ingestEnv) walDir() string { return filepath.Join(e.dir, "wal") }

func (e *ingestEnv) serviceOptions(dir string) incentivetag.ServiceOptions {
	return incentivetag.ServiceOptions{
		Strategy:      "FP-MU",
		Seed:          e.cfg.seed,
		WALDir:        dir,
		SnapshotEvery: e.cfg.sc.snapshotEvery,
		// Only the record-count policy runs: cycles land by volume
		// ingested, not by how long the run took.
		SnapshotInterval: time.Hour,
	}
}

func setupIngest(cfg runConfig, rec *recorder) (*ingestEnv, error) {
	c, err := newCorpus(cfg.sc.n, cfg.seed)
	if err != nil {
		return nil, err
	}
	e := &ingestEnv{cfg: cfg, corpus: c, next: make([]int, clients), acked: make([]int, clients)}
	var body []byte
	for _, b := range c.batches(ingestBatch) {
		body = appendEvents(body[:0], b)
		e.reqs = append(e.reqs, postRequest("/ingest", body))
		e.posts = append(e.posts, len(b))
	}
	if e.dir, err = cfg.scratch("ingest"); err != nil {
		return nil, err
	}
	e.node, err = startNode(c.ds, e.serviceOptions(e.walDir()), server.Config{}, "", cfg.traced, rec)
	if err != nil {
		os.RemoveAll(e.dir)
		return nil, err
	}
	if e.conns, err = dialClients(e.node.addr); err != nil {
		e.drop()
		return nil, err
	}
	for i := range e.next {
		e.next[i] = i
	}
	// Warm-up: the first batches grow the dense count vectors, the WAL's
	// first segment and the connection buffers.
	for client, conn := range e.conns {
		for i := 0; i < cfg.sc.warmOps; i++ {
			if _, ok := e.op(client, conn); !ok {
				e.drop()
				return nil, fmt.Errorf("warm-up /ingest refused")
			}
		}
	}
	return e, nil
}

// op sends the client's next batch. Client c owns batches c, c+clients,
// ... and wraps around the stream: counts simply keep growing, the
// steady state a serving node sees.
func (e *ingestEnv) op(client int, conn *httpConn) (uint8, bool) {
	i := e.next[client] % len(e.reqs)
	e.next[client] += clients
	status, _, err := conn.roundTrip(e.reqs[i])
	if err != nil || status != http.StatusOK {
		return 0, false
	}
	e.acked[client] += e.posts[i]
	return 0, true
}

func (e *ingestEnv) drop() error {
	closeConns(e.conns)
	var err error
	if e.node != nil {
		err = e.node.stop()
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

func runIngestHTTP(cfg runConfig) (result, error) {
	res := newResult()
	var rec *recorder
	if cfg.traced {
		rec = newRecorder(cfg.workload)
	}
	setups := cfg.sc.setups
	if cfg.traced {
		setups = 1
	}
	e, setup, err := repeatSetup(setups, func() (*ingestEnv, error) { return setupIngest(cfg, rec) }, (*ingestEnv).drop)
	if err != nil {
		return res, err
	}
	defer e.drop()
	if e.node.tap != nil {
		e.node.tap.on.Store(true)
	}

	ph := phasesFor(cfg.seconds, cfg.traced)
	units := []int{ingestBatch}
	snaps0 := e.node.svc.RecoveryStats().SnapshotsTaken
	t := runTimed(e.conns, ph, openRate[wIngestHTTP], 1, e.op)
	snaps := e.node.svc.RecoveryStats().SnapshotsTaken - snaps0
	t.describe(cfg.log, []string{"ingest"}, openRate[wIngestHTTP])
	fmt.Fprintf(cfg.log, "  %d snapshot+compaction cycles inside the timed phases\n", snaps)

	recoverTook, rs, err := e.gate()
	if err != nil {
		return res, fmt.Errorf("%s gate: %w", cfg.workload, err)
	}
	fmt.Fprintf(cfg.log, "  recover_s %.4f s (snapshot seq %d, %d records / %d bytes replayed)\n",
		recoverTook.Seconds(), rs.SnapshotSeq, rs.ReplayedRecords, rs.ReplayBytes)

	if !cfg.traced {
		t.endToEndOf(&res, setup, units)
		return res, nil
	}
	t.processOf(&res, units)
	t.classLatency(&res, "ingest", 0, true)
	res.metrics["posts_per_s"] = float64(t.closed.units(units)) / t.closed.elapsed.Seconds()
	res.metrics["recover_s"] = recoverTook.Seconds()
	res.metrics["tagstore.recover_bytes_read"] = float64(rs.ReplayBytes)
	res.metrics["tagstore.recover_replay_ms"] = float64(rs.ReplayMillis)
	res.metrics["service.snapshots_in_run"] = float64(snaps)
	t0 := time.Now()
	if _, err := e.node.svc.SnapshotNow(); err != nil {
		return res, err
	}
	res.metrics["service.snapshot_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
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

// gate checks the workload's outputs: the server holds exactly the posts
// it acknowledged, and a service reopened on the crash image — only the
// bytes flushed before the last acknowledgement — equals the live one.
func (e *ingestEnv) gate() (time.Duration, incentivetag.RecoveryStats, error) {
	var rs incentivetag.RecoveryStats
	acked := 0
	for _, n := range e.acked {
		acked += n
	}
	var m server.MetricsResponse
	if err := getJSON(e.node.addr, "/metrics", &m); err != nil {
		return 0, rs, err
	}
	if e.cfg.sc.corruptGate {
		acked++
	}
	if m.Posts != acked {
		return 0, rs, fmt.Errorf("server reports %d posts, clients were acknowledged %d", m.Posts, acked)
	}
	image := filepath.Join(e.dir, "crash")
	if err := crashImage(e.node.svc, e.walDir(), image); err != nil {
		return 0, rs, err
	}
	opts := e.serviceOptions(image)
	opts.SnapshotInterval = -1
	t0 := time.Now()
	re, err := incentivetag.NewService(e.corpus.ds, opts)
	took := time.Since(t0)
	if err != nil {
		return 0, rs, fmt.Errorf("reopening the crash image: %w", err)
	}
	defer re.Close()
	live := e.node.svc
	for i := 0; i < live.N(); i++ {
		if live.Count(i) != re.Count(i) {
			return 0, rs, fmt.Errorf("resource %d: live count %d, recovered %d", i, live.Count(i), re.Count(i))
		}
	}
	if a, b := live.Snapshot(), re.Snapshot(); a != b {
		return 0, rs, fmt.Errorf("recovered metrics differ: live %+v, recovered %+v", a, b)
	}
	return took, re.RecoveryStats(), nil
}

// getJSON fetches one JSON document over a fresh connection.
func getJSON(addr, path string, v any) error {
	c, err := dialHTTP(addr)
	if err != nil {
		return err
	}
	defer c.close()
	status, body, err := c.roundTrip(getRequest(path))
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// ladder replays the first batches through each layer of the write path,
// bottom to top, every rung on fresh state so that all see the same
// inputs: Tracker.Observe → engine.IngestMany (no WAL) → OnlineIndex.Apply
// → tagstore group commit → Service.IngestMany (WAL) → strict JSON decode
// → the /ingest handler on a recorder → the same bodies over one TCP
// connection.
func (e *ingestEnv) ladder(rec *recorder, res *result) error {
	ds := e.corpus.ds
	batches := e.corpus.batches(ingestBatch)
	if len(batches) > e.cfg.sc.ladderBatches {
		batches = batches[:e.cfg.sc.ladderBatches]
	}
	n := len(batches)
	per := float64(len(batches[0]))
	data := sim.FromDataset(ds, 0)
	engCfg := engine.Config{Omega: 5, UnderThreshold: data.UnderThreshold, TagUniverse: data.TagUniverse}

	trackers := make([]*stability.Tracker, ds.N())
	for i := range trackers {
		trackers[i] = stability.NewTrackerSized(5, e.corpus.universe)
		for _, p := range ds.Resources[i].Seq[:ds.Resources[i].Initial] {
			trackers[i].Observe(p)
		}
	}
	observe := rec.measure("stability", "Tracker.Observe", n, func(i int) {
		for _, ev := range batches[i] {
			trackers[ev.Resource].Observe(ev.Post)
		}
	})

	eng, err := engine.New(engCfg, data.EngineSpecs())
	if err != nil {
		return err
	}
	runtime.GC()
	m0 := readMem()
	var ingestErr error
	apply := rec.measure("engine", "IngestMany", n, func(i int) {
		if err := eng.IngestMany(batches[i]); err != nil {
			ingestErr = err
		}
	})
	m1 := readMem()
	if ingestErr != nil {
		return ingestErr
	}
	posts := per * float64(n)
	res.metrics["engine.bytes_per_post"] = float64(m1.TotalAlloc-m0.TotalAlloc) / posts
	res.metrics["engine.allocs_per_post"] = float64(m1.Mallocs-m0.Mallocs) / posts

	seedEng, err := engine.New(engCfg, data.EngineSpecs())
	if err != nil {
		return err
	}
	idx := ir.NewOnlineIndex(seedEng.SnapshotRFDs(), seedEng.Shards())
	index := rec.measure("ir", "OnlineIndex.Apply", n, func(i int) {
		for _, ev := range batches[i] {
			idx.Apply(ev.Resource, ev.Post)
		}
	})

	// The engine commits one group per shard it touches, each flushed to
	// the OS before acknowledgement; the rung frames and commits the same
	// groups.
	store, err := tagstore.Open(filepath.Join(e.dir, "ladder-store"), tagstore.Options{})
	if err != nil {
		return err
	}
	shards := eng.Shards()
	groups := make([]tagstore.Batch, shards)
	var storeErr error
	commit := rec.measure("tagstore", "Batch.Add+AppendBatch", n, func(i int) {
		for _, ev := range batches[i] {
			if err := groups[ev.Resource%shards].Add(uint32(ev.Resource), ev.Post); err != nil {
				storeErr = err
			}
		}
		for s := range groups {
			if groups[s].Records() == 0 {
				continue
			}
			if err := store.AppendBatch(&groups[s]); err != nil {
				storeErr = err
			}
			if err := store.Flush(); err != nil {
				storeErr = err
			}
			groups[s].Reset()
		}
	})
	st, statErr := store.Stat()
	if cerr := store.Close(); storeErr == nil {
		storeErr = cerr
	}
	if storeErr != nil {
		return storeErr
	}
	if statErr != nil {
		return statErr
	}
	res.metrics["tagstore.wal_bytes_per_post"] = float64(st.Bytes) / posts

	// Every durable rung gets a WAL directory of its own and no
	// background snapshotter.
	durable := func(name string) incentivetag.ServiceOptions {
		opts := e.serviceOptions(filepath.Join(e.dir, name))
		opts.SnapshotInterval = -1
		return opts
	}
	svc, err := incentivetag.NewService(ds, durable("ladder-service"))
	if err != nil {
		return err
	}
	service := rec.measure("service", "IngestMany", n, func(i int) {
		if err := svc.IngestMany(batches[i]); err != nil {
			ingestErr = err
		}
	})
	if cerr := svc.Close(); ingestErr == nil {
		ingestErr = cerr
	}
	if ingestErr != nil {
		return ingestErr
	}

	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = appendEvents(nil, batches[i])
	}
	var decodeErr error
	decode := rec.measure("server", "json.Decode", n, func(i int) {
		dec := json.NewDecoder(bytes.NewReader(bodies[i]))
		dec.DisallowUnknownFields()
		var req server.IngestRequest
		if err := dec.Decode(&req); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return decodeErr
	}

	hsvc, err := incentivetag.NewService(ds, durable("ladder-handler"))
	if err != nil {
		return err
	}
	defer hsvc.Close()
	hsrv, err := server.New(server.Config{Service: hsvc, Strategy: "FP-MU", TagUniverse: e.corpus.universe})
	if err != nil {
		return err
	}
	handler, err := handlerRung(rec, hsrv.Handler(), "POST /ingest", n, func(i int) *http.Request {
		return httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(bodies[i]))
	})
	if err != nil {
		return err
	}

	lnode, err := startNode(ds, durable("ladder-loopback"), server.Config{}, "", false, nil)
	if err != nil {
		return err
	}
	defer lnode.stop()
	conn, err := dialHTTP(lnode.addr)
	if err != nil {
		return err
	}
	defer conn.close()
	var netErr error
	loopback := rec.measure("server", "POST /ingest over TCP", n, func(i int) {
		status, _, err := conn.roundTrip(e.reqs[i])
		if err != nil || status != http.StatusOK {
			netErr = fmt.Errorf("loopback /ingest: status %d: %v", status, err)
		}
	})
	if netErr != nil {
		return netErr
	}

	observe.self = observe.perOp
	apply.self = apply.perOp - observe.perOp
	index.self = index.perOp
	commit.self = commit.perOp
	service.self = service.perOp - apply.perOp - index.perOp - commit.perOp
	handler.self = handler.perOp - service.perOp
	loopback.layer, loopback.self = "net", loopback.perOp-handler.perOp
	rungs := []rung{observe, apply, index, commit, service, handler, loopback}

	res.metrics["stability.observe_ns_per_post"] = observe.perOp / per
	res.metrics["engine.ingest_ns_per_post"] = apply.perOp / per
	res.metrics["ir.apply_ns_per_post"] = index.perOp / per
	res.metrics["tagstore.append_ns_per_post"] = commit.perOp / per
	res.metrics["service.ingest_ns_per_post"] = service.perOp / per
	res.metrics["service.ingest_self_ns_per_post"] = service.self / per
	res.metrics["server.ingest_decode_ns_per_post"] = decode.perOp / per
	res.metrics["server.ingest_handler_ns_per_post"] = handler.perOp / per
	res.metrics["server.ingest_self_ns_per_post"] = handler.self / per
	res.metrics["server.ingest_loopback_ns_per_post"] = loopback.perOp / per
	res.metrics["server.ingest_net_ns_per_post"] = loopback.self / per
	res.metrics["ledger.ingest_closure"] = closure(rungs, loopback.perOp)
	ladderRate := 1e9 * per / loopback.perOp
	if closed := res.metrics["posts_per_s"]; closed > 0 {
		res.metrics["loadgen.closed_vs_ladder"] = closed / ladderRate
	}

	w := e.cfg.log
	printLadder(w, fmt.Sprintf("/ingest ladder, %d batches of %.0f posts, ns per post:", n, per), rungs, per, "ns")
	fmt.Fprintf(w, "    of the server rung's self time, strict JSON decode is %.1f ns per post\n", decode.perOp/per)
	fmt.Fprintf(w, "    self times sum to %.3f of the loopback rung\n", res.metrics["ledger.ingest_closure"])
	fmt.Fprintf(w, "    ladder, 1 connection: %.0f posts/s; closed loop, %d clients: %.0f posts/s (x%.2f)\n",
		ladderRate, clients, res.metrics["posts_per_s"], res.metrics["loadgen.closed_vs_ladder"])
	return nil
}

// handlerRung feeds n requests to h on response recorders — the handler
// with no socket under it — and fails on any non-200.
func handlerRung(rec *recorder, h http.Handler, op string, n int, request func(i int) *http.Request) (rung, error) {
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = request(i)
	}
	var bad error
	r := rec.measure("server", op, n, func(i int) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, reqs[i])
		if w.Code != http.StatusOK {
			bad = fmt.Errorf("%s: status %d: %s", op, w.Code, w.Body.String())
		}
	})
	return r, bad
}
