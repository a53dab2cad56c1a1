package incentivetag_test

// The multi-process checks: cmd/tagserved and cmd/taggate are built once
// and run as real processes on 127.0.0.1 port 0, and five subtests hold
// them to their contracts over HTTP — books that balance across the
// wire, admission shedding and a Prometheus surface that reconciles, a
// sharded cluster that degrades gracefully when a member dies, and
// kill -9 recovery that loses no committed post and answers bit for bit.
// Run them with
//
//	go test -run '^TestE2E' -v .

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"incentivetag/internal/cluster"
	"incentivetag/internal/server"
)

// starter starts one built binary with its listener on 127.0.0.1:0.
type starter func(t *testing.T, args ...string) *e2eProc

func TestE2E(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/tagserved", "./cmd/taggate")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the binaries: %v\n%s", err, out)
	}
	binary := func(name string) starter {
		return func(t *testing.T, args ...string) *e2eProc {
			return startProc(t, filepath.Join(bin, name), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
		}
	}
	node, gate := binary("tagserved"), binary("taggate")
	t.Run("smoke", func(t *testing.T) { e2eSmoke(t, node) })
	t.Run("overload", func(t *testing.T) { e2eOverload(t, node) })
	t.Run("cluster", func(t *testing.T) { e2eCluster(t, node, gate) })
	t.Run("crash-recovery", func(t *testing.T) { e2eCrashRecovery(t, node) })
	t.Run("tiering", func(t *testing.T) { e2eTiering(t, node) })
}

// e2eSmoke: a durable node takes a mixed ingest/query load and an
// allocate/complete/expire swarm; the books balance, the query routes
// answer well-shaped rankings and clear 400s, and SIGTERM flushes the WAL.
func e2eSmoke(t *testing.T, node starter) {
	wal := filepath.Join(t.TempDir(), "wal")
	p := node(t, "-n", "200", "-budget", "400", "-wal", wal)
	c := p.client(t)
	l := newLoad(t, c)
	must(t, l.ingest(4, 64, 3000, 2))
	fulfilled, err := l.tasks(4, 250, 0.1)
	must(t, err)
	// The query swarm actually ran alongside ingest.
	if l.queries.Load() == 0 {
		t.Fatal("no query was answered during the ingest phase")
	}
	m := okAs[server.MetricsResponse](t, c, "/metrics")
	if !(m.MeanQuality > 0 && m.Posts > 0 && m.LeasesFulfilled > 0 && m.LeasesOutstanding == 0) {
		t.Fatalf("/metrics %+v", m)
	}
	// The allocator's books across the wire (unit costs): every completed
	// task is charged once, nothing stays reserved.
	if m.AllocatedSpent != fulfilled || m.RemainingBudget != 400-m.AllocatedSpent {
		t.Fatalf("allocated_spent %d, remaining_budget %d after %d tasks", m.AllocatedSpent, m.RemainingBudget, fulfilled)
	}

	// Shapes: the subject, exactly k entries ranked in [0, 1] and a live
	// epoch; the normalized tag echo, at most k entries, all positive.
	tk := okAs[server.TopKResponse](t, c, "/topk?resource=0&k=5")
	if tk.Resource != 0 || len(tk.Top) != 5 || tk.Epoch == 0 {
		t.Fatalf("/topk %+v", tk)
	}
	requireRanked(t, tk.Top, false)
	sr := okAs[server.SearchResponse](t, c, "/search?tags=1,2,3&k=5")
	if !slices.Equal(sr.Tags, []int32{1, 2, 3}) || len(sr.Top) > 5 {
		t.Fatalf("/search %+v", sr)
	}
	requireRanked(t, sr.Top, true)
	if q := okAs[server.InfoResponse](t, c, "/info").Queries; !(q.Epoch > 0 && q.TopKQueries > 0 && q.SearchQueries > 0 && q.Tags > 0) {
		t.Fatalf("/info queries %+v", q)
	}
	// Malformed query requests get distinct, clear 400s.
	for path, want := range map[string]string{"/topk": "missing resource", "/topk?resource=abc": "", "/topk?resource=999999": "out of range", "/search": "", "/search?tags=x,y": ""} {
		if e := getAs[server.ErrorResponse](t, c, path, http.StatusBadRequest); !strings.Contains(e.Error, want) {
			t.Errorf("%s: error %q, want %q", path, e.Error, want)
		}
	}

	p.stop(t)
	for _, pattern := range []string{"*.log", "snap-*.snap"} {
		if files, _ := filepath.Glob(filepath.Join(wal, pattern)); len(files) == 0 {
			t.Errorf("no %s left in the WAL directory", pattern)
		}
	}
}

// e2eOverload: a node with a tiny bulk rate is driven far past capacity;
// bulk is shed with 429 + Retry-After and no 5xx, interactive reads are
// untouched, and /metrics/prom parses, reconciles with what was sent and
// only ever counts up.
func e2eOverload(t *testing.T, node starter) {
	p := node(t, "-n", "200", "-rate", "5", "-burst", "3", "-max-inflight", "64", "-queue", "32")
	c := p.client(t)
	sent, ok, shed, retryAfter := 0, 0, 0, ""
	send := func() int {
		code, h, err := c.do("/ingest", json.RawMessage(`{"resource":0,"tags":[1,2]}`), nil)
		must(t, err)
		sent++
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			retryAfter = h.Get("Retry-After")
		default:
			t.Fatalf("/ingest: unexpected HTTP %d", code)
		}
		return code
	}
	for i := 0; i < 80; i++ {
		send()
	}
	// Back-to-back requests against a 5/s bucket shed almost at once; the
	// loop only absorbs an unluckily timed refill.
	got429 := false
	for i := 0; i < 20 && !got429; i++ {
		got429 = send() == http.StatusTooManyRequests
	}
	if !got429 || !regexp.MustCompile(`^[1-9][0-9]*`).MatchString(retryAfter) {
		t.Fatalf("no shed request with a positive Retry-After (shed %v, Retry-After %q)", got429, retryAfter)
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("sent %d: %d admitted, %d shed", sent, ok, shed)
	}
	// Interactive traffic is untouched by the drained bulk bucket, and the
	// server never reported overload for this bulk-only storm.
	for i := 1; i <= 20; i++ {
		okAs[server.TopKResponse](t, c, fmt.Sprintf("/topk?resource=%d&k=5", i%200))
	}
	okAs[server.HealthResponse](t, c, "/healthz")

	text := okAs[string](t, c, "/metrics/prom")
	prom := parseProm(t, "tagserved_", text)
	// Every request sent was admitted, shed or timed out — none
	// unaccounted — and all 20 interactive requests were admitted.
	must(t, checkPromSum(prom, `tagserved_requests_total{route="/ingest"`, sent))
	must(t, checkPromSum(prom, `tagserved_requests_total{route="/topk",class="interactive",outcome="admitted"}`, 20))
	// The latency story is present: histogram and quantile gauges.
	requireLines(t, text, `^tagserved_request_seconds_bucket\{route="/ingest"`, `^tagserved_request_quantile_seconds\{route="/topk"`, `^tagserved_queue_depth `)
	// A little more traffic between scrapes, then no counter may decrease.
	for i := 0; i < 10; i++ {
		_, _, err := c.do("/ingest", json.RawMessage(`{"resource":1,"tags":[3]}`), nil)
		must(t, err)
	}
	must(t, checkCountersMonotone(prom, parseProm(t, "tagserved_", okAs[string](t, c, "/metrics/prom"))))
	p.stop(t)
}

// e2eCluster: three members boot from one shard map and a gateway
// scatter-gathers over them. The crowd drives the gateway as it would a
// node; merged answers carry per-node epochs, ingest accounting is exact
// cluster-wide, and with one member SIGKILLed live-subject reads answer
// partial 200s while only the dead member's subjects get 503.
func e2eCluster(t *testing.T, node, gate starter) {
	// The map hash covers vnodes and names, not URLs: the members boot on
	// port 0 under placeholder URLs, and the gateway reads a second map
	// carrying the addresses they bound.
	dir := t.TempDir()
	writeMap := func(name string, urls ...string) string {
		path := filepath.Join(dir, name)
		must(t, os.WriteFile(path, fmt.Appendf(nil, `{"vnodes": 64, "nodes": [{"name": "n0", "url": %q},
			{"name": "n1", "url": %q}, {"name": "n2", "url": %q}]}`, urls[0], urls[1], urls[2]), 0o644))
		return path
	}
	boot := writeMap("boot.json", "http://placeholder-0", "http://placeholder-1", "http://placeholder-2")
	nodes := make([]*e2eProc, 3)
	for i := range nodes {
		nodes[i] = node(t, "-n", "200", "-cluster-map", boot, "-cluster-self", fmt.Sprintf("n%d", i))
	}
	for i, n := range nodes {
		n.client(t)
		if want := fmt.Sprintf("cluster member \"n%d\" of 3 nodes", i); !strings.Contains(n.logText(), want) {
			t.Fatalf("n%d log lacks %q:\n%s", i, want, n.logText())
		}
	}
	g := gate(t, "-map", writeMap("shards.json", "http://"+nodes[0].addr, "http://"+nodes[1].addr, "http://"+nodes[2].addr))
	c := g.client(t)
	l := newLoad(t, c)
	must(t, l.ingest(4, 32, 2000, 2))
	fulfilled, err := l.tasks(4, 150, 0)
	must(t, err)
	if l.queries.Load() == 0 || l.acked.Load() != 2000 || fulfilled == 0 {
		t.Fatalf("load: %d queries, %d posts acked, %d tasks", l.queries.Load(), l.acked.Load(), fulfilled)
	}

	// Posts land only on their owner, so the merged epoch is exactly the
	// sum of the per-node epochs.
	tk := okAs[cluster.TopKResponse](t, c, "/topk?resource=0&k=5")
	var sum uint64
	for _, e := range tk.Epochs {
		sum += e
	}
	if tk.Resource != 0 || len(tk.Top) != 5 || tk.Epoch == 0 || tk.Partial || !slices.Equal(slices.Sorted(maps.Keys(tk.Epochs)), []string{"n0", "n1", "n2"}) || tk.Epoch != sum {
		t.Fatalf("/topk %+v", tk)
	}
	requireRanked(t, tk.Top, false)
	sr := okAs[cluster.SearchResponse](t, c, "/search?tags=1,2,3&k=5")
	if !slices.Equal(sr.Tags, []int32{1, 2, 3}) || len(sr.Top) > 5 || sr.Partial || len(sr.Epochs) != 3 {
		t.Fatalf("/search %+v", sr)
	}
	requireRanked(t, sr.Top, true)
	if info := okAs[cluster.InfoResponse](t, c, "/info"); !info.Ready || info.Cluster.Nodes != 3 || info.Cluster.Up != 3 || info.N == 0 {
		t.Fatalf("/info %+v", info)
	}
	// The gateway's Prometheus surface reports every backend up, in the
	// node's line grammar and route+class label sets.
	text := okAs[string](t, c, "/metrics/prom")
	if up := regexp.MustCompile(`(?m)^taggate_backend_up\{[^}]*\} 1$`).FindAllString(text, -1); len(up) != 3 {
		t.Fatalf("%d backends up in /metrics/prom, want 3", len(up))
	}
	prom := parseProm(t, "taggate_", text)
	for _, prefix := range []string{`taggate_requests_total{route="/topk",class="interactive",outcome="admitted"}`, `taggate_request_seconds_count{route="/topk",class="interactive"}`} {
		if promSum(prom, prefix) <= 0 {
			t.Errorf("/metrics/prom: %s not positive", prefix)
		}
	}

	// Every post the crowd pushed landed exactly once: the gateway total is
	// organic posts plus fulfilled tasks, and the sum of the nodes' own.
	m := okAs[cluster.MetricsResponse](t, c, "/metrics")
	if m.Partial || len(m.Epochs) != 3 || m.LeasesOutstanding != 0 || m.Posts != int(l.acked.Load())+fulfilled {
		t.Fatalf("/metrics %+v after %d posts and %d tasks", m, l.acked.Load(), fulfilled)
	}
	nodePosts := 0
	for _, n := range nodes {
		nodePosts += okAs[server.MetricsResponse](t, n.client(t), "/metrics").Posts
	}
	if m.Posts != nodePosts {
		t.Fatalf("gateway counts %d posts, its nodes %d", m.Posts, nodePosts)
	}

	// Degraded is 200 — the cluster still serves — with ready=false.
	nodes[1].kill()
	var h cluster.HealthResponse
	code := 0
	for deadline := time.Now().Add(20 * time.Second); !h.Degraded && time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		code, _, err = c.do("/healthz", nil, &h)
		must(t, err)
	}
	up := len(slices.DeleteFunc(slices.Clone(h.Nodes), func(n cluster.NodeHealth) bool { return !n.Up }))
	if code != http.StatusOK || h.Ready || !h.Degraded || up != 2 {
		t.Fatalf("/healthz HTTP %d %+v with n1 killed", code, h)
	}
	dead, live := -1, -1
	for r := 0; r < 200 && (dead < 0 || live < 0); r++ {
		if o := okAs[cluster.OwnerResponse](t, c, fmt.Sprintf("/owner?resource=%d", r)); o.Node == "n1" && dead < 0 {
			dead = r
		} else if o.Node != "n1" && live < 0 {
			live = r
		}
	}
	// Live-subject reads keep answering 200, flagged partial, with only
	// the two surviving epochs.
	ptk := okAs[cluster.TopKResponse](t, c, fmt.Sprintf("/topk?resource=%d&k=5", live))
	psr := okAs[cluster.SearchResponse](t, c, "/search?tags=1,2,3&k=5")
	pm := okAs[cluster.MetricsResponse](t, c, "/metrics")
	if !ptk.Partial || len(ptk.Top) == 0 || len(ptk.Epochs) != 2 || !psr.Partial || len(psr.Epochs) != 2 || !pm.Partial || len(pm.Epochs) != 2 {
		t.Fatalf("degraded /topk %+v, /search %+v, /metrics %+v", ptk, psr, pm)
	}
	// A subject on the dead member is the one thing that can't be
	// answered: 503 with a clear error, not a hang or a 200 lie; ingest
	// routed at it is refused retryably.
	if e := getAs[server.ErrorResponse](t, c, fmt.Sprintf("/topk?resource=%d&k=5", dead), http.StatusServiceUnavailable); !strings.Contains(e.Error, "down") {
		t.Fatalf("dead-subject /topk: error %q", e.Error)
	}
	code, _, err = c.do("/ingest", server.IngestRequest{Resource: dead, Tags: []int32{1}}, nil)
	if must(t, err); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest at a dead owner: HTTP %d", code)
	}
	g.stop(t)
}

// e2eCrashRecovery: a durable node is SIGKILLed under load and restarts
// on the same directory with every committed post; a second kill -9 of
// the quiesced node then leaves /metrics and the query answers bit for
// bit as they were.
func e2eCrashRecovery(t *testing.T, node starter) {
	wal := filepath.Join(t.TempDir(), "wal")
	restart := func() *e2eProc { return node(t, "-n", "200", "-wal", wal) }
	p, info, m := recoverAfterKill(t, node(t, "-n", "200", "-wal", wal, "-snap-every", "5000"), restart)
	// No residency budget, yet the boot went through the one restore path —
	// the snapshot indexed cold: every resource is still cold or was
	// rehydrated once, by the tail replay; nothing evicts without a budget.
	if info.Residency.Enabled || m.Evictions != 0 || m.ColdResources+int(m.Rehydrations) != info.N || info.N == 0 {
		t.Fatalf("restore path: /info %+v, /metrics %+v", info, m)
	}
	requireCrashProof(t, p, restart, 0)
}

// e2eTiering: a node with 16 of 400 resources resident evicts and
// rehydrates under mixed load, its census partitions the corpus under the
// cap, a kill -9 mid-load loses nothing, and the answers of a cold boot —
// almost all on cold subjects — survive a second kill -9 bit for bit.
func e2eTiering(t *testing.T, node starter) {
	args := []string{"-n", "400", "-wal", filepath.Join(t.TempDir(), "wal"), "-snap-every", "200", "-max-resident", "16", "-tier-interval", "100ms"}
	restart := func() *e2eProc { return node(t, args...) }
	p := restart()
	c := p.client(t)
	l := newLoad(t, c)
	must(t, l.ingest(4, 64, 3000, 2))
	// The task swarm starts once a tier pass has evicted, so that its
	// posts rehydrate.
	poll(t, 10*time.Second, "an eviction", func() bool { return okAs[server.MetricsResponse](t, c, "/metrics").Evictions > 0 })
	_, err := l.tasks(4, 150, 0)
	must(t, err)
	if m := okAs[server.MetricsResponse](t, c, "/metrics"); l.queries.Load() == 0 || m.LeasesOutstanding != 0 {
		t.Fatalf("%d queries, %d leases outstanding", l.queries.Load(), m.LeasesOutstanding)
	}
	// The 100 ms policy loop settles the census under the cap.
	info := settledCensus(t, c)
	if m := okAs[server.MetricsResponse](t, c, "/metrics"); !(m.Evictions > 0 && m.Rehydrations > 0 && m.ColdResources > 0 && m.ResidentBytes > 0) {
		t.Fatalf("/metrics %+v", m)
	}
	if r := info.Residency; !r.Enabled || r.MaxResident != 16 || r.RehydrateCount != r.Rehydrations || r.RehydrateP99 <= 0 {
		t.Fatalf("/info residency %+v", r)
	}
	// The query index reads the engine's counts in place: it has no tier
	// of its own to report.
	if raw := okAs[struct{ Residency map[string]any }](t, c, "/info"); raw.Residency["index_evictions"] != nil {
		t.Fatal("/info residency reports index_evictions")
	}
	// The Prometheus surface carries the same census.
	requireLines(t, okAs[string](t, c, "/metrics/prom"), `^tagserved_resident_resources ([0-9]|1[0-6])$`, `^tagserved_cold_resources [1-9]`,
		`^tagserved_evictions_total [1-9]`, `^tagserved_rehydrations_total [1-9]`, `^tagserved_rehydrate_p99_seconds `)

	p, _, _ = recoverAfterKill(t, p, restart)
	// The tier loop squeezes the census back under the cap; the tail
	// replay's rehydrations left the rest cold.
	if r := settledCensus(t, p.client(t)).Residency; r.Cold == 0 {
		t.Fatalf("/info residency %+v: nothing cold after a cold boot", r)
	}
	// With 16 of 400 resident nearly every subject is cold, answered off
	// the engine's frozen records.
	requireCrashProof(t, p, restart, 0, 40, 80, 120, 160, 200, 240, 280, 320, 360)
}

// settledCensus polls /info for at most a second, until 16 or fewer
// resources are resident, and returns the census that got there, which
// must partition the corpus.
func settledCensus(t *testing.T, c e2eClient) server.InfoResponse {
	t.Helper()
	var info server.InfoResponse
	poll(t, time.Second, "16 or fewer resident", func() bool {
		info = okAs[server.InfoResponse](t, c, "/info")
		return info.Residency.Resident <= 16
	})
	if r := info.Residency; r.Resident+r.Cold != info.N {
		t.Fatalf("/info residency %+v does not partition n=%d", r, info.N)
	}
	return info
}

// recoverAfterKill drives p with an unbounded batched ingest and SIGKILLs
// it while the crowd is in flight, has 20 000 or more posts acked and the
// node has written a snapshot (its snapshotter polls every 250 ms). The
// restarted node must recover through the snapshot with every
// committed post.
func recoverAfterKill(t *testing.T, p *e2eProc, restart func() *e2eProc) (*e2eProc, server.InfoResponse, server.MetricsResponse) {
	t.Helper()
	c := p.client(t)
	l := newLoad(t, c)
	done := make(chan error, 1)
	go func() { done <- l.ingest(4, 64, 1<<30, 0) }()
	poll(t, 60*time.Second, "20 000 posts acked and a snapshot", func() bool {
		select {
		case err := <-done:
			t.Fatalf("load ended before the kill at %d posts: %v", l.acked.Load(), err)
		default:
		}
		return l.acked.Load() >= 20000 && okAs[server.InfoResponse](t, c, "/info").Recovery.SnapshotsTaken > 0
	})
	p.kill()
	<-done // the crowd loses its server mid-flight, which ends it; that is the point

	p = restart()
	c = p.client(t)
	info := okAs[server.InfoResponse](t, c, "/info")
	m := okAs[server.MetricsResponse](t, c, "/metrics")
	if r := info.Recovery; !info.Ready || !r.Recovered || !r.SnapshotLoaded || r.SnapshotSeq == 0 || r.RecoveredPosts == 0 ||
		r.ReplayMillis < 0 || m.Posts == 0 || m.MeanQuality <= 0 || m.Posts != r.RecoveredPosts {
		t.Fatalf("after the crash: /info %+v, /metrics %+v", info, m)
	}
	return p, info, m
}

// requireCrashProof takes the quiesced node's metrics and its answers —
// /topk for each subject, exactly 10 entries, and /search for tags 1,2,3
// — SIGKILLs it, restarts it and demands them all back bit for bit: zero
// committed-post loss.
func requireCrashProof(t *testing.T, p *e2eProc, restart func() *e2eProc, subjects ...int) {
	t.Helper()
	capture := func(c e2eClient) (server.MetricsResponse, [][]server.TopKEntry) {
		m := okAs[server.MetricsResponse](t, c, "/metrics")
		var answers [][]server.TopKEntry
		for _, r := range subjects {
			tk := okAs[server.TopKResponse](t, c, fmt.Sprintf("/topk?resource=%d&k=10", r))
			if tk.Resource != r || len(tk.Top) != 10 {
				t.Fatalf("/topk %+v", tk)
			}
			answers = append(answers, tk.Top)
		}
		sr := okAs[server.SearchResponse](t, c, "/search?tags=1,2,3&k=10")
		if len(sr.Top) > 10 {
			t.Fatalf("/search %+v", sr)
		}
		return m, append(answers, sr.Top)
	}
	m1, a1 := capture(p.client(t))
	p.kill()
	c := restart().client(t)
	m2, a2 := capture(c)
	if m2.Posts != m1.Posts || m2.MeanQuality != m1.MeanQuality || m2.WastedPosts != m1.WastedPosts || m2.OverTagged != m1.OverTagged {
		t.Fatalf("/metrics before the kill %+v, after %+v", m1, m2)
	}
	if got := okAs[server.InfoResponse](t, c, "/info").Recovery.RecoveredPosts; got != m1.Posts {
		t.Fatalf("recovered %d posts, %d before the kill", got, m1.Posts)
	}
	if !slices.EqualFunc(a1, a2, slices.Equal[[]server.TopKEntry]) {
		t.Fatalf("answers moved across the crash: %v → %v", a1, a2)
	}
}

// poll calls cond every 5 ms until it holds, for at most limit.
func poll(t *testing.T, limit time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(limit); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no %s within %v", what, limit)
		}
	}
}

// requireRanked demands scores in descending order, each positive or,
// when positive is false, in [0, 1].
func requireRanked(t *testing.T, top []server.TopKEntry, positive bool) {
	t.Helper()
	for k, e := range top {
		if (positive && e.Score <= 0) || (!positive && (e.Score < 0 || e.Score > 1)) || (k > 0 && e.Score > top[k-1].Score) {
			t.Fatalf("ranking %v: entry %d out of order or range", top, k)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// e2eProc is one child process. Its stderr is kept, and the address it
// prints once bound ("tagserved: listening on …", "taggate: … on …") is
// read from it.
type e2eProc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has exited and been waited for
	mu   sync.Mutex
	log  bytes.Buffer
}

var boundRE = regexp.MustCompile(` on (127\.0\.0\.1:[0-9]+)[ \n]`)

func (p *e2eProc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.Write(b)
}

func (p *e2eProc) logText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// startProc starts bin and returns once it has bound its listener; the
// process is killed and waited for when the test ends.
func startProc(t *testing.T, bin string, args ...string) *e2eProc {
	t.Helper()
	p := &e2eProc{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stderr = p
	must(t, p.cmd.Start())
	go func() {
		p.cmd.Wait() // exits non-zero when killed
		close(p.done)
	}()
	t.Cleanup(p.kill)
	poll(t, 30*time.Second, bin+" bound", func() bool {
		select {
		case <-p.done:
			t.Fatalf("%s exited before binding:\n%s", bin, p.logText())
		default:
		}
		m := boundRE.FindStringSubmatch(p.logText())
		if m != nil {
			p.addr = m[1]
		}
		return m != nil
	})
	return p
}

// kill is kill -9: it returns once the process is gone, so its port is
// closed and its directory free.
func (p *e2eProc) kill() {
	p.cmd.Process.Kill() // fails only when the process has already exited
	<-p.done
}

// stop is a graceful SIGTERM: the process must exit within 10 s and log
// that it stopped.
func (p *e2eProc) stop(t *testing.T) {
	t.Helper()
	must(t, p.cmd.Process.Signal(syscall.SIGTERM))
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("no exit 10 s after SIGTERM:\n%s", p.logText())
	}
	if !strings.Contains(p.logText(), "stopped") {
		t.Fatalf("log lacks \"stopped\":\n%s", p.logText())
	}
}

// client waits until the process answers /healthz with 200 and ready,
// and returns a client for it.
func (p *e2eProc) client(t *testing.T) e2eClient {
	t.Helper()
	c := e2eClient("http://" + p.addr)
	poll(t, 30*time.Second, p.addr+" ready", func() bool {
		var h server.HealthResponse
		code, _, err := c.do("/healthz", nil, &h)
		return err == nil && code == http.StatusOK && h.Ready
	})
	return c
}

// e2eClient is a base URL.
type e2eClient string

var e2eHTTP = &http.Client{Timeout: 30 * time.Second}

// do sends one request, a POST of body as JSON when body is non-nil, and
// reads the answer into out: verbatim into a *string, as JSON into
// anything else but nil.
func (c e2eClient) do(path string, body, out any) (int, http.Header, error) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = e2eHTTP.Get(string(c) + path)
	} else {
		var enc []byte
		if enc, err = json.Marshal(body); err != nil {
			return 0, nil, err
		}
		resp, err = e2eHTTP.Post(string(c)+path, "application/json", bytes.NewReader(enc))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if s, ok := out.(*string); ok {
		*s = string(data)
	} else if err == nil && out != nil {
		if err = json.Unmarshal(data, out); err != nil {
			err = fmt.Errorf("%s: HTTP %d: %w: %s", path, resp.StatusCode, err, data)
		}
	}
	return resp.StatusCode, resp.Header, err
}

// getAs GETs path, requires status and returns the answer read as a T.
func getAs[T any](t *testing.T, c e2eClient, path string, status int) T {
	t.Helper()
	var v T
	code, _, err := c.do(path, nil, &v)
	if must(t, err); code != status {
		t.Fatalf("%s: HTTP %d, want %d", path, code, status)
	}
	return v
}

// okAs is getAs for a 200.
func okAs[T any](t *testing.T, c e2eClient, path string) T {
	t.Helper()
	return getAs[T](t, c, path, http.StatusOK)
}

// e2eLoad is the crowd: batched /ingest over striped resources with
// /topk and /search readers alongside, then an /allocate → /complete |
// /expire swarm. Any answer but 200 is an error.
type e2eLoad struct {
	c              e2eClient
	n, universe    int
	acked, queries atomic.Int64
}

func newLoad(t *testing.T, c e2eClient) *e2eLoad {
	t.Helper()
	info := okAs[server.InfoResponse](t, c, "/info")
	if info.N == 0 || info.TagUniverse == 0 {
		t.Fatalf("/info advertises n=%d |T|=%d", info.N, info.TagUniverse)
	}
	return &e2eLoad{c: c, n: info.N, universe: info.TagUniverse}
}

// randomPost is one to three tags over the advertised universe.
func (l *e2eLoad) randomPost(rng *rand.Rand) []int32 {
	ts := make([]int32, 1+rng.Intn(3))
	for k := range ts {
		ts[k] = int32(rng.Intn(l.universe))
	}
	return ts
}

// call is do that turns any answer but 200 into an error.
func (l *e2eLoad) call(path string, body, out any) error {
	code, _, err := l.c.do(path, body, out)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%s: HTTP %d", path, code)
	}
	return err
}

// ingest acks posts posts in batches from workers goroutines, each over
// its own stripe of resources, while readers goroutines alternate /topk
// and /search, each at least once, until the posts are in. Each goroutine
// ends at its first error; ingest returns one of them.
func (l *e2eLoad) ingest(workers, batch, posts, readers int) error {
	errs := make(chan error, workers+readers) // one send per goroutine at most
	ingested := make(chan struct{})
	var claimed atomic.Int64
	var writers, reading sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := w % l.n; ; {
				from := int(claimed.Add(int64(batch))) - batch
				if from >= posts {
					return
				}
				events := make([]server.IngestEvent, min(batch, posts-from))
				for k := range events {
					events[k] = server.IngestEvent{Resource: r, Tags: l.randomPost(rng)}
					r = (r + workers) % l.n
				}
				if err := l.call("/ingest", server.IngestRequest{Events: events}, nil); err != nil {
					errs <- err
					return
				}
				l.acked.Add(int64(len(events)))
			}
		}(w)
	}
	for w := 0; w < readers; w++ {
		reading.Add(1)
		go func(w int) {
			defer reading.Done()
			rng := rand.New(rand.NewSource(5000 + int64(w)))
			for q := 0; ; q++ {
				path := fmt.Sprintf("/topk?resource=%d&k=10", rng.Intn(l.n))
				if u := l.universe; q%2 == 1 {
					path = fmt.Sprintf("/search?tags=%d,%d,%d&k=10", rng.Intn(u), rng.Intn(u), rng.Intn(u))
				}
				if err := l.call(path, nil, nil); err != nil {
					errs <- err
					return
				}
				l.queries.Add(1)
				select {
				case <-ingested:
					return
				default:
				}
			}
		}(w)
	}
	writers.Wait()
	close(ingested)
	reading.Wait()
	close(errs)
	return <-errs
}

// tasks completes up to budget incentive tasks from workers goroutines,
// abandoning a share expireFrac of the leases through /expire, whose
// slots go back; it ends early when the server allocates nothing.
func (l *e2eLoad) tasks(workers, budget int, expireFrac float64) (fulfilled int, err error) {
	errs := make(chan error, workers) // one send per goroutine at most
	var claimed, done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1000 + int64(w)))
			for claimed.Add(1) <= int64(budget) {
				var al server.AllocateResponse
				err := l.call("/allocate", server.AllocateRequest{}, &al)
				switch {
				case err == nil && !al.OK:
					return // budget spent or nothing allocatable
				case err == nil && rng.Float64() < expireFrac:
					if err = l.call("/expire", server.ExpireRequest{Lease: al.Lease}, nil); err == nil {
						claimed.Add(-1)
						continue
					}
				case err == nil:
					if err = l.call("/complete", server.CompleteRequest{Lease: al.Lease, Tags: l.randomPost(rng)}, nil); err == nil {
						done.Add(1)
						continue
					}
				}
				errs <- err
				return
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return int(done.Load()), <-errs
}
