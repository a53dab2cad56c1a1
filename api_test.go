package incentivetag

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"incentivetag/internal/tagstore"
)

// sharedDS memoizes a small corpus across facade tests.
var sharedDS *Dataset

func testDS(t *testing.T) *Dataset {
	t.Helper()
	if sharedDS == nil {
		ds, err := Generate(DefaultConfig(120, 5))
		if err != nil {
			t.Fatal(err)
		}
		sharedDS = ds
	}
	return sharedDS
}

func TestGenerateAndValidate(t *testing.T) {
	ds := testDS(t)
	if err := Validate(ds); err != nil {
		t.Fatal(err)
	}
	if err := Validate(nil); err == nil {
		t.Error("nil dataset accepted")
	}
	st := ds.Stats()
	if st.NResources != 125 { // 120 + 5 case-study resources
		t.Errorf("N = %d", st.NResources)
	}
}

func TestPostAndVocabFacade(t *testing.T) {
	v := NewVocab()
	p, err := ParsePost(v, "maps", "navigation")
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Errorf("post = %v", p)
	}
	p2, err := NewPost(p[0], p[1], p[0])
	if err != nil || len(p2) != 2 {
		t.Errorf("NewPost dedup failed: %v %v", p2, err)
	}
}

func TestTrackerAndStablePointFacade(t *testing.T) {
	ds := testDS(t)
	r := &ds.Resources[0]
	tr := NewTracker(20)
	for _, p := range r.Seq {
		tr.Observe(p)
	}
	if _, ok := tr.MA(); !ok {
		t.Fatal("MA undefined after full sequence")
	}
	res := StablePoint(r.Seq, ds.Cfg.PrepOmega, ds.Cfg.PrepTau)
	if !res.Found || res.K != r.StableK {
		t.Errorf("StablePoint = %d/%v, dataset says %d", res.K, res.Found, r.StableK)
	}
	ref := NewReference(r.StableRFD)
	if q := ref.Of(tr.Counts()); q < 0.9 {
		t.Errorf("full-sequence quality %g, want high", q)
	}
	if got := SetQuality([]float64{0.5, 1.0}); got != 0.75 {
		t.Errorf("SetQuality = %g", got)
	}
}

func TestSimulationRunAndOptimal(t *testing.T) {
	ds := testDS(t)
	s := NewSimulation(ds, Options{Seed: 2})
	if s.MaxBudget() <= 0 {
		t.Fatal("MaxBudget not positive")
	}
	res, err := s.Run("FP", 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spent != 300 || res.FinalQuality <= res.InitialQuality {
		t.Errorf("FP run: spent %d, quality %g -> %g", res.Spent, res.InitialQuality, res.FinalQuality)
	}
	total := 0
	for _, x := range res.Assignment {
		total += x
	}
	if total != 300 {
		t.Errorf("Σx = %d", total)
	}

	// Optimal dominates every strategy.
	_, optQ, err := s.SolveOptimal(300)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range StrategyNames() {
		if name == "DP" {
			continue
		}
		r, err := s.Run(name, 300)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.FinalQuality > optQ+1e-9 {
			t.Errorf("%s beat DP: %.6f > %.6f", name, r.FinalQuality, optQ)
		}
	}

	if _, err := s.Run("nope", 10); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestRunCheckpointsFacade(t *testing.T) {
	ds := testDS(t)
	s := NewSimulation(ds, Options{Seed: 3})
	res, err := s.RunCheckpoints("RR", 200, []int{0, 100, 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != 3 {
		t.Fatalf("got %d checkpoints", len(res.Checkpoints))
	}
}

func TestSnapshotsAndSimilarity(t *testing.T) {
	ds := testDS(t)
	s := NewSimulation(ds, Options{Seed: 4})
	initial := s.SnapshotInitial()
	full := s.SnapshotFull()
	after, err := s.SnapshotAfter("FP", 300)
	if err != nil {
		t.Fatal(err)
	}
	if initial.N() != ds.N() || full.N() != ds.N() || after.N() != ds.N() {
		t.Fatal("snapshot sizes wrong")
	}
	subj, ok := ds.ByName("www.myphysicslab.example")
	if !ok {
		t.Fatal("case-study resource missing")
	}
	top := full.TopK(subj, 5)
	if len(top) != 5 {
		t.Fatalf("TopK returned %d", len(top))
	}
	for _, bad := range []int{-1, full.N()} {
		if got := full.TopK(bad, 5); got != nil {
			t.Errorf("TopK(%d, 5) = %v, want nil", bad, got)
		}
	}

	pairs := SamplePairs(ds.N(), 2000, 9)
	truth := GroundTruthSimilarities(ds, pairs)
	tauInitial, err := RankingAccuracy(initial.PairSimilarities(pairs), truth)
	if err != nil {
		t.Fatal(err)
	}
	tauFull, err := RankingAccuracy(full.PairSimilarities(pairs), truth)
	if err != nil {
		t.Fatal(err)
	}
	if !(tauFull > tauInitial) {
		t.Errorf("full-data accuracy %.4f not above initial %.4f", tauFull, tauInitial)
	}
}

// The offline index and the serving index rank alike: once a Service
// has ingested every recorded post, its live TopK equals
// SnapshotFull().TopK bit for bit.
func TestSnapshotFullMatchesServiceTopK(t *testing.T) {
	ds := testDS(t)
	full := NewSimulation(ds, Options{}).SnapshotFull()
	svc, err := NewService(ds, ServiceOptions{Strategy: "FP"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := range ds.Resources {
		r := &ds.Resources[i]
		if rest := r.Seq[r.Initial:]; len(rest) > 0 {
			if err := svc.IngestBatch(i, rest); err != nil {
				t.Fatal(err)
			}
		}
	}
	for subject := 0; subject < full.N(); subject++ {
		got, _, err := svc.TopK(subject, 10)
		if err != nil {
			t.Fatal(err)
		}
		assertScoredEqual(t, "subject "+strconv.Itoa(subject), got, full.TopK(subject, 10))
	}
}

// The Service facade: concurrent ingest, incentive allocation, O(1)
// metric reads, and the durable WAL path.
func TestServiceFacade(t *testing.T) {
	ds := testDS(t)
	walDir := t.TempDir()
	svc, err := NewService(ds, ServiceOptions{Strategy: "FP", WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.N() != ds.N() {
		t.Fatalf("service N = %d, want %d", svc.N(), ds.N())
	}
	before := svc.Snapshot()

	// Concurrent organic ingest of recorded future posts.
	const workers = 4
	var wg sync.WaitGroup
	var ingested int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < ds.N(); i += workers {
				r := &ds.Resources[i]
				for k := r.Initial; k < r.Initial+3 && k < len(r.Seq); k++ {
					if err := svc.Ingest(i, r.Seq[k]); err != nil {
						t.Error(err)
						return
					}
					atomic.AddInt64(&ingested, 1)
				}
			}
		}(w)
	}
	wg.Wait()

	m := svc.Snapshot()
	if int64(m.Posts) != ingested {
		t.Fatalf("snapshot posts %d, ingested %d", m.Posts, ingested)
	}
	if m.Posts <= before.Posts {
		t.Fatal("ingest did not advance metrics")
	}
	if q := svc.Quality(); q <= 0 || q > 1 {
		t.Fatalf("quality out of range: %g", q)
	}

	// Incentive loop: every lease must name a real resource and Fulfill
	// must feed the strategy without errors.
	for b := 0; b < 25; b++ {
		i, lease, ok := svc.Lease(25 - b)
		if !ok {
			t.Fatal("allocation exhausted unexpectedly")
		}
		r := &ds.Resources[i]
		k := svc.Count(i)
		p := r.Seq[len(r.Seq)-1]
		if k < len(r.Seq) {
			p = r.Seq[k]
		}
		if err := svc.Fulfill(lease, p); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.Snapshot().Posts; int64(got) != ingested+25 {
		t.Fatalf("posts after allocation = %d, want %d", got, ingested+25)
	}

	// The WAL recorded every live post (organic + allocated): reopen
	// the log and count.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := tagstore.Open(walDir, tagstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if wal.Records() != ingested+25 {
		t.Fatalf("wal has %d records, want %d", wal.Records(), ingested+25)
	}

	if _, err := NewService(ds, ServiceOptions{Strategy: "nope"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := NewService(ds, ServiceOptions{Budget: -1}); err == nil {
		t.Error("negative budget accepted")
	}
	// FC models organic traffic, not incentive allocation; the service
	// must refuse it rather than let the allocator starve.
	if _, err := NewService(ds, ServiceOptions{Strategy: "FC"}); err == nil {
		t.Error("FC accepted as a live allocation strategy")
	}
}

func TestStatsFacade(t *testing.T) {
	if r, err := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); err != nil || r < 0.999 {
		t.Errorf("Pearson = %g, %v", r, err)
	}
	if tau, err := KendallTau([]float64{1, 2, 3}, []float64{3, 2, 1}); err != nil || tau > -0.999 {
		t.Errorf("KendallTau = %g, %v", tau, err)
	}
}

// SetCosts between two runs of one Simulation takes effect on the next
// run exactly as on a Simulation that never ran before it (the primed
// state a Simulation caches stores no costs), and nil restores unit costs.
func TestSetCostsBetweenRuns(t *testing.T) {
	ds := testDS(t)
	costs := make([]int, ds.N())
	for i := range costs {
		costs[i] = 1 + i%3
	}
	same := func(what string, got, want *Result) {
		t.Helper()
		if got.Spent != want.Spent || math.Float64bits(got.FinalQuality) != math.Float64bits(want.FinalQuality) {
			t.Fatalf("%s: spent %d quality %.17g, want %d %.17g", what, got.Spent, got.FinalQuality, want.Spent, want.FinalQuality)
		}
		for i := range want.Assignment {
			if got.Assignment[i] != want.Assignment[i] {
				t.Fatalf("%s: assignment diverges at resource %d", what, i)
			}
		}
	}
	s := NewSimulation(ds, Options{Seed: 9})
	unit, err := s.Run("RR", 90)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCosts(costs); err != nil {
		t.Fatal(err)
	}
	weighted, err := s.Run("RR", 90)
	if err != nil {
		t.Fatal(err)
	}
	spent := 0
	for i, x := range weighted.Assignment {
		spent += x * costs[i]
	}
	if weighted.Spent != spent || spent <= 87 || spent > 90 {
		t.Fatalf("weighted run spent %d, Σ x·cost = %d of budget 90", weighted.Spent, spent)
	}
	fresh := NewSimulation(ds, Options{Seed: 9})
	if err := fresh.SetCosts(costs); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run("RR", 90)
	if err != nil {
		t.Fatal(err)
	}
	same("costs set after a run", weighted, want)
	if err := s.SetCosts(nil); err != nil {
		t.Fatal(err)
	}
	again, err := s.Run("RR", 90)
	if err != nil {
		t.Fatal(err)
	}
	same("unit costs restored", again, unit)
	if unit.Spent != 90 {
		t.Fatalf("unit-cost run spent %d of 90", unit.Spent)
	}
}

func TestSaveLoadFacade(t *testing.T) {
	ds := testDS(t)
	dir := t.TempDir()
	if err := SaveDataset(ds, dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != ds.N() {
		t.Errorf("reload N = %d", got.N())
	}
}

func TestExperimentFacade(t *testing.T) {
	if len(Experiments()) < 17 {
		t.Errorf("only %d experiments registered", len(Experiments()))
	}
	sc := QuickScale()
	if sc.N <= 0 || PaperScale().N != 5000 {
		t.Error("scales wrong")
	}
	var buf bytes.Buffer
	tiny := TinyScale()
	if err := RunExperiment("fig5", tiny, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Error("experiment output missing title")
	}
	if err := RunExperiment("nope", tiny, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestStrategyNamesFacade(t *testing.T) {
	names := StrategyNames()
	want := map[string]bool{"DP": true, "FC": true, "RR": true, "FP": true, "MU": true, "FP-MU": true}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected strategy %q", n)
		}
	}
}

// Batched ingest through the Service facade must agree with per-post
// ingest: same final metrics, same WAL record count, batches safe from
// many goroutines.
func TestServiceBatchIngest(t *testing.T) {
	ds := testDS(t)
	walDir := t.TempDir()
	batched, err := NewService(ds, ServiceOptions{Strategy: "FP", WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	sequential, err := NewService(ds, ServiceOptions{Strategy: "FP"})
	if err != nil {
		t.Fatal(err)
	}
	defer sequential.Close()

	const perResource = 4
	var events []PostEvent
	for i := 0; i < ds.N(); i++ {
		r := &ds.Resources[i]
		for k := r.Initial; k < r.Initial+perResource && k < len(r.Seq); k++ {
			events = append(events, PostEvent{Resource: i, Post: r.Seq[k]})
		}
	}
	for _, ev := range events {
		if err := sequential.Ingest(ev.Resource, ev.Post); err != nil {
			t.Fatal(err)
		}
	}
	// Workers own resource stripes, so per-resource order is preserved.
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []PostEvent
			for _, ev := range events {
				if ev.Resource%workers != w {
					continue
				}
				buf = append(buf, ev)
				if len(buf) == 50 {
					if err := batched.IngestMany(buf); err != nil {
						t.Error(err)
					}
					buf = buf[:0]
				}
			}
			if len(buf) > 0 {
				if err := batched.IngestMany(buf); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()

	mb, ms := batched.Snapshot(), sequential.Snapshot()
	if mb.Posts != ms.Posts || mb.Spent != ms.Spent || mb.OverTagged != ms.OverTagged ||
		mb.UnderTagged != ms.UnderTagged || mb.WastedPosts != ms.WastedPosts {
		t.Fatalf("batched metrics diverge:\n%+v\n%+v", mb, ms)
	}
	if diff := mb.MeanQuality - ms.MeanQuality; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean quality %.17g vs %.17g", mb.MeanQuality, ms.MeanQuality)
	}

	// One IngestBatch on a single resource.
	i := 0
	r := &ds.Resources[i]
	var posts []Post
	for k := batched.Count(i); k < len(r.Seq) && len(posts) < 3; k++ {
		posts = append(posts, r.Seq[k])
	}
	if len(posts) > 0 {
		before := batched.Count(i)
		if err := batched.IngestBatch(i, posts); err != nil {
			t.Fatal(err)
		}
		if batched.Count(i) != before+len(posts) {
			t.Fatal("IngestBatch count wrong")
		}
	}

	// The WAL holds every batched record.
	want := int64(len(events) + len(posts))
	if err := batched.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := tagstore.Open(walDir, tagstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if wal.Records() != want {
		t.Fatalf("wal has %d records, want %d", wal.Records(), want)
	}
}

// The lease facade: concurrent workers hold outstanding tasks, expiry
// re-arms, and settled leases are dead forever.
func TestServiceLeaseFacade(t *testing.T) {
	ds := testDS(t)
	svc, err := NewService(ds, ServiceOptions{Strategy: "FP-MU"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Hold several leases at once: all resources distinct.
	type held struct {
		resource int
		lease    LeaseID
	}
	var leases []held
	seen := map[int]bool{}
	for k := 0; k < 8; k++ {
		i, lease, ok := svc.Lease(1 << 20)
		if !ok {
			t.Fatalf("lease %d refused", k)
		}
		if seen[i] {
			t.Fatalf("resource %d leased twice concurrently", i)
		}
		seen[i] = true
		leases = append(leases, held{i, lease})
	}
	if got := svc.AllocStats().Outstanding; got != 8 {
		t.Fatalf("outstanding = %d, want 8", got)
	}

	// Expire one, fulfill the rest from the recorded replay.
	if err := svc.Expire(leases[0].lease); err != nil {
		t.Fatal(err)
	}
	if err := svc.Expire(leases[0].lease); err == nil {
		t.Fatal("double expire accepted")
	}
	posts := svc.Snapshot().Posts
	for _, h := range leases[1:] {
		r := &ds.Resources[h.resource]
		p := r.Seq[len(r.Seq)-1]
		if k := svc.Count(h.resource); k < len(r.Seq) {
			p = r.Seq[k]
		}
		if err := svc.Fulfill(h.lease, p); err != nil {
			t.Fatal(err)
		}
		if err := svc.Fulfill(h.lease, p); err == nil {
			t.Fatal("double fulfill accepted")
		}
	}
	if got := svc.Snapshot().Posts; got != posts+7 {
		t.Fatalf("posts = %d, want %d", got, posts+7)
	}
	st := svc.AllocStats()
	if st.Issued != 8 || st.Outstanding != 0 || st.Fulfilled != 7 || st.Expired != 1 {
		t.Fatalf("alloc stats = %+v", st)
	}
}
