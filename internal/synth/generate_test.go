package synth

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"incentivetag/internal/sparse"
	"incentivetag/internal/stability"
	"incentivetag/internal/tags"
	"incentivetag/internal/tagstore"
)

func smallConfig(n int, seed int64) Config {
	cfg := DefaultConfig(n, seed)
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(40, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(40, 5))
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() {
		t.Fatal("sizes differ")
	}
	for i := range a.Resources {
		ra, rb := &a.Resources[i], &b.Resources[i]
		if ra.Name != rb.Name || ra.Initial != rb.Initial || ra.StableK != rb.StableK ||
			len(ra.Seq) != len(rb.Seq) {
			t.Fatalf("resource %d differs between identical seeds", i)
		}
		for k := range ra.Seq {
			if !ra.Seq[k].Equal(rb.Seq[k]) {
				t.Fatalf("resource %d post %d differs", i, k)
			}
		}
	}
	// Different seed ⇒ different data (with overwhelming probability).
	c, err := Generate(smallConfig(40, 6))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Resources {
		if len(a.Resources[i].Seq) != len(c.Resources[i].Seq) {
			same = false
			break
		}
	}
	if same && a.Resources[0].Seq[0].Equal(c.Resources[0].Seq[0]) &&
		a.Resources[1].Seq[0].Equal(c.Resources[1].Seq[0]) {
		t.Error("different seeds produced identical leading posts")
	}
}

// Every resource's recorded StableK must be the true stable point of its
// sequence under the preparation parameters.
func TestStablePointsVerify(t *testing.T) {
	ds, err := Generate(smallConfig(25, 9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Resources {
		r := &ds.Resources[i]
		res := stability.StablePoint(r.Seq, ds.Cfg.PrepOmega, ds.Cfg.PrepTau)
		if !res.Found {
			t.Fatalf("resource %d: recorded sequence does not stabilize", i)
		}
		if res.K != r.StableK {
			t.Fatalf("resource %d: stable point %d recorded, scan found %d", i, r.StableK, res.K)
		}
		// Stable rfd is F(k*).
		want := sparse.FromSeq(r.Seq, r.StableK)
		if r.StableRFD.Posts() != want.Posts() || math.Abs(r.StableRFD.Norm2()-want.Norm2()) > 1e-9 {
			t.Fatalf("resource %d: stable rfd mismatch", i)
		}
		if r.Initial < 1 || r.Initial > len(r.Seq) {
			t.Fatalf("resource %d: initial %d outside [1,%d]", i, r.Initial, len(r.Seq))
		}
		if len(r.Seq) < r.StableK {
			t.Fatalf("resource %d: sequence shorter than its stable point", i)
		}
	}
}

func TestPostsAreValid(t *testing.T) {
	ds, err := Generate(smallConfig(15, 13))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Resources {
		if idx, err := ds.Resources[i].Seq.Validate(); err != nil {
			t.Fatalf("resource %d post %d invalid: %v", i, idx, err)
		}
	}
}

func TestDriftResources(t *testing.T) {
	ds, err := Generate(smallConfig(30, 21))
	if err != nil {
		t.Fatal(err)
	}
	id, ok := ds.ByName("www.myphysicslab.example")
	if !ok {
		t.Fatal("drift resource missing")
	}
	r := &ds.Resources[id]
	if r.Drift == nil || r.Drift.EarlyLeaf != "Java" {
		t.Fatal("drift spec not attached")
	}
	if r.Initial != r.Drift.InitialPosts {
		t.Errorf("initial %d, want %d", r.Initial, r.Drift.InitialPosts)
	}
	if ds.Tax.Name(r.Leaf) != "Physics" {
		t.Errorf("leaf %s, want Physics", ds.Tax.Name(r.Leaf))
	}

	// Early posts must be dominated by Java-flavored tags, later ones by
	// physics-flavored ones. Compare share of "java*"-named tags.
	javaShare := func(from, to int) float64 {
		java, total := 0, 0
		for k := from; k < to; k++ {
			for _, tg := range r.Seq[k] {
				name := ds.Vocab.Name(tg)
				if len(name) >= 4 && name[:4] == "java" {
					java++
				}
				total++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(java) / float64(total)
	}
	early := javaShare(0, r.Drift.EarlyPosts)
	late := javaShare(r.Drift.EarlyPosts, len(r.Seq))
	if early < 0.3 {
		t.Errorf("early java share %.2f, want dominant", early)
	}
	if late > 0.1 {
		t.Errorf("late java share %.2f, want near zero", late)
	}
}

func TestUnknownDriftLeafFails(t *testing.T) {
	cfg := smallConfig(5, 1)
	cfg.Drift = []DriftSpec{{Name: "x", Leaf: "NoSuchLeaf"}}
	if _, err := Generate(cfg); err == nil {
		t.Error("unknown drift leaf accepted")
	}
}

func TestTopTagTrajectories(t *testing.T) {
	ds, err := Generate(smallConfig(10, 31))
	if err != nil {
		t.Fatal(err)
	}
	trajs := ds.TopTagTrajectories(0, 5, 60)
	if len(trajs) != 5 {
		t.Fatalf("got %d trajectories", len(trajs))
	}
	for _, tr := range trajs {
		if len(tr.Series) != 60 {
			t.Fatalf("series length %d", len(tr.Series))
		}
		for _, f := range tr.Series {
			if f < 0 || f > 1 {
				t.Fatalf("relative frequency %g out of range", f)
			}
		}
	}
	// Trajectories are ordered by final frequency (descending).
	last := math.Inf(1)
	for _, tr := range trajs {
		f := tr.Series[59]
		if f > last+1e-12 {
			t.Fatal("trajectories not sorted by final frequency")
		}
		last = f
	}
}

func TestFullCrawlLengths(t *testing.T) {
	ls := FullCrawlLengths(50000, 1, 2.0, 20000)
	if len(ls) != 50000 {
		t.Fatal("wrong count")
	}
	ones, big := 0, 0
	for _, l := range ls {
		if l < 1 || l > 20000 {
			t.Fatalf("length %d out of bounds", l)
		}
		if l == 1 {
			ones++
		}
		if l >= 100 {
			big++
		}
	}
	// Heavy tail: single-post resources dominate, but a visible tail
	// exists past 100 posts.
	if ones < 20000 {
		t.Errorf("only %d single-post resources", ones)
	}
	if big == 0 {
		t.Error("no tail beyond 100 posts")
	}
	// Deterministic.
	ls2 := FullCrawlLengths(50000, 1, 2.0, 20000)
	for i := range ls {
		if ls[i] != ls2[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds, err := Generate(smallConfig(12, 17))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != ds.N() {
		t.Fatalf("N = %d, want %d", got.N(), ds.N())
	}
	for i := range ds.Resources {
		a, b := &ds.Resources[i], &got.Resources[i]
		if a.Name != b.Name || a.Initial != b.Initial || a.StableK != b.StableK || a.Leaf != b.Leaf {
			t.Fatalf("resource %d metadata differs", i)
		}
		if len(a.Seq) != len(b.Seq) {
			t.Fatalf("resource %d sequence length differs", i)
		}
		for k := range a.Seq {
			if !a.Seq[k].Equal(b.Seq[k]) {
				t.Fatalf("resource %d post %d differs", i, k)
			}
		}
		if math.Abs(a.StableRFD.Norm2()-b.StableRFD.Norm2()) > 1e-9 {
			t.Fatalf("resource %d stable rfd differs", i)
		}
	}
	// Vocabulary preserved: names resolve identically.
	if ds.Vocab.Size() != got.Vocab.Size() {
		t.Errorf("vocab size %d vs %d", got.Vocab.Size(), ds.Vocab.Size())
	}
	// ByName map rebuilt.
	if _, ok := got.ByName(ds.Resources[3].Name); !ok {
		t.Error("ByName lost after reload")
	}
}

// A post logged for a resource the metadata does not list is a corrupt
// corpus, not something Load may drop.
func TestLoadRefusesStrayRecord(t *testing.T) {
	dir := t.TempDir()
	ds, err := Generate(smallConfig(25, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	stray := uint32(ds.N()) // the first id past the listed resources
	store, err := tagstore.Open(filepath.Join(dir, "posts"), tagstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(stray, tags.MustPost(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Load(dir)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("resource %d", stray)) {
		t.Fatalf("Load with a post for unlisted resource %d: err = %v", stray, err)
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(t.TempDir() + "/nope"); err == nil {
		t.Error("missing dir accepted")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	cfg := Config{NResources: 5, Seed: 1}
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Cfg.PrepOmega < 2 || ds.Cfg.PrepTau <= 0 {
		t.Error("normalize did not fill preparation params")
	}
	if ds.Cfg.MaxPosts <= 0 || len(ds.Cfg.PostLenWeights) == 0 {
		t.Error("normalize did not fill generation params")
	}
}

// TestGenerateIndependentOfWorkers checks that one worker and four
// produce the same dataset field for field, vocabulary included, and
// the same error when a resource fails to stabilize.
func TestGenerateIndependentOfWorkers(t *testing.T) {
	drift := DefaultConfig(40, 3)
	spam := DefaultConfig(40, 4)
	spam.SpamRate = 0.2
	noisy := DefaultConfig(40, 5)
	noisy.NoiseRate = 0.3
	unstable := DefaultConfig(40, 6)
	unstable.MaxPosts = 150 // resource 3 is the first of several to fail
	for name, cfg := range map[string]Config{"drift": drift, "spam": spam, "noisy": noisy, "unstable": unstable} {
		t.Run(name, func(t *testing.T) {
			one, err1 := generate(cfg, 1)
			four, err4 := generate(cfg, 4)
			if name == "unstable" {
				// The sequential generator stops at resource 3.
				if err1 == nil || err4 == nil || err1.Error() != err4.Error() || !strings.Contains(err1.Error(), "resource 3 ") {
					t.Fatalf("1 worker: %v; 4 workers: %v; want resource 3's error from both", err1, err4)
				}
				return
			}
			if err1 != nil || err4 != nil {
				t.Fatal(err1, err4)
			}
			if !reflect.DeepEqual(one.Cfg, four.Cfg) || !reflect.DeepEqual(one.Tax, four.Tax) || !reflect.DeepEqual(one.byName, four.byName) {
				t.Fatal("config, taxonomy or names differ")
			}
			if !slices.Equal(one.Vocab.Names(), four.Vocab.Names()) {
				t.Fatal("vocabularies differ")
			}
			if len(one.Resources) != len(four.Resources) {
				t.Fatalf("%d resources against %d", len(one.Resources), len(four.Resources))
			}
			for i := range one.Resources {
				if !reflect.DeepEqual(one.Resources[i], four.Resources[i]) {
					t.Fatalf("resource %d differs", i)
				}
			}
		})
	}
}

// BenchmarkGenerate times the paper-scale generator at n = 2 000 on
// GOMAXPROCS workers (set with -cpu).
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(DefaultConfig(2000, 42)); err != nil {
			b.Fatal(err)
		}
	}
}
