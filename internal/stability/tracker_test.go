package stability

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

func randSeq(seed int64, n, dim int) tags.Seq {
	rng := rand.New(rand.NewSource(seed))
	seq := make(tags.Seq, n)
	for i := range seq {
		k := 1 + rng.Intn(3)
		ts := make([]tags.Tag, k)
		for j := range ts {
			ts[j] = tags.Tag(rng.Intn(dim))
		}
		p, err := tags.NewPost(ts...)
		if err != nil {
			panic(err)
		}
		seq[i] = p
	}
	return seq
}

func TestNewTrackerRejectsSmallOmega(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("omega < 2 accepted")
		}
	}()
	NewTracker(1)
}

// The incremental MA must match the naive recomputation (Definition 7)
// at every k — this validates both the ring buffer recurrence of
// Appendix C.4 and the sparse adjacent-similarity formula.
func TestMAMatchesNaive(t *testing.T) {
	const dim = 12
	seq := randSeq(3, 80, dim)
	for _, omega := range []int{2, 3, 5, 8} {
		tr := NewTracker(omega)
		for k := 1; k <= len(seq); k++ {
			tr.Observe(seq[k-1])
			got, gotOK := tr.MA()
			want, wantOK := NaiveMA(seq, k, omega, dim)
			if gotOK != wantOK {
				t.Fatalf("ω=%d k=%d: definedness %v vs %v", omega, k, gotOK, wantOK)
			}
			if gotOK && math.Abs(got-want) > 1e-9 {
				t.Fatalf("ω=%d k=%d: MA %.12f vs naive %.12f", omega, k, got, want)
			}
		}
	}
}

// MA is undefined while k < ω (Definition 7).
func TestMAUndefinedBelowOmega(t *testing.T) {
	seq := randSeq(4, 10, 6)
	tr := NewTracker(5)
	for k := 1; k <= 4; k++ {
		tr.Observe(seq[k-1])
		if _, ok := tr.MA(); ok {
			t.Fatalf("MA defined at k=%d < ω=5", k)
		}
	}
	tr.Observe(seq[4])
	if _, ok := tr.MA(); !ok {
		t.Fatal("MA undefined at k=ω")
	}
}

// Observing a constant post stream drives adjacent similarity and MA to 1.
func TestConstantStreamStabilizes(t *testing.T) {
	tr := NewTracker(4)
	p := tags.MustPost(1, 2)
	var last float64
	for k := 0; k < 50; k++ {
		last = tr.Observe(p)
	}
	if last < 0.999999 {
		t.Errorf("adjacent similarity of constant stream = %g, want ≈1", last)
	}
	ma, ok := tr.MA()
	if !ok || ma < 0.999999 {
		t.Errorf("MA of constant stream = %g, want ≈1", ma)
	}
}

// First post always has adjacent similarity 0 (previous rfd is the zero
// vector; Equation 16's "otherwise" branch).
func TestFirstPostAdjacency(t *testing.T) {
	tr := NewTracker(3)
	if got := tr.Observe(tags.MustPost(5)); got != 0 {
		t.Errorf("adjacent similarity at k=1 is %g, want 0", got)
	}
}

func TestStablePointFindsSmallestK(t *testing.T) {
	seq := randSeq(7, 400, 8)
	const omega, tau = 5, 0.999
	res := StablePoint(seq, omega, tau)
	if !res.Found {
		t.Skip("sequence did not stabilize — regenerate with different seed")
	}
	// Verify minimality against a fresh replay.
	tr := NewTracker(omega)
	for k := 1; k <= len(seq); k++ {
		tr.Observe(seq[k-1])
		ma, ok := tr.MA()
		passes := ok && ma > tau
		if k < res.K && passes {
			t.Fatalf("k=%d already satisfies Equation 6 but StablePoint returned %d", k, res.K)
		}
		if k == res.K && !passes {
			t.Fatalf("reported stable point %d does not satisfy Equation 6", res.K)
		}
		if k == res.K {
			break
		}
	}
	// The returned rfd is F(K).
	want := sparse.FromSeq(seq, res.K)
	if res.RFD.Posts() != want.Posts() || res.RFD.Mass() != want.Mass() {
		t.Error("stable rfd is not F(K)")
	}
}

func TestStablePointNotFound(t *testing.T) {
	// A stream of always-disjoint posts keeps the adjacent similarity at
	// √(N²/(N²+2)) < 1, so a strict enough τ is never met in 60 posts.
	seq := make(tags.Seq, 60)
	for i := range seq {
		seq[i] = tags.MustPost(tags.Tag(2*i), tags.Tag(2*i+1))
	}
	if res := StablePoint(seq, 5, 0.9999); res.Found {
		t.Errorf("disjoint stream reported stable at %d", res.K)
	}
}

func TestSeriesShape(t *testing.T) {
	seq := randSeq(9, 40, 6)
	s := Series(seq, 5)
	if len(s.Adjacent) != 40 || len(s.MA) != 40 || len(s.Defined) != 40 {
		t.Fatal("series lengths wrong")
	}
	for k := 1; k <= 40; k++ {
		if (k >= 5) != s.Defined[k-1] {
			t.Fatalf("definedness at k=%d wrong", k)
		}
	}
}

func TestTrackerReset(t *testing.T) {
	// Map-form and sized (hybrid) trackers alike: Reset keeps the form.
	for _, mk := range []func() *Tracker{
		func() *Tracker { return NewTracker(3) },
		func() *Tracker { return NewTrackerSized(3, 64) },
	} {
		tr := mk()
		hybrid := tr.Counts().Hybrid()
		seq := randSeq(13, 20, 5)
		for _, p := range seq {
			tr.Observe(p)
		}
		tr.Reset()
		if tr.Posts() != 0 || tr.Counts().Len() != 0 {
			t.Error("Reset did not clear posts")
		}
		if _, ok := tr.MA(); ok {
			t.Error("Reset did not clear MA window")
		}
		if tr.Counts().Hybrid() != hybrid {
			t.Errorf("Reset changed the count representation (hybrid %v → %v)", hybrid, tr.Counts().Hybrid())
		}
		// Replays identically after reset.
		tr2 := mk()
		for i, p := range seq {
			a, b := tr.Observe(p), tr2.Observe(p)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("post %d: reset tracker diverged (%g vs %g)", i, a, b)
			}
		}
		m1, _ := tr.MA()
		m2, _ := tr2.MA()
		ts1, ns1 := tr.Counts().Entries(nil, nil)
		ts2, ns2 := tr2.Counts().Entries(nil, nil)
		if math.Float64bits(m1) != math.Float64bits(m2) || !reflect.DeepEqual(ts1, ts2) || !reflect.DeepEqual(ns1, ns2) {
			t.Error("reset tracker's final state differs from a fresh tracker's")
		}
	}
}

func TestSnapshotIsolation(t *testing.T) {
	tr := NewTracker(3)
	tr.Observe(tags.MustPost(1))
	snap := tr.Snapshot()
	tr.Observe(tags.MustPost(2))
	if snap.Posts() != 1 {
		t.Error("snapshot mutated by later Observe")
	}
}

// The sized (hybrid-counts) tracker must be observably bit-identical to
// the map-backed reference tracker.
func TestTrackerSizedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := NewTracker(5), NewTrackerSized(5, 96)
	for k := 0; k < 200; k++ {
		n := 1 + rng.Intn(4)
		ts := make([]tags.Tag, n)
		for j := range ts {
			if rng.Intn(12) == 0 {
				ts[j] = tags.Tag(sparse.DenseTagCap + rng.Intn(5000))
			} else {
				ts[j] = tags.Tag(rng.Intn(96))
			}
		}
		p, err := tags.NewPost(ts...)
		if err != nil {
			t.Fatal(err)
		}
		if aa, ba := a.Observe(p), b.Observe(p); aa != ba {
			t.Fatalf("step %d: adjacent %.17g vs %.17g", k, aa, ba)
		}
		am, aok := a.MA()
		bm, bok := b.MA()
		if aok != bok || am != bm {
			t.Fatalf("step %d: MA %.17g/%v vs %.17g/%v", k, am, aok, bm, bok)
		}
	}
	if a.Counts().Norm2() != b.Counts().Norm2() || a.Counts().Mass() != b.Counts().Mass() {
		t.Fatal("final counts diverge")
	}
}
