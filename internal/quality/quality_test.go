package quality

import (
	"math"
	"testing"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// buildTableII constructs the vocabulary and stable rfd's of the paper's
// Table II (resources r1 = Google Earth, r2 = Picasa).
func buildTableII() (v *tags.Vocab, stable1, stable2 *sparse.Counts) {
	v = tags.NewVocab()
	google, earth := v.Intern("google"), v.Intern("earth")
	geographic, pictures := v.Intern("geographic"), v.Intern("pictures")

	// φ̂1 = (google .25, geographic .25, earth .5) — counts (1,1,2).
	stable1 = sparse.NewCounts()
	stable1.Add(tags.MustPost(google))
	stable1.Add(tags.MustPost(geographic))
	stable1.Add(tags.MustPost(earth))
	stable1.Add(tags.MustPost(earth))

	// φ̂2 = (google 1/3, pictures 2/3) — counts (1,2).
	stable2 = sparse.NewCounts()
	stable2.Add(tags.MustPost(google))
	stable2.Add(tags.MustPost(pictures))
	stable2.Add(tags.MustPost(pictures))
	return v, stable1, stable2
}

// TestPaperExample2 reproduces q1(3)=0.953, q2(2)≈0.894 (the paper prints
// 0.897 from the rounded rfd 0.33/0.67) and q(R)= (q1+q2)/2.
func TestPaperExample2(t *testing.T) {
	v, stable1, stable2 := buildTableII()
	google, _ := v.Lookup("google")
	earth, _ := v.Lookup("earth")
	geographic, _ := v.Lookup("geographic")
	pictures, _ := v.Lookup("pictures")

	r1 := sparse.NewCounts()
	r1.Add(tags.MustPost(google, earth))
	r1.Add(tags.MustPost(google, geographic))
	r1.Add(tags.MustPost(earth))

	r2 := sparse.NewCounts()
	r2.Add(tags.MustPost(pictures))
	r2.Add(tags.MustPost(pictures))

	q1 := NewReference(stable1).Of(r1)
	q2 := NewReference(stable2).Of(r2)
	if math.Abs(q1-0.953) > 0.001 {
		t.Errorf("q1(3) = %.4f, paper: 0.953", q1)
	}
	// Exact value 2/√5 ≈ 0.8944; the paper's 0.897 comes from rounding
	// φ̂2 to (0.33, 0.67).
	if math.Abs(q2-2/math.Sqrt(5)) > 1e-9 {
		t.Errorf("q2(2) = %.6f, want 2/√5 = %.6f", q2, 2/math.Sqrt(5))
	}
}

// TestPaperExample3 reproduces Table IV: with c=(3,2), B=2, and the
// specified future posts, the qualities of the three assignments are
// (0,2)→0.973, (1,1)→0.990, (2,0)→0.920.
func TestPaperExample3(t *testing.T) {
	v, stable1, stable2 := buildTableII()
	google, _ := v.Lookup("google")
	earth, _ := v.Lookup("earth")
	geographic, _ := v.Lookup("geographic")
	pictures, _ := v.Lookup("pictures")

	seq1 := tags.Seq{
		tags.MustPost(google, earth),
		tags.MustPost(google, geographic),
		tags.MustPost(earth),
		// Future posts of r1 (Example 3).
		tags.MustPost(geographic, earth),
		tags.MustPost(google, geographic),
	}
	seq2 := tags.Seq{
		tags.MustPost(pictures),
		tags.MustPost(pictures),
		// Future posts of r2.
		tags.MustPost(google, pictures),
		tags.MustPost(google),
	}
	curve := func(seq tags.Seq, c int, ref *Reference) Curve {
		var q Curve
		for k := c; k <= len(seq); k++ {
			q = append(q, ref.Of(sparse.FromSeq(seq, k)))
		}
		return q
	}
	c1, c2 := curve(seq1, 3, NewReference(stable1)), curve(seq2, 2, NewReference(stable2))
	cases := []struct {
		x1, x2 int
		want   float64
	}{
		{0, 2, 0.973},
		{1, 1, 0.990},
		{2, 0, 0.920},
	}
	for _, tc := range cases {
		got := (c1.At(tc.x1) + c2.At(tc.x2)) / 2
		if math.Abs(got-tc.want) > 0.002 {
			t.Errorf("q(c+(%d,%d)) = %.4f, paper: %.3f", tc.x1, tc.x2, got, tc.want)
		}
	}
	// (1,1) is optimal among the three.
	best := (c1.At(1) + c2.At(1)) / 2
	if best <= (c1.At(0)+c2.At(2))/2 || best <= (c1.At(2)+c2.At(0))/2 {
		t.Error("assignment (1,1) is not the maximum as the paper states")
	}
}

// A curve reaches as far as its resource's recorded posts, and At
// clamps x into that range.
func TestBuildCurveBounds(t *testing.T) {
	c := Curve{0.2, 0.5, 0.9}
	if c.MaxX() != 2 {
		t.Errorf("MaxX = %d, want 2 (only 2 future posts)", c.MaxX())
	}
	if c.At(-3) != c.At(0) || c.At(99) != c.At(2) {
		t.Error("At does not clamp")
	}
}

func TestNewReferenceClones(t *testing.T) {
	s := sparse.NewCounts()
	s.Add(tags.MustPost(1))
	ref := NewReference(s)
	s.Add(tags.MustPost(2)) // mutate original
	if ref.Counts().Posts() != 1 {
		t.Error("Reference shares caller's counts")
	}
}

func TestNewReferenceNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil stable rfd accepted")
		}
	}()
	NewReference(nil)
}
