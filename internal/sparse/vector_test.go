package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"incentivetag/internal/tags"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCountsBasics(t *testing.T) {
	c := NewCounts()
	if c.Posts() != 0 || c.Mass() != 0 || c.Norm2() != 0 || c.Len() != 0 {
		t.Fatal("fresh counts not empty")
	}
	c.Add(tags.MustPost(1, 2))
	c.Add(tags.MustPost(2, 3))
	if c.Posts() != 2 {
		t.Errorf("Posts = %d", c.Posts())
	}
	if c.Get(2) != 2 || c.Get(1) != 1 || c.Get(3) != 1 || c.Get(9) != 0 {
		t.Errorf("counts wrong: %d %d %d", c.Get(1), c.Get(2), c.Get(3))
	}
	if c.Mass() != 4 {
		t.Errorf("Mass = %d, want 4", c.Mass())
	}
	if !approxEq(c.RelFreq(2), 0.5, 1e-12) {
		t.Errorf("RelFreq(2) = %g, want 0.5", c.RelFreq(2))
	}
	if !approxEq(c.Norm2(), 4+1+1, 1e-12) {
		t.Errorf("Norm2 = %g, want 6", c.Norm2())
	}
	sup := c.Support()
	if len(sup) != 3 || sup[0] != 1 || sup[2] != 3 {
		t.Errorf("Support = %v", sup)
	}
}

// Paper Definition 4: f(t,0) = 0.
func TestRelFreqZeroPosts(t *testing.T) {
	if got := NewCounts().RelFreq(1); got != 0 {
		t.Errorf("RelFreq on empty = %g, want 0", got)
	}
}

// Paper Equation 16: cosine is 0 when either side has no posts.
func TestCosineZeroRule(t *testing.T) {
	a, b := NewCounts(), NewCounts()
	b.Add(tags.MustPost(1))
	if got := a.Cosine(b); got != 0 {
		t.Errorf("cos(empty, x) = %g, want 0", got)
	}
	if got := b.Cosine(a); got != 0 {
		t.Errorf("cos(x, empty) = %g, want 0", got)
	}
}

// Cosine of counts equals cosine of rfd's (scale invariance) — the
// identity the whole sparse design rests on.
func TestCosineMatchesDenseRFD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		a, b := NewCounts(), NewCounts()
		dim := 20
		for i := 0; i < 12; i++ {
			a.Add(randPost(rng, dim))
			if i%2 == 0 {
				b.Add(randPost(rng, dim))
			}
		}
		want := DenseCosine(a.Dense(dim), b.Dense(dim))
		got := a.Cosine(b)
		if !approxEq(got, want, 1e-9) {
			t.Fatalf("trial %d: sparse %.12f vs dense %.12f", trial, got, want)
		}
	}
}

func randPost(rng *rand.Rand, dim int) tags.Post {
	n := 1 + rng.Intn(4)
	ts := make([]tags.Tag, n)
	for i := range ts {
		ts[i] = tags.Tag(rng.Intn(dim))
	}
	p, err := tags.NewPost(ts...)
	if err != nil {
		panic(err)
	}
	return p
}

// AddWithAdjacent must equal the from-scratch cosine of consecutive
// count vectors.
func TestAdjacentCosineMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim = 15
	c := NewCounts()
	prev := NewCounts()
	for k := 1; k <= 200; k++ {
		p := randPost(rng, dim)
		want := 0.0
		{
			next := prev.Clone()
			next.Add(p)
			want = prev.Cosine(next)
		}
		got := c.AddWithAdjacent(p)
		if !approxEq(got, want, 1e-9) {
			t.Fatalf("k=%d: incremental %.12f vs direct %.12f", k, got, want)
		}
		prev.Add(p)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewCounts()
	a.Add(tags.MustPost(1, 2))
	b := a.Clone()
	b.Add(tags.MustPost(3))
	if a.Posts() != 1 || a.Get(3) != 0 {
		t.Error("Clone shares state")
	}
}

func TestFromSeq(t *testing.T) {
	seq := tags.Seq{tags.MustPost(1), tags.MustPost(1, 2), tags.MustPost(2)}
	c := FromSeq(seq, 2)
	if c.Posts() != 2 || c.Get(1) != 2 || c.Get(2) != 1 {
		t.Errorf("FromSeq state wrong: posts=%d", c.Posts())
	}
}

// Properties via testing/quick: cosine is symmetric, bounded in [0,1],
// and exactly 1 against itself for non-empty vectors; norm bookkeeping
// matches a recomputation.
func TestCosineProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seedA, seedB int64, nA, nB uint8) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		a, b := NewCounts(), NewCounts()
		for i := 0; i < int(nA%24)+1; i++ {
			a.Add(randPost(ra, 10))
		}
		for i := 0; i < int(nB%24)+1; i++ {
			b.Add(randPost(rb, 10))
		}
		sab, sba := a.Cosine(b), b.Cosine(a)
		if !approxEq(sab, sba, 1e-12) {
			return false
		}
		if sab < 0 || sab > 1 {
			return false
		}
		if !approxEq(a.Cosine(a), 1, 1e-12) {
			return false
		}
		// Norm2 bookkeeping equals recomputation.
		var n2 float64
		for _, tg := range a.Support() {
			n2 += float64(a.Get(tg)) * float64(a.Get(tg))
		}
		return approxEq(n2, a.Norm2(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Table II / Example 2 of the paper: q1 = s(F1(3), φ̂1) ≈ 0.953.
func TestPaperExample2GoogleEarth(t *testing.T) {
	v := tags.NewVocab()
	google, earth, geographic := v.Intern("google"), v.Intern("earth"), v.Intern("geographic")
	cur := NewCounts()
	cur.Add(tags.MustPost(google, earth))
	cur.Add(tags.MustPost(google, geographic))
	cur.Add(tags.MustPost(earth))
	// F1(3) = (google 0.4, geographic 0.2, earth 0.4).
	if !approxEq(cur.RelFreq(google), 0.4, 1e-12) ||
		!approxEq(cur.RelFreq(geographic), 0.2, 1e-12) ||
		!approxEq(cur.RelFreq(earth), 0.4, 1e-12) {
		t.Fatalf("F1(3) wrong: %g %g %g",
			cur.RelFreq(google), cur.RelFreq(geographic), cur.RelFreq(earth))
	}
	// φ̂1 = (0.25, 0.25, 0.5) — counts (1, 1, 2).
	stable := NewCounts()
	stable.Add(tags.MustPost(google))
	stable.Add(tags.MustPost(geographic))
	stable.Add(tags.MustPost(earth))
	stable.Add(tags.MustPost(earth))
	if got := cur.Cosine(stable); !approxEq(got, 0.953, 0.001) {
		t.Errorf("q1(3) = %.4f, paper says 0.953", got)
	}
}

// --- the table against a map model -------------------------------------

// model is the plain reference a Counts table is held to: a map from tag
// to count, plus the post count.
type model struct {
	m     map[tags.Tag]int64
	posts int
}

func (m *model) add(p tags.Post) {
	for _, t := range p {
		m.m[t]++
	}
	m.posts++
}

// requireModel checks every observable of c against m: Get on the
// support and on absent ids, Len, norm², mass, posts, the ForEach set,
// and the ascending appendSupport.
func requireModel(t testing.TB, c *Counts, m *model) {
	t.Helper()
	var norm2 float64
	var mass int64
	for tg, n := range m.m {
		if got := c.Get(tg); got != n {
			t.Fatalf("Get(%d) = %d, model %d", tg, got, n)
		}
		norm2 += float64(n) * float64(n)
		mass += n
	}
	for _, tg := range []tags.Tag{math.MinInt32, -1, 0, 1, math.MaxInt32, 1 << 20} {
		if _, ok := m.m[tg]; !ok && c.Get(tg) != 0 {
			t.Fatalf("absent tag %d reads %d", tg, c.Get(tg))
		}
	}
	if c.Len() != len(m.m) || c.Posts() != m.posts || c.Mass() != mass || c.Norm2() != norm2 {
		t.Fatalf("len/posts/mass/norm2 %d/%d/%d/%g, model %d/%d/%d/%g",
			c.Len(), c.Posts(), c.Mass(), c.Norm2(), len(m.m), m.posts, mass, norm2)
	}
	if 4*c.Len() > 3*len(c.slots) && c.Len() > 0 {
		t.Fatalf("%d entries in %d slots: over ¾ full", c.Len(), len(c.slots))
	}
	seen := 0
	c.ForEach(func(tg tags.Tag, n int64) {
		if m.m[tg] != n {
			t.Fatalf("ForEach visits (%d, %d), model has %d", tg, n, m.m[tg])
		}
		seen++
	})
	if seen != len(m.m) {
		t.Fatalf("ForEach visited %d entries, model has %d", seen, len(m.m))
	}
	sup := c.appendSupport([]tags.Tag{7})
	if len(sup) != len(m.m)+1 || sup[0] != 7 {
		t.Fatalf("appendSupport after 7 gave %v, want 7 then %d ids", sup, len(m.m))
	}
	for i := 1; i < len(sup); i++ {
		if i > 1 && sup[i] <= sup[i-1] {
			t.Fatalf("appendSupport not ascending at %d: %d after %d", i, sup[i], sup[i-1])
		}
		if _, ok := m.m[sup[i]]; !ok {
			t.Fatalf("support id %d at %d is not in the model", sup[i], i)
		}
	}
}

// runModel interprets prog as a sequence of operations on one Counts and
// its model, checking them against each other after every operation.
// Tags come from a small pool with negative and extreme ids, so probe
// runs collide; a burst adds hundreds of fresh ids, so the table grows
// through every resize.
func runModel(t testing.TB, prog []byte) {
	c, m := NewCounts(), &model{m: map[tags.Tag]int64{}}
	fresh := tags.Tag(1000)
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	tag := func(b byte) tags.Tag {
		switch b % 16 {
		case 0:
			return math.MaxInt32
		case 1:
			return math.MinInt32
		case 2:
			return -tags.Tag(b)
		}
		return tags.Tag(b) - 100
	}
	post := func(n int, tag func(int) tags.Tag) tags.Post {
		seen := map[tags.Tag]bool{}
		var p tags.Post
		for j := 0; j < n; j++ {
			if tg := tag(j); !seen[tg] {
				seen[tg] = true
				p = append(p, tg)
			}
		}
		return p
	}
	for len(prog) > 0 {
		switch next() % 8 {
		case 0, 1, 2, 3: // add a post of 1–4 pool tags
			p := post(1+int(next()%4), func(int) tags.Tag { return tag(next()) })
			c.Add(p)
			m.add(p)
		case 4: // a burst of fresh ids
			p := post(1+int(next())*2, func(j int) tags.Tag { return fresh + tags.Tag(j) })
			fresh += tags.Tag(len(p))
			c.Add(p)
			m.add(p)
		case 5:
			c.Reset()
			m = &model{m: map[tags.Tag]int64{}}
		case 6: // continue on a clone; the original must not move
			d := c.Clone()
			p := tags.Post{tag(next())}
			d.Add(p)
			requireModel(t, c, m)
			m.add(p)
			c = d
		case 7: // round-trip through the snapshot form
			ts := c.Support()
			d := NewCounts()
			d.Presize(c.Posts(), len(ts))
			for k := len(ts) - 1; k >= 0; k-- {
				if err := d.Insert(ts[k], c.Get(ts[k])); err != nil {
					t.Fatal(err)
				}
			}
			if len(ts) > 0 && len(d.slots) != tableLen(len(ts)) { // presized: no growth
				t.Fatalf("%d entries presized to %d slots", len(ts), len(d.slots))
			}
			c = d
		}
		requireModel(t, c, m)
	}
}

// The table is held to a plain map under random operation sequences.
func TestCountsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 200; round++ {
		prog := make([]byte, 50+rng.Intn(400))
		rng.Read(prog)
		runModel(t, prog)
	}

	// Growth through every resize up to 2¹⁴ slots.
	c, m := NewCounts(), &model{m: map[tags.Tag]int64{}}
	for i := 0; i < 12000; i += 3 {
		p := tags.Post{tags.Tag(i), tags.Tag(-i - 1), tags.Tag(math.MaxInt32 - i)}
		c.Add(p)
		m.add(p)
	}
	requireModel(t, c, m)
	if len(c.slots) != 1<<14 {
		t.Fatalf("12 000 entries in %d slots, want 16 384", len(c.slots))
	}

	// A probe run across the wrap-around: every entry homes on the last
	// slot, so the run continues at slot 0.
	c, m = NewCounts(), &model{m: map[tags.Tag]int64{}}
	c.Add(tags.Post{0})
	m.add(tags.Post{0})
	last := len(c.slots) - 1
	var wrap []tags.Tag
	for tg := tags.Tag(1); len(wrap) < 4; tg++ {
		if c.home(tg) == last {
			wrap = append(wrap, tg)
		}
	}
	for _, tg := range wrap {
		c.Add(tags.Post{tg})
		m.add(tags.Post{tg})
		requireModel(t, c, m)
	}
	if len(c.slots) != 8 {
		t.Fatalf("table grew to %d slots", len(c.slots))
	}

	// Insert refuses malformed snapshot entries and leaves the vector
	// as it was.
	for _, tc := range []struct {
		name  string
		ts    []tags.Tag
		ns    []int64
		posts int64
	}{
		{"duplicate", []tags.Tag{5, 5}, []int64{1, 1}, 1},
		{"zero count", []tags.Tag{1}, []int64{0}, 1},
		{"negative count", []tags.Tag{1}, []int64{-1}, 1},
		{"count above posts", []tags.Tag{1}, []int64{3}, 2},
		{"count above MaxInt32", []tags.Tag{1}, []int64{math.MaxInt32 + 1}, math.MaxInt32 + 1},
	} {
		if int64(int(tc.posts)) != tc.posts {
			continue // a 32-bit int cannot hold the post count
		}
		c := NewCounts()
		c.Presize(int(tc.posts), len(tc.ts))
		last := len(tc.ts) - 1
		for k, tg := range tc.ts[:last] {
			if err := c.Insert(tg, tc.ns[k]); err != nil {
				t.Fatalf("%s: entry %d refused: %v", tc.name, k, err)
			}
		}
		before := *c.Clone()
		if err := c.Insert(tc.ts[last], tc.ns[last]); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if c.Len() != before.Len() || c.Norm2() != before.Norm2() || c.Mass() != before.Mass() || c.Posts() != before.Posts() {
			t.Errorf("%s: refused entry moved the vector", tc.name)
		}
	}
}

// FuzzCountsModel runs arbitrary operation sequences against the model.
func FuzzCountsModel(f *testing.F) {
	f.Add([]byte{0, 1, 5, 9, 3, 0, 4, 30, 6, 2, 7, 5, 0, 2, 16, 17})
	f.Add([]byte{4, 255, 4, 255, 3, 0, 3, 0, 7})
	f.Fuzz(func(t *testing.T, prog []byte) { runModel(t, prog) })
}

// Reset must be an identity for a scratch vector reused across replays
// (the RunReference oracle path).
func TestResetScratchReuse(t *testing.T) {
	scratch := NewCounts()
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 10; round++ {
		var posts []tags.Post
		for i := 0; i < 30; i++ {
			posts = append(posts, randPost(rng, 3000))
		}
		scratch.Reset()
		m := &model{m: map[tags.Tag]int64{}}
		for _, p := range posts {
			scratch.Add(p)
			m.add(p)
		}
		requireModel(t, scratch, m)
	}
}
