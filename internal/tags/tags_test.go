package tags

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVocabIntern(t *testing.T) {
	v := NewVocab()
	a := v.Intern("google")
	b := v.Intern("earth")
	if a == b {
		t.Fatalf("distinct names got same id %d", a)
	}
	if got := v.Intern("google"); got != a {
		t.Errorf("re-intern changed id: %d != %d", got, a)
	}
	if v.Size() != 2 {
		t.Errorf("Size = %d, want 2", v.Size())
	}
	if v.Name(a) != "google" || v.Name(b) != "earth" {
		t.Errorf("Name round-trip failed: %q, %q", v.Name(a), v.Name(b))
	}
	if _, ok := v.Lookup("maps"); ok {
		t.Error("Lookup of absent name reported present")
	}
	if id, ok := v.Lookup("earth"); !ok || id != b {
		t.Errorf("Lookup(earth) = %d,%v want %d,true", id, ok, b)
	}
	names := v.Names()
	if len(names) != 2 || names[a] != "google" {
		t.Errorf("Names() = %v", names)
	}
}

func TestVocabNamePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Name on foreign tag did not panic")
		}
	}()
	NewVocab().Name(3)
}

func TestVocabConcurrent(t *testing.T) {
	v := NewVocab()
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				v.Intern(string(rune('a' + (i+g)%26)))
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if v.Size() != 26 {
		t.Errorf("concurrent intern produced %d names, want 26", v.Size())
	}
}

func TestNewPostDedupSort(t *testing.T) {
	p, err := NewPost(5, 2, 5, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := Post{1, 2, 5}
	if !p.Equal(want) {
		t.Errorf("NewPost = %v, want %v", p, want)
	}
}

func TestNewPostRejectsEmptyAndNegative(t *testing.T) {
	if _, err := NewPost(); err == nil {
		t.Error("empty post accepted")
	}
	if _, err := NewPost(-1); err == nil {
		t.Error("negative tag accepted")
	}
}

func TestPostCloneIndependent(t *testing.T) {
	p := MustPost(1, 2)
	q := p.Clone()
	q[0] = 7
	if p[0] != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestSeqValidate(t *testing.T) {
	good := Seq{MustPost(1, 2), MustPost(3)}
	if i, err := good.Validate(); err != nil {
		t.Errorf("valid sequence rejected at %d: %v", i, err)
	}
	bad := Seq{MustPost(1), Post{2, 2}}
	if i, err := bad.Validate(); err == nil || i != 1 {
		t.Errorf("duplicate-in-post sequence accepted (i=%d err=%v)", i, err)
	}
	empty := Seq{Post{}}
	if _, err := empty.Validate(); err == nil {
		t.Error("empty post in sequence accepted")
	}
}

func TestSeqTotalTags(t *testing.T) {
	s := Seq{MustPost(1, 2), MustPost(2), MustPost(1, 2, 3)}
	if got := s.TotalTags(); got != 6 {
		t.Errorf("TotalTags = %d, want 6", got)
	}
}

// Property: NewPost output is always sorted, deduplicated and non-empty
// for any non-empty input of valid ids, and is idempotent.
func TestNewPostProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ts := make([]Tag, len(raw))
		for i, r := range raw {
			ts[i] = Tag(r)
		}
		p, err := NewPost(ts...)
		if err != nil {
			return false
		}
		for i := 1; i < len(p); i++ {
			if p[i] <= p[i-1] {
				return false
			}
		}
		p2, err := NewPost(p...)
		return err == nil && p2.Equal(p)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
