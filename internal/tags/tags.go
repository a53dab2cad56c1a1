// Package tags implements the data model of Section III-A of the paper:
// tags, posts, post sequences, and an interned tag vocabulary.
//
// A Tag is a small integer handle into a Vocab. Interning tags keeps every
// downstream structure (sparse vectors, trackers, stores) compact and makes
// equality O(1). A Post is a non-empty set of distinct tags assigned to a
// resource in one tagging operation (Definition 1); the post sequence of a
// resource is the time-ordered sequence of its posts (Definition 2).
package tags

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Tag is an interned tag identifier. The zero value is a valid tag id (the
// first interned string).
type Tag int32

// Vocab interns tag strings to dense Tag ids. It is safe for concurrent use.
//
// The paper's T = {t1, ..., tm} is the set of all possible tags; Vocab is
// its materialization, with |T| = Size().
type Vocab struct {
	mu    sync.RWMutex
	ids   map[string]Tag
	names []string
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{ids: make(map[string]Tag)}
}

// Intern returns the Tag id for name, assigning a fresh id on first use.
// Tag names are case-sensitive and used verbatim; callers that want
// normalization (lower-casing, trimming) should do it before interning.
func (v *Vocab) Intern(name string) Tag {
	v.mu.RLock()
	id, ok := v.ids[name]
	v.mu.RUnlock()
	if ok {
		return id
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if id, ok := v.ids[name]; ok {
		return id
	}
	id = Tag(len(v.names))
	v.ids[name] = id
	v.names = append(v.names, name)
	return id
}

// Lookup returns the id for name without interning. The second result
// reports whether the name was present.
func (v *Vocab) Lookup(name string) (Tag, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	id, ok := v.ids[name]
	return id, ok
}

// Name returns the string for an interned tag. It panics if t was not
// produced by this vocabulary.
func (v *Vocab) Name(t Tag) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if t < 0 || int(t) >= len(v.names) {
		panic(fmt.Sprintf("tags: Name(%d) out of range (vocab size %d)", t, len(v.names)))
	}
	return v.names[t]
}

// Size returns the number of interned tags, i.e. |T|.
func (v *Vocab) Size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.names)
}

// Names returns a copy of all interned names indexed by Tag id.
func (v *Vocab) Names() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, len(v.names))
	copy(out, v.names)
	return out
}

// Post is a non-empty set of distinct tags assigned in one tagging
// operation (Definition 1). Posts are stored sorted by tag id so that two
// posts with the same tag set compare equal element-wise and encode
// deterministically.
type Post []Tag

// NewPost builds a Post from the given tags, deduplicating and sorting.
// It returns an error if the resulting set is empty.
func NewPost(ts ...Tag) (Post, error) {
	return Normalize(append(Post(nil), ts...))
}

// Normalize is NewPost without the copy: it sorts and deduplicates ts in
// place and returns the leading slice that holds the post, for callers
// that own ts (a decoder filling its own buffer). Same errors as NewPost;
// ts is left sorted when one is returned.
func Normalize(ts []Tag) (Post, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("tags: a post must contain at least one tag")
	}
	slices.Sort(ts)
	if ts[0] < 0 {
		return nil, fmt.Errorf("tags: invalid tag id %d in post", ts[0])
	}
	w := 1
	for _, t := range ts[1:] {
		if t != ts[w-1] {
			ts[w] = t
			w++
		}
	}
	return Post(ts[:w]), nil
}

// MustPost is NewPost that panics on error; intended for tests and
// literals of known-good data.
func MustPost(ts ...Tag) Post {
	p, err := NewPost(ts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Clone returns an independent copy of the post.
func (p Post) Clone() Post {
	out := make(Post, len(p))
	copy(out, p)
	return out
}

// Equal reports whether two posts contain exactly the same tag set.
func (p Post) Equal(q Post) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the post using ids, e.g. "{3,17,42}".
func (p Post) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", t)
	}
	b.WriteByte('}')
	return b.String()
}

// Format renders the post with human-readable names from v.
func (p Post) Format(v *Vocab) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.Name(t))
	}
	b.WriteByte('}')
	return b.String()
}

// Seq is the post sequence of a resource (Definition 2): Seq[k-1] is the
// k-th post the resource received.
type Seq []Post

// TotalTags returns the number of tag occurrences across all posts
// (duplicates across posts counted), i.e. the denominator of Definition 4
// after len(s) posts.
func (s Seq) TotalTags() int {
	n := 0
	for _, p := range s {
		n += len(p)
	}
	return n
}

// Validate checks that every post in the sequence is non-empty, sorted and
// duplicate-free. It returns the index of the first offending post.
func (s Seq) Validate() (int, error) {
	for i, p := range s {
		if len(p) == 0 {
			return i, fmt.Errorf("tags: post %d is empty", i)
		}
		for j := 1; j < len(p); j++ {
			if p[j] <= p[j-1] {
				return i, fmt.Errorf("tags: post %d is not strictly sorted at position %d", i, j)
			}
		}
		if p[0] < 0 {
			return i, fmt.Errorf("tags: post %d has negative tag id", i)
		}
	}
	return -1, nil
}
