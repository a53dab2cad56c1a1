package ir

import (
	"math"
	"testing"

	"incentivetag/internal/tags"
)

// tagTableKeys decodes one fuzz byte into the keys it touches. The low
// two bits pick the kind, bit 2 a get (set) or a put (clear), the high
// five a parameter p:
//   - 0: the small tag p;
//   - 1: a boundary tag: 0, 1, math.MaxInt32 − 1 or math.MaxInt32;
//   - 2: p+1 tags sharing tag 0's home slot at h's current length;
//   - 3: a burst of 4(p+1) tags spread over the whole id range.
func tagTableKeys(h *tagTable[int], b byte) []tags.Tag {
	p := int(b >> 3)
	switch b & 3 {
	case 0:
		return []tags.Tag{tags.Tag(p)}
	case 1:
		return []tags.Tag{[4]tags.Tag{0, 1, math.MaxInt32 - 1, math.MaxInt32}[p&3]}
	case 2:
		probe := *h
		if len(probe.slots) == 0 {
			probe.shift = 64 - 3 // an empty table's first length is 8
		}
		var out []tags.Tag
		for t := tags.Tag(1); len(out) <= p; t++ {
			if probe.home(uint32(t)+1) == probe.home(1) {
				out = append(out, t)
			}
		}
		return out
	default:
		out := make([]tags.Tag, 4*(p+1))
		for j := range out {
			out[j] = tags.Tag(uint32(p)<<26+uint32(j)*0x9E3779B) & math.MaxInt32
		}
		return out
	}
}

// requireTagTable checks h against its model: the size, the ¾ bound,
// every tag reachable from its home, and each visiting every tag once
// with its value.
func requireTagTable(t *testing.T, h *tagTable[int], model map[tags.Tag]int) {
	t.Helper()
	if h.n != len(model) {
		t.Fatalf("table holds %d tags, model %d", h.n, len(model))
	}
	if l := len(h.slots); l > 0 && (l&(l-1) != 0 || 4*h.n > 3*l) {
		t.Fatalf("%d tags in %d slots", h.n, l)
	}
	seen := map[tags.Tag]bool{}
	h.each(func(tg tags.Tag, v int) {
		if seen[tg] {
			t.Fatalf("tag %d visited twice", tg)
		}
		seen[tg] = true
		if want, ok := model[tg]; !ok || v != want {
			t.Fatalf("tag %d holds %d, model %d (present %v)", tg, v, want, ok)
		}
	})
	for tg, want := range model {
		if got := h.get(tg); got != want {
			t.Fatalf("get(%d) = %d, model %d", tg, got, want)
		}
	}
}

// FuzzTagTable holds tagTable to a Go map through arbitrary put/get
// sequences: boundary tags, tags that share a home slot, and bursts that
// grow the table several times over.
func FuzzTagTable(f *testing.F) {
	f.Add([]byte{0, 1, 9, 17, 25, 2, 4, 5, 250, 251, 255, 127, 123})
	f.Add([]byte{255, 251, 254, 250, 255, 1, 25, 26, 30, 7, 255, 250})
	f.Add([]byte{1, 5, 25, 29, 7, 31, 63})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var h tagTable[int]
		model := map[tags.Tag]int{}
		for i, b := range prog[:min(len(prog), 64)] {
			get := b&4 != 0
			for _, tg := range tagTableKeys(&h, b) {
				if get {
					if got := h.get(tg); got != model[tg] {
						t.Fatalf("op %d: get(%d) = %d, model %d", i, tg, got, model[tg])
					}
					continue
				}
				v := h.put(tg)
				if *v != model[tg] {
					t.Fatalf("op %d: put(%d) found %d, model %d", i, tg, *v, model[tg])
				}
				*v = i + 1
				model[tg] = i + 1
			}
		}
		requireTagTable(t, &h, model)
	})
}
