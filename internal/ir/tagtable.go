package ir

import (
	"math/bits"
	"math/rand/v2"

	"incentivetag/internal/tags"
)

// tableSeed is mixed into every tag table's home positions, once per
// process: tag ids come from clients, and a fixed hash would let them
// build long probe chains.
var tableSeed = rand.Uint64()

// tagSlot is one tag-table entry; key 0 marks it empty.
type tagSlot[V any] struct {
	key uint32 // uint32(tag) + 1
	val V
}

// tagTable maps tags to values of V in one open-addressed slot array,
// laid out like sparse.Counts: a power-of-two length at most ¾ full,
// probed linearly from a Fibonacci hash of the key mixed with
// tableSeed. Keys are stored as uint32(tag)+1, so every non-negative tag,
// math.MaxInt32 included, has a non-zero key. It only grows: nothing is
// deleted, so an empty slot always holds V's zero value. The zero value
// is an empty table.
type tagTable[V any] struct {
	slots []tagSlot[V]
	n     int
	shift uint8 // 64 − log₂ len(slots)
}

// home is key's first probe position.
func (h *tagTable[V]) home(key uint32) int {
	return int((uint64(key) ^ tableSeed) * 0x9E3779B97F4A7C15 >> h.shift)
}

// find probes for key: its slot, or the empty one it would take. The
// table must be non-empty; the ¾ bound guarantees an empty slot ends the
// probe.
func (h *tagTable[V]) find(key uint32) int {
	mask := len(h.slots) - 1
	i := h.home(key)
	for h.slots[i].key != key && h.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// get returns t's value, or V's zero value when t is absent. It stays
// within the inliner's budget: the post and query paths probe per tag.
func (h *tagTable[V]) get(t tags.Tag) (v V) {
	if h.n > 0 {
		v = h.slots[h.find(uint32(t)+1)].val
	}
	return v
}

// put returns t's value, adding t with V's zero value when it is absent
// (growing the table first if that would pass ¾). The pointer is good
// until the next put; t must be non-negative.
func (h *tagTable[V]) put(t tags.Tag) *V {
	key := uint32(t) + 1
	if h.n > 0 {
		if i := h.find(key); h.slots[i].key == key {
			return &h.slots[i].val
		}
	}
	if len(h.slots) == 0 || 4*(h.n+1) > 3*len(h.slots) {
		h.resize(h.n + 1)
	}
	i := h.find(key)
	h.slots[i].key = key
	h.n++
	return &h.slots[i].val
}

// resize rebuilds the table at the least power-of-two length ≥ 8 that
// holds size entries at most ¾ full; on an empty table it presizes.
func (h *tagTable[V]) resize(size int) {
	l := 8
	for 3*l < 4*size {
		l *= 2
	}
	old := h.slots
	h.slots = make([]tagSlot[V], l)
	h.shift = uint8(64 - bits.TrailingZeros(uint(l)))
	for _, s := range old {
		if s.key != 0 {
			h.slots[h.find(s.key)] = s
		}
	}
}
