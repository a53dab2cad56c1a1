package synth

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"incentivetag/internal/tags"
)

// fingerprint hashes every post of every resource plus the metadata that
// experiments depend on.
func fingerprint(ds *Dataset) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range ds.Resources {
		r := &ds.Resources[i]
		put(uint64(r.Initial))
		put(uint64(r.StableK))
		put(uint64(r.Leaf))
		for _, p := range r.Seq {
			for _, t := range p {
				put(uint64(t))
			}
			put(^uint64(0)) // post separator
		}
	}
	return h.Sum32()
}

// vocabCRC hashes the vocabulary's names in id order.
func vocabCRC(ds *Dataset) uint32 {
	h := crc32.NewIEEE()
	for _, name := range ds.Vocab.Names() {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	return h.Sum32()
}

// stableRFDCRC hashes every resource's stable rfd: its post count, mass,
// squared norm, support size and (tag, count) entries in tag order.
func stableRFDCRC(ds *Dataset) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	type entry struct {
		t tags.Tag
		n int64
	}
	var es []entry
	for i := range ds.Resources {
		c := ds.Resources[i].StableRFD
		put(uint64(c.Posts()))
		put(uint64(c.Mass()))
		put(math.Float64bits(c.Norm2()))
		put(uint64(c.Len()))
		es = es[:0]
		c.ForEach(func(t tags.Tag, n int64) { es = append(es, entry{t, n}) })
		slices.SortFunc(es, func(a, b entry) int { return int(a.t - b.t) })
		for _, e := range es {
			put(uint64(e.t))
			put(uint64(e.n))
		}
	}
	return h.Sum32()
}

// TestGoldenFingerprint pins the exact byte-level output of the default
// generator for a fixed seed. Any change to the generative model shifts
// every number in EXPERIMENTS.md, so it must be deliberate: update the
// constant AND regenerate EXPERIMENTS.md together.
func TestGoldenFingerprint(t *testing.T) {
	ds, err := Generate(DefaultConfig(50, 42))
	if err != nil {
		t.Fatal(err)
	}
	got := fingerprint(ds)
	const want = 0x6cfdaab9
	if got != want {
		t.Errorf("generator output changed: fingerprint 0x%08x, golden 0x%08x — "+
			"if intentional, update the golden value and regenerate EXPERIMENTS.md", got, want)
	}
	// The fingerprint covers neither the vocabulary nor the stable rfd's.
	if got, want := vocabCRC(ds), uint32(0x15102aa3); got != want {
		t.Errorf("vocabulary changed: crc 0x%08x, golden 0x%08x (%d names)", got, want, ds.Vocab.Size())
	}
	if got, want := stableRFDCRC(ds), uint32(0x34be32f7); got != want {
		t.Errorf("stable rfd's changed: crc 0x%08x, golden 0x%08x", got, want)
	}
}
