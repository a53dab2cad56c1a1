package sparse_test

import (
	"runtime"
	"testing"

	"incentivetag/internal/sparse"
	"incentivetag/internal/synth"
)

// MemBytes sizes the residency tier's resident-bytes budget, so it must
// describe what the vectors really hold: over many vectors built from
// synthetic posts (prefixes of every resource's sequence, so every table
// size from 8 slots up occurs), the measured heap growth stays within
// ±25 % of the summed estimate.
func TestMemBytesMatchesHeap(t *testing.T) {
	ds, err := synth.Generate(synth.DefaultConfig(500, 3))
	if err != nil {
		t.Fatal(err)
	}
	const cuts = 24
	vecs := make([]*sparse.Counts, 0, cuts*ds.N())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sum := 0
	for _, r := range ds.Resources {
		for j := 1; j <= cuts; j++ {
			c := sparse.FromSeq(r.Seq, j*len(r.Seq)/cuts)
			sum += c.MemBytes()
			vecs = append(vecs, c)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(vecs)
	runtime.KeepAlive(ds)
	if len(vecs) < 10000 {
		t.Fatalf("only %d vectors", len(vecs))
	}
	ratio := float64(growth) / float64(sum)
	t.Logf("%d vectors: heap grew %d B, Σ MemBytes %d B (ratio %.3f)", len(vecs), growth, sum, ratio)
	if ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("heap growth %d B is %.2f× Σ MemBytes %d B, want within ±25 %%", growth, ratio, sum)
	}
}
