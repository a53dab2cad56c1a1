package tagstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"incentivetag/internal/tags"
)

func TestScrubClean(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSegmentBytes: 512})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 120; i++ {
		if err := s.Append(uint32(i%7), randPost(rng)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean store reported dirty: %+v", rep)
	}
	if rep.Records != 120 || rep.Segments < 2 {
		t.Errorf("report %+v", rep)
	}
	s.Close()
}

func TestScrubDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		if err := s.Append(3, randPost(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte mid-file BEHIND the store's back.
	seg := filepath.Join(dir, "seg-000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("scrub missed mid-file corruption")
	}
	if rep.BadSegment != "seg-000001.log" || rep.FirstProblem == "" {
		t.Errorf("report %+v", rep)
	}
	if !rep.IndexMismatch {
		t.Error("record count mismatch not flagged")
	}
	s.Close()
}

// TestCrashPointPrefixRecovery is the randomized crash-point property
// test: a crash freezes the directory at some historical write frontier
// — sealed segments intact, the then-active segment cut at an arbitrary
// byte offset, later segments (and manifest entries) not yet in
// existence. For any such cut, Open must recover exactly the longest
// prefix of whole records below it: nothing lost, nothing invented,
// nothing torn.
func TestCrashPointPrefixRecovery(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSegmentBytes: 300})
	rng := rand.New(rand.NewSource(31))
	var posts []tags.Post
	var recSeg []int   // segment index each record landed in
	var recEnd []int64 // offset just past the record within its segment
	for i := 0; i < 400; i++ {
		p := randPost(rng)
		if err := s.Append(uint32(i%9), p); err != nil {
			t.Fatal(err)
		}
		posts = append(posts, p)
		recSeg = append(recSeg, len(s.segs)-1)
		recEnd = append(recEnd, s.written)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	segs := append([]string(nil), s.segs...)
	base := append([]uint64(nil), s.base...)
	sizes := make([]int64, len(segs))
	for i, name := range segs {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = fi.Size()
	}
	if len(segs) < 4 {
		t.Fatalf("want a multi-segment chain, got %d segments", len(segs))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 40; trial++ {
		cutSeg := rng.Intn(len(segs))
		cutOff := int64(rng.Intn(int(sizes[cutSeg]) + 1))

		// Build the crash image: copy segments up to the cut, truncate
		// the active one, write the manifest as it stood at that moment.
		crash := t.TempDir()
		for i := 0; i <= cutSeg; i++ {
			data, err := os.ReadFile(filepath.Join(dir, segs[i]))
			if err != nil {
				t.Fatal(err)
			}
			if i == cutSeg {
				data = data[:cutOff]
			}
			if err := os.WriteFile(filepath.Join(crash, segs[i]), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := writeManifest(crash, segs[:cutSeg+1], base[:cutSeg+1]); err != nil {
			t.Fatal(err)
		}

		want := 0
		for r := range posts {
			if recSeg[r] < cutSeg || (recSeg[r] == cutSeg && recEnd[r] <= cutOff) {
				want++
			}
		}

		re, err := Open(crash, Options{MaxSegmentBytes: 300})
		if err != nil {
			t.Fatalf("trial %d (seg %d off %d): open: %v", trial, cutSeg, cutOff, err)
		}
		if re.Records() != int64(want) {
			t.Fatalf("trial %d (seg %d off %d): recovered %d records, want %d",
				trial, cutSeg, cutOff, re.Records(), want)
		}
		if got := re.LastSeq(); got != uint64(want) {
			t.Fatalf("trial %d: LastSeq %d, want %d", trial, got, want)
		}
		k := 0
		if _, err := re.ScanFrom(1, func(seq uint64, rid uint32, p tags.Post) error {
			if seq != uint64(k+1) {
				t.Fatalf("trial %d: record %d has seq %d", trial, k, seq)
			}
			if !p.Equal(posts[k]) {
				t.Fatalf("trial %d: record %d content differs", trial, k)
			}
			k++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if k != want {
			t.Fatalf("trial %d: scan yielded %d records, want %d", trial, k, want)
		}
		// The recovered store accepts new appends at the right seq.
		if err := re.Append(1, tags.MustPost(2, 3)); err != nil {
			t.Fatal(err)
		}
		if got := re.LastSeq(); got != uint64(want)+1 {
			t.Fatalf("trial %d: post-recovery append seq %d", trial, got)
		}
		if rep, err := re.Scrub(); err != nil || !rep.Clean() {
			t.Fatalf("trial %d: post-recovery scrub: %+v err=%v", trial, rep, err)
		}
		re.Close()
	}
}

// A resource's posts read back in append order, and a rejected post
// leaves the records appended before it in place.
func TestAppendOrderAndRejectedPost(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	defer s.Close()
	seq := []tags.Post{tags.MustPost(1, 2), tags.MustPost(3), tags.MustPost(2, 4)}
	for _, p := range seq {
		if err := s.Append(9, p); err != nil {
			t.Fatal(err)
		}
	}
	got := postsByResource(t, s)[9]
	if len(got) != 3 {
		t.Fatalf("readback: %v", got)
	}
	for i := range seq {
		if !got[i].Equal(seq[i]) {
			t.Fatalf("item %d differs", i)
		}
	}
	if err := s.Append(10, tags.MustPost(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(10, tags.Post{}); err == nil {
		t.Fatal("empty post accepted")
	}
	if n := len(postsByResource(t, s)[10]); n != 1 {
		t.Errorf("record before the rejected post lost: count=%d", n)
	}
}
