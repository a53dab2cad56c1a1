package tagstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"incentivetag/internal/tags"
)

// fill appends n deterministic records for a handful of resources and
// returns them in append order.
func fill(t *testing.T, s *Store, seed int64, n int) []tags.Post {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]tags.Post, 0, n)
	for i := 0; i < n; i++ {
		p := randPost(rng)
		if err := s.Append(uint32(i%5), p); err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// collectFrom drains ScanFrom into a slice of (seq, post).
func collectFrom(t *testing.T, s *Store, from uint64) ([]uint64, []tags.Post) {
	t.Helper()
	var seqs []uint64
	var posts []tags.Post
	if _, err := s.ScanFrom(from, func(seq uint64, rid uint32, p tags.Post) error {
		seqs = append(seqs, seq)
		posts = append(posts, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return seqs, posts
}

// TestSegmentOrdinalsBeyondPadding: ordinals outgrow their %06d padding
// on long-lived logs (compaction bounds disk, ordinals run forever), at
// which point lexicographic name order stops matching rotation order —
// parsing and sorting must be numeric.
func TestSegmentOrdinalsBeyondPadding(t *testing.T) {
	if got := segNumber(segName(1000000)); got != 1000000 {
		t.Fatalf("segNumber(segName(1000000)) = %d", got)
	}
	if got := segNumber("seg-junk.log"); got != 0 {
		t.Fatalf("segNumber on junk = %d", got)
	}
	dir := t.TempDir()
	// A chain whose 7-digit segment sorts lexicographically BELOW its
	// 6-digit predecessor.
	s := open(t, dir, Options{})
	if err := s.Append(1, tags.MustPost(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.Rename(filepath.Join(dir, segName(1)), filepath.Join(dir, segName(999999))); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(dir, []string{segName(999999)}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	s = open(t, dir, Options{MaxSegmentBytes: 1}) // rotate on next append
	if err := s.Append(2, tags.MustPost(2)); err != nil {
		t.Fatal(err)
	}
	if want := segName(1000000); s.segs[len(s.segs)-1] != want {
		t.Fatalf("rotated into %s, want %s", s.segs[len(s.segs)-1], want)
	}
	s.Close()
	// Reopen must keep rotation order and classify nothing as stale.
	s = open(t, dir, Options{})
	defer s.Close()
	if s.LastSeq() != 2 || len(s.segs) != 2 || s.segs[0] != segName(999999) {
		t.Fatalf("reopen: segs=%v lastSeq=%d", s.segs, s.LastSeq())
	}
	_, posts := collectFrom(t, s, 1)
	if len(posts) != 2 {
		t.Fatalf("reopen lost records across the padding boundary: %d", len(posts))
	}
}

func TestSequenceNumbersAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSegmentBytes: 256})
	want := fill(t, s, 1, 100)
	if got := s.LastSeq(); got != 100 {
		t.Fatalf("LastSeq = %d, want 100", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = open(t, dir, Options{MaxSegmentBytes: 256})
	if got := s.LastSeq(); got != 100 {
		t.Fatalf("LastSeq after reopen = %d, want 100", got)
	}
	if got := s.FirstSeq(); got != 1 {
		t.Fatalf("FirstSeq = %d, want 1", got)
	}
	want = append(want, fill(t, s, 2, 50)...)
	if got := s.LastSeq(); got != 150 {
		t.Fatalf("LastSeq after more appends = %d, want 150", got)
	}
	seqs, posts := collectFrom(t, s, 1)
	if len(posts) != len(want) {
		t.Fatalf("ScanFrom(1) yielded %d records, want %d", len(posts), len(want))
	}
	for i := range want {
		if seqs[i] != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, seqs[i])
		}
		if !posts[i].Equal(want[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
	s.Close()
}

func TestScanFromSkipsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSegmentBytes: 200})
	want := fill(t, s, 3, 200)
	defer s.Close()
	if len(s.segs) < 3 {
		t.Fatalf("want several segments, got %d", len(s.segs))
	}
	fullBytes, err := s.ScanFrom(1, func(uint64, uint32, tags.Post) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []uint64{1, 2, 57, 199, 200, 201} {
		seqs, posts := collectFrom(t, s, from)
		wantN := 0
		if from <= 200 {
			wantN = 201 - int(from)
		}
		if len(posts) != wantN {
			t.Fatalf("ScanFrom(%d): %d records, want %d", from, len(posts), wantN)
		}
		for i, seq := range seqs {
			if seq != from+uint64(i) {
				t.Fatalf("ScanFrom(%d): record %d has seq %d", from, i, seq)
			}
			if !posts[i].Equal(want[seq-1]) {
				t.Fatalf("ScanFrom(%d): seq %d content differs", from, seq)
			}
		}
	}
	tailBytes, err := s.ScanFrom(190, func(uint64, uint32, tags.Post) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if tailBytes >= fullBytes {
		t.Errorf("tail scan read %d bytes, full scan %d — covered segments not skipped", tailBytes, fullBytes)
	}
}

func TestLegacyDirectoryAdoptsManifest(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSegmentBytes: 256})
	want := fill(t, s, 4, 80)
	s.Close()
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}

	s = open(t, dir, Options{MaxSegmentBytes: 256})
	defer s.Close()
	if got := s.LastSeq(); got != 80 {
		t.Fatalf("legacy reopen LastSeq = %d, want 80", got)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("manifest not rewritten for legacy dir: %v", err)
	}
	_, posts := collectFrom(t, s, 1)
	if len(posts) != len(want) {
		t.Fatalf("legacy reopen lost records: %d != %d", len(posts), len(want))
	}
}

func TestDropThrough(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSegmentBytes: 200})
	want := fill(t, s, 5, 200)
	nsegs := len(s.segs)
	if nsegs < 4 {
		t.Fatalf("want ≥ 4 segments, got %d", nsegs)
	}

	// Dropping through a seq inside the first segment drops nothing.
	if n, err := s.DropThrough(s.base[1] - 2); err != nil || n != 0 {
		t.Fatalf("partial-coverage drop: n=%d err=%v", n, err)
	}
	// Drop everything covered up to the middle of the chain.
	cut := s.base[nsegs/2] - 1 // last seq of segment nsegs/2 - 1
	n, err := s.DropThrough(cut)
	if err != nil {
		t.Fatal(err)
	}
	if n != nsegs/2 {
		t.Fatalf("dropped %d segments, want %d", n, nsegs/2)
	}
	if got := s.FirstSeq(); got != cut+1 {
		t.Fatalf("FirstSeq after drop = %d, want %d", got, cut+1)
	}
	if got := s.LastSeq(); got != 200 {
		t.Fatalf("LastSeq changed by drop: %d", got)
	}
	if s.Records() != int64(200-int(cut)) {
		t.Fatalf("Records = %d after dropping %d", s.Records(), cut)
	}
	// Appending still works and seqs continue.
	if err := s.Append(1, tags.MustPost(7)); err != nil {
		t.Fatal(err)
	}
	if got := s.LastSeq(); got != 201 {
		t.Fatalf("LastSeq after post-drop append = %d", got)
	}

	// Survivors read back correctly, from the live store and a reopen.
	check := func(s *Store) {
		t.Helper()
		seqs, posts := collectFrom(t, s, 1)
		if len(posts) != 200-int(cut)+1 {
			t.Fatalf("tail has %d records, want %d", len(posts), 200-int(cut)+1)
		}
		for i, seq := range seqs {
			if seq != cut+1+uint64(i) {
				t.Fatalf("tail record %d has seq %d", i, seq)
			}
			if int(seq) <= len(want) && !posts[i].Equal(want[seq-1]) {
				t.Fatalf("tail seq %d content differs", seq)
			}
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open(t, dir, Options{MaxSegmentBytes: 200})
	defer s.Close()
	check(s)
}

func TestOpenRemovesStaleDroppedSegments(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSegmentBytes: 200})
	fill(t, s, 6, 200)
	cut := s.base[2] - 1
	stale := s.segs[0]
	// Simulate a crash between manifest install and file deletion:
	// rewrite the manifest as DropThrough would, but keep the files.
	if err := writeManifest(dir, s.segs[2:], s.base[2:]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s = open(t, dir, Options{MaxSegmentBytes: 200})
	defer s.Close()
	if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
		t.Fatalf("stale dropped segment %s survived reopen (err=%v)", stale, err)
	}
	if got := s.FirstSeq(); got != cut+1 {
		t.Fatalf("FirstSeq = %d, want %d", got, cut+1)
	}
	if got := s.LastSeq(); got != 200 {
		t.Fatalf("LastSeq = %d, want 200", got)
	}
}

func TestOpenAdoptsOrphanRotatedSegment(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSegmentBytes: 200})
	fill(t, s, 7, 150)
	// Simulate a crash between rotation's file creation and its manifest
	// update: roll the manifest back to omit the newest segment.
	if len(s.segs) < 2 {
		t.Fatalf("want ≥ 2 segments")
	}
	if err := writeManifest(dir, s.segs[:len(s.segs)-1], s.base[:len(s.base)-1]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s = open(t, dir, Options{MaxSegmentBytes: 200})
	defer s.Close()
	if got := s.LastSeq(); got != 150 {
		t.Fatalf("orphan segment not adopted: LastSeq = %d, want 150", got)
	}
	_, posts := collectFrom(t, s, 1)
	if len(posts) != 150 {
		t.Fatalf("adopted reopen lost records: %d", len(posts))
	}
}

// latestSnapshot maps the newest valid snapshot, copies what the
// assertions need out of the mapping and releases it.
func latestSnapshot(t *testing.T, dir string) (seq uint64, payload string, ok bool, skipped int) {
	t.Helper()
	m, ok, skipped, err := MapLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return 0, "", false, skipped
	}
	seq, payload = m.LastSeq, string(m.Payload)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Payload != nil || m.Close() != nil {
		t.Fatal("Close must drop the payload and be safe to repeat")
	}
	return seq, payload, true, skipped
}

func TestSnapshotRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	if _, _, ok, _ := latestSnapshot(t, dir); ok {
		t.Fatal("empty dir yielded a snapshot")
	}
	if _, err := WriteSnapshot(dir, 10, []byte("state-ten")); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(dir, 25, []byte("state-twenty-five")); err != nil {
		t.Fatal(err)
	}
	seq, payload, ok, skipped := latestSnapshot(t, dir)
	if !ok || skipped != 0 {
		t.Fatalf("latest: ok=%v skipped=%d", ok, skipped)
	}
	if seq != 25 || payload != "state-twenty-five" {
		t.Fatalf("latest = (%d, %q)", seq, payload)
	}

	// Corrupt the newest snapshot: recovery must fall back to seq 10.
	path := filepath.Join(dir, snapName(25))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	seq, payload, ok, skipped = latestSnapshot(t, dir)
	if !ok {
		t.Fatal("fallback: no snapshot")
	}
	if seq != 10 || payload != "state-ten" || skipped != 1 {
		t.Fatalf("fallback = (%d, %q, skipped=%d)", seq, payload, skipped)
	}

	// A torn write (temp file) is invisible.
	if err := os.WriteFile(filepath.Join(dir, snapName(99)+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if seq, _, _, _ := latestSnapshot(t, dir); seq != 10 {
		t.Fatalf("temp file considered: seq=%d", seq)
	}

	// A truncated snapshot file is rejected, not misread.
	if err := os.WriteFile(filepath.Join(dir, snapName(99)), raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MapSnapshot(filepath.Join(dir, snapName(99))); err == nil {
		t.Fatal("truncated snapshot accepted")
	}

	// Prune is validity-aware: the damaged 25 and 99 go first, and the
	// oldest retained VALID seq is what compaction may drop through —
	// a damaged newer file must never displace the real fallback.
	removed, oldest, ok, err := PruneSnapshots(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 || !ok || oldest != 10 {
		t.Fatalf("prune: removed=%d oldest=%d ok=%v", removed, oldest, ok)
	}
	infos, err := ListSnapshots(dir)
	if err != nil || len(infos) != 1 || infos[0].LastSeq != 10 {
		t.Fatalf("after prune: %v err=%v", infos, err)
	}
}

func TestDirectoryLockExcludesSecondOpener(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if s.lock == nil {
		t.Skip("no flock support on this platform")
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second opener acquired a locked store")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock dies with its holder: a crashed process never blocks the
	// restart.
	s = open(t, dir, Options{})
	s.Close()
}
