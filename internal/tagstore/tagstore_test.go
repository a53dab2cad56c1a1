package tagstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"incentivetag/internal/tags"
)

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randPost(rng *rand.Rand) tags.Post {
	n := 1 + rng.Intn(5)
	ts := make([]tags.Tag, n)
	for i := range ts {
		ts[i] = tags.Tag(rng.Intn(5000))
	}
	p, err := tags.NewPost(ts...)
	if err != nil {
		panic(err)
	}
	return p
}

// postsByResource reads the whole log through ScanFrom and groups it by
// resource, each resource's posts in append order.
func postsByResource(t *testing.T, s *Store) map[uint32]tags.Seq {
	t.Helper()
	out := map[uint32]tags.Seq{}
	if _, err := s.ScanFrom(1, func(_ uint64, rid uint32, p tags.Post) error {
		out[rid] = append(out[rid], p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	want := map[uint32]tags.Seq{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		rid := uint32(rng.Intn(20))
		p := randPost(rng)
		if err := s.Append(rid, p); err != nil {
			t.Fatal(err)
		}
		want[rid] = append(want[rid], p)
	}
	all := postsByResource(t, s)
	if len(all) != len(want) {
		t.Fatalf("log holds %d resources, want %d", len(all), len(want))
	}
	for rid, seq := range want {
		got := all[rid]
		if len(got) != len(seq) {
			t.Fatalf("rid %d: %d posts, want %d", rid, len(got), len(seq))
		}
		for k := range seq {
			if !got[k].Equal(seq[k]) {
				t.Fatalf("rid %d post %d: %v != %v", rid, k, got[k], seq[k])
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenPreservesData(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	rng := rand.New(rand.NewSource(2))
	var posts tags.Seq
	for i := 0; i < 100; i++ {
		p := randPost(rng)
		posts = append(posts, p)
		if err := s.Append(7, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, Options{})
	defer s2.Close()
	got := postsByResource(t, s2)[7]
	if len(got) != 100 {
		t.Fatalf("reopened store has %d posts, want 100", len(got))
	}
	for k := range posts {
		if !got[k].Equal(posts[k]) {
			t.Fatalf("post %d differs after reopen", k)
		}
	}
	if s2.Records() != 100 {
		t.Errorf("Records = %d", s2.Records())
	}
	// Appending after reopen continues the log.
	if err := s2.Append(7, posts[0]); err != nil {
		t.Fatal(err)
	}
	if s2.Records() != 101 || len(postsByResource(t, s2)[7]) != 101 {
		t.Errorf("Records after append = %d", s2.Records())
	}
}

// Every torn-tail length from 1 byte to a full record must recover to
// exactly the complete-record prefix.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		if err := s.Append(uint32(i%5), randPost(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-000001.log")
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries of the intact log, to compute exact expectations.
	var ends []int
	for off := 0; off+8 <= len(full); {
		n := int(uint32(full[off]) | uint32(full[off+1])<<8 | uint32(full[off+2])<<16 | uint32(full[off+3])<<24)
		off += 4 + n + 4
		ends = append(ends, off)
	}

	for cut := 1; cut <= 24; cut += 3 {
		if err := os.WriteFile(seg, full[:len(full)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		recs := s2.Records()
		// Exactly the records whose frames fit in the truncated file
		// must survive.
		want := int64(0)
		for _, e := range ends {
			if e <= len(full)-cut {
				want++
			}
		}
		if recs != want {
			t.Fatalf("cut %d: %d records, want %d", cut, recs, want)
		}
		// All surviving records decode.
		if _, posts := collectFrom(t, s2, 1); int64(len(posts)) != recs {
			t.Fatalf("cut %d: scan saw %d, Records says %d", cut, len(posts), recs)
		}
		s2.Close()
		// Restore for the next iteration.
		if err := os.WriteFile(seg, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// Flipping a byte inside the tail record is caught by CRC and truncated.
func TestCorruptTailCRC(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		if err := s.Append(1, randPost(rng)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := filepath.Join(dir, "seg-000001.log")
	data, _ := os.ReadFile(seg)
	data[len(data)-6] ^= 0xff // corrupt inside the last record's payload/crc
	os.WriteFile(seg, data, 0o644)

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if s2.Records() != 9 {
		t.Errorf("Records = %d, want 9 (corrupt tail dropped)", s2.Records())
	}
}

// A read-only open leaves a torn tail on disk; ScanFrom must stop at the
// records Open validated instead of reading into the tear, wherever in
// the last frame the tear falls.
func TestReadOnlyScanStopsAtTornTail(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	rng := rand.New(rand.NewSource(8))
	var posts []tags.Post
	for i := 0; i < 10; i++ {
		p := randPost(rng)
		if err := s.Append(uint32(i%3), p); err != nil {
			t.Fatal(err)
		}
		posts = append(posts, p)
	}
	last := s.written - int64(4+len(encodePost(nil, 0, posts[9]))+4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		keep int64 // bytes of the last frame left on disk
	}{
		{"header", 2},
		{"payload", 5},
		{"crc", int64(len(full)) - last - 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			torn := full[:last+tc.keep]
			if err := os.WriteFile(seg, torn, 0o644); err != nil {
				t.Fatal(err)
			}
			ro := open(t, dir, Options{ReadOnly: true})
			defer ro.Close()
			if ro.Records() != 9 {
				t.Fatalf("read-only open counts %d records, want 9", ro.Records())
			}
			_, got := collectFrom(t, ro, 1)
			if len(got) != 9 {
				t.Fatalf("scan delivered %d records, want 9", len(got))
			}
			for k := range got {
				if !got[k].Equal(posts[k]) {
					t.Fatalf("record %d differs", k)
				}
			}
			if fi, err := os.Stat(seg); err != nil || fi.Size() != int64(len(torn)) {
				t.Fatalf("read-only open changed the torn segment: %v %v", fi, err)
			}
		})
	}
}

// Corruption in a non-final segment is a hard error, not silent loss.
func TestCorruptMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSegmentBytes: 256})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if err := s.Append(uint32(i%3), randPost(rng)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	first := filepath.Join(dir, segs[0])
	data, _ := os.ReadFile(first)
	data[10] ^= 0xff
	os.WriteFile(first, data, 0o644)
	if _, err := Open(dir, Options{}); err == nil {
		t.Error("corrupt middle segment opened without error")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSegmentBytes: 128})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		if err := s.Append(uint32(i), randPost(rng)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments < 2 {
		t.Errorf("no rotation happened: %d segments", st.Segments)
	}
	if st.Records != 100 {
		t.Errorf("Stat = %+v", st)
	}
	// Everything still readable across segments.
	all := postsByResource(t, s)
	for i := 0; i < 100; i++ {
		if len(all[uint32(i)]) != 1 {
			t.Fatalf("rid %d unreadable after rotation", i)
		}
	}
	s.Close()
}

func TestAppendValidation(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	defer s.Close()
	if err := s.Append(1, tags.Post{}); err == nil {
		t.Error("empty post accepted")
	}
}

func TestScanOrder(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	posts := []tags.Post{tags.MustPost(1), tags.MustPost(2), tags.MustPost(3)}
	for i, p := range posts {
		if err := s.Append(uint32(i), p); err != nil {
			t.Fatal(err)
		}
	}
	_, seen := collectFrom(t, s, 1)
	if len(seen) != len(posts) {
		t.Fatalf("scanned %d records, want %d", len(seen), len(posts))
	}
	for i, p := range seen {
		if p[0] != tags.Tag(i+1) {
			t.Fatalf("scan order wrong: %v", seen)
		}
	}
	s.Close()
}

func TestSyncOnFlush(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SyncOnFlush: true})
	if err := s.Append(1, tags.MustPost(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

func TestDeltaEncodingLargeTagIDs(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	p := tags.MustPost(0, 1<<20, 1<<28)
	if err := s.Append(3, p); err != nil {
		t.Fatal(err)
	}
	got := postsByResource(t, s)[3]
	if len(got) != 1 || !got[0].Equal(p) {
		t.Fatalf("large-id round trip failed: %v", got)
	}
	s.Close()
}

// A group-committed batch must be byte-equivalent to the same records
// appended one at a time: identical read-back, index, reopen, and
// interleaving with single Appends.
func TestAppendBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	rng := rand.New(rand.NewSource(3))
	want := map[uint32]tags.Seq{}
	var global []tags.Post
	var b Batch
	for round := 0; round < 30; round++ {
		b.Reset()
		for i := 0; i < 1+rng.Intn(8); i++ {
			rid := uint32(rng.Intn(10))
			p := randPost(rng)
			if err := b.Add(rid, p); err != nil {
				t.Fatal(err)
			}
			want[rid] = append(want[rid], p)
			global = append(global, p)
		}
		recs := b.Records()
		if err := s.AppendBatch(&b); err != nil {
			t.Fatal(err)
		}
		// Interleave a plain Append between batches.
		rid := uint32(rng.Intn(10))
		p := randPost(rng)
		if err := s.Append(rid, p); err != nil {
			t.Fatal(err)
		}
		want[rid] = append(want[rid], p)
		global = append(global, p)
		if recs == 0 {
			t.Fatal("empty batch recorded")
		}
	}
	check := func(s *Store) {
		t.Helper()
		if int(s.Records()) != len(global) {
			t.Fatalf("store has %d records, want %d", s.Records(), len(global))
		}
		all := postsByResource(t, s)
		for rid, seq := range want {
			got := all[rid]
			if len(got) != len(seq) {
				t.Fatalf("rid %d: %d posts, want %d", rid, len(got), len(seq))
			}
			for k := range seq {
				if !got[k].Equal(seq[k]) {
					t.Fatalf("rid %d post %d mismatch", rid, k)
				}
			}
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := open(t, dir, Options{})
	defer re.Close()
	check(re)
}

// AppendBatch preserves intra-batch record order in the global scan
// order (the WAL ordering guarantee group commit must not break).
func TestAppendBatchScanOrder(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	defer s.Close()
	var b Batch
	var wantRids []uint32
	for i := 0; i < 25; i++ {
		rid := uint32(i % 7)
		if err := b.Add(rid, tags.MustPost(tags.Tag(i))); err != nil {
			t.Fatal(err)
		}
		wantRids = append(wantRids, rid)
	}
	if err := s.AppendBatch(&b); err != nil {
		t.Fatal(err)
	}
	var gotRids []uint32
	var gotTags []tags.Tag
	if _, err := s.ScanFrom(1, func(_ uint64, rid uint32, p tags.Post) error {
		gotRids = append(gotRids, rid)
		gotTags = append(gotTags, p[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(gotRids) != len(wantRids) {
		t.Fatalf("scanned %d records, want %d", len(gotRids), len(wantRids))
	}
	for i := range wantRids {
		if gotRids[i] != wantRids[i] || gotTags[i] != tags.Tag(i) {
			t.Fatalf("record %d out of order: rid %d tag %d", i, gotRids[i], gotTags[i])
		}
	}
}

// Batches respect segment rotation and empty batches are no-ops.
func TestAppendBatchRotationAndEmpty(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSegmentBytes: 256})
	defer s.Close()
	var empty Batch
	if err := s.AppendBatch(&empty); err != nil {
		t.Fatal(err)
	}
	if s.Records() != 0 {
		t.Fatal("empty batch wrote records")
	}
	rng := rand.New(rand.NewSource(7))
	total := 0
	for round := 0; round < 40; round++ {
		var b Batch
		for i := 0; i < 5; i++ {
			if err := b.Add(uint32(rng.Intn(4)), randPost(rng)); err != nil {
				t.Fatal(err)
			}
			total++
		}
		if err := s.AppendBatch(&b); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", st.Segments)
	}
	if int(s.Records()) != total {
		t.Fatalf("records %d, want %d", s.Records(), total)
	}
	// Reopen re-indexes across the rotated segments.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := open(t, dir, Options{})
	defer re.Close()
	if int(re.Records()) != total {
		t.Fatalf("reopened records %d, want %d", re.Records(), total)
	}
}

// Batch.Add rejects empty posts and leaves the batch unchanged.
func TestBatchValidation(t *testing.T) {
	var b Batch
	if err := b.Add(1, tags.Post{}); err == nil {
		t.Error("empty post accepted")
	}
	if b.Records() != 0 || len(b.buf) != 0 {
		t.Error("failed Add left bytes behind")
	}
}
