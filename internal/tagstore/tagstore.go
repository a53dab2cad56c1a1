// Package tagstore is an embedded, append-only post store: the storage
// substrate a production incentive-tagging service would persist its
// tagging stream into (the paper's "system prototype" future-work item).
//
// Layout: a directory of segment files seg-NNNNNN.log, each a sequence of
// CRC-framed records, described by a MANIFEST file. One record is one
// post:
//
//	[u32 payloadLen][payload][u32 crc32(payload)]
//	payload = uvarint resourceID, uvarint nTags,
//	          nTags delta-encoded uvarint tag ids (posts are sorted)
//
// Every record carries an implicit, monotonically increasing sequence
// number: the first record ever appended is seq 1, and the MANIFEST
// records each segment's first seq, so a record's seq is recoverable
// from its position alone — no per-record framing overhead. Sequence
// numbers are what tie snapshots (WriteSnapshot/MapLatestSnapshot) to the
// log: a snapshot covering seq S plus the records with seq > S replay
// to the exact pre-crash state, and DropThrough(S) reclaims the sealed
// segments a snapshot has made redundant.
//
// Properties:
//
//   - appends go to the active (last) segment through a buffered writer;
//     Flush makes them durable (optionally fsync);
//   - opening a store reads the MANIFEST (or derives one for legacy
//     directories) and scans the listed segments, rebuilding an
//     in-memory index of (segment, offset, length) per resource for
//     random access;
//   - a torn write at the tail of the last segment (crash mid-append) is
//     detected by length/CRC validation and truncated away — recovery is
//     automatic and lossless up to the last complete record;
//   - the MANIFEST is replaced atomically (write-temp + rename), so a
//     crash during rotation or compaction leaves either the old or the
//     new manifest, never a torn one; segment files orphaned by such a
//     crash are adopted (rotation) or removed (compaction) on open;
//   - DropThrough drops sealed segments fully covered by a snapshot
//     sequence number, bounding on-disk log size under sustained ingest;
//   - Compact rewrites the log grouped by resource id for locality and
//     atomically swaps segment files (dataset storage only — it restarts
//     sequence numbering, so it refuses to run on snapshot-covered
//     stores).
package tagstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"incentivetag/internal/codec"
	"incentivetag/internal/tags"
)

const (
	segPrefix      = "seg-"
	segSuffix      = ".log"
	maxRecordBytes = 1 << 20 // sanity bound on a single record
)

// Options configure a Store.
type Options struct {
	// MaxSegmentBytes rolls the active segment when it grows past this
	// size. Zero means 4 MiB.
	MaxSegmentBytes int64
	// SyncOnFlush issues fsync on Flush for durability against OS crashes
	// (not just process crashes).
	SyncOnFlush bool
	// ReadOnly opens the store for reading only: the directory lock is
	// shared (any number of concurrent readers, but no writer), nothing
	// on disk is created or mutated — no manifest rewrite, no torn-tail
	// truncation, no lock file on read-only mounts — and Append/rotate/
	// compaction refuse. The dataset-load path (synth.Load) uses this so
	// corpus directories can be read concurrently and from read-only
	// media.
	ReadOnly bool
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	return o
}

// recordRef locates one record.
type recordRef struct {
	seg int32
	off int64 // offset of the frame start
	n   int32 // payload length
}

// Store is an open post store. It is not safe for concurrent use; wrap it
// with external synchronization if shared (matching typical embedded-log
// designs where a single writer owns the log).
type Store struct {
	dir  string
	opts Options

	lock    *os.File   // exclusive directory lock (nil where unsupported)
	segs    []string   // segment file names in order
	base    []uint64   // first sequence number of each segment, parallel to segs
	files   []*os.File // read handles per segment
	active  *os.File   // write handle on last segment
	w       *bufio.Writer
	written int64  // current size of active segment
	nextSeq uint64 // sequence number the next appended record receives

	index   map[uint32][]recordRef
	records int64
	order   []uint32 // resource ids in first-seen order

	encBuf []byte // reusable scratch for single-record Append encoding
}

// Open opens (or creates) a store directory, reconciling the MANIFEST
// with the segment files on disk, scanning the live segments and
// recovering from torn tails. Legacy directories without a manifest are
// adopted (sequence numbers start at 1) and gain one.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tagstore: mkdir: %w", err)
	}
	lock, err := lockDir(dir, opts.ReadOnly)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, lock: lock, index: make(map[uint32][]recordRef)}
	names, err := listSegments(dir)
	if err != nil {
		s.Close()
		return nil, err
	}
	names, base, rewrite, err := reconcileManifest(dir, names, opts.ReadOnly)
	if err != nil {
		s.Close()
		return nil, err
	}
	if len(names) == 0 {
		if opts.ReadOnly {
			s.Close()
			return nil, fmt.Errorf("tagstore: %s has no segments to open read-only", dir)
		}
		names, base, rewrite = []string{segName(1)}, []uint64{1}, true
		f, err := os.OpenFile(filepath.Join(dir, names[0]), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("tagstore: create segment: %w", err)
		}
		f.Close()
	}
	s.segs, s.base = names, base
	seq := uint64(1)
	if base[0] != 0 {
		seq = base[0]
	}
	for si, name := range names {
		if base[si] == 0 {
			base[si] = seq // legacy or adopted segment: seq derived positionally
		} else if base[si] != seq {
			s.Close()
			return nil, fmt.Errorf("tagstore: segment %s starts at seq %d but manifest says %d", name, seq, base[si])
		}
		path := filepath.Join(dir, name)
		before := s.records
		if err := s.scanSegment(si, path, si == len(names)-1); err != nil {
			s.Close()
			return nil, err
		}
		seq += uint64(s.records - before)
	}
	s.nextSeq = seq
	if rewrite && !opts.ReadOnly {
		if err := writeManifest(dir, s.segs, s.base); err != nil {
			s.Close()
			return nil, err
		}
	}
	// Open read handles and (unless read-only) the active writer.
	for _, name := range s.segs {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("tagstore: open segment: %w", err)
		}
		s.files = append(s.files, f)
	}
	if opts.ReadOnly {
		return s, nil
	}
	last := filepath.Join(dir, s.segs[len(s.segs)-1])
	af, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("tagstore: open active segment: %w", err)
	}
	st, err := af.Stat()
	if err != nil {
		af.Close()
		s.Close()
		return nil, fmt.Errorf("tagstore: stat active segment: %w", err)
	}
	s.active = af
	s.written = st.Size()
	s.w = bufio.NewWriterSize(af, 1<<16)
	return s, nil
}

func segName(i int) string { return fmt.Sprintf("%s%06d%s", segPrefix, i, segSuffix) }

// segNumber parses the ordinal out of a segment file name; unparsable
// names yield 0 (they cannot be produced by segName). Parsed
// numerically, not positionally: %06d grows past six digits on
// long-lived logs (DropThrough keeps disk bounded but ordinals run
// forever), and every ordering decision in this package goes through
// this function rather than lexicographic name compares, which stop
// agreeing with rotation order at seg-1000000.
func segNumber(name string) int {
	digits := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	i, err := strconv.Atoi(digits)
	if err != nil || i < 0 {
		return 0
	}
	return i
}

func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tagstore: readdir: %w", err)
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix) {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return segNumber(names[i]) < segNumber(names[j]) })
	return names, nil
}

// scanSegment indexes one segment. For the last segment, a torn or
// corrupt tail is truncated; anywhere else it is a hard error.
func (s *Store) scanSegment(si int, path string, isLast bool) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("tagstore: open %s: %w", path, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var off int64
	var hdr [4]byte
	payload := make([]byte, 0, 512)
	for {
		_, err := io.ReadFull(br, hdr[:])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return s.handleTail(path, off, isLast, fmt.Errorf("short header: %w", err))
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 || n > maxRecordBytes {
			return s.handleTail(path, off, isLast, fmt.Errorf("implausible record length %d", n))
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return s.handleTail(path, off, isLast, fmt.Errorf("short payload: %w", err))
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
			return s.handleTail(path, off, isLast, fmt.Errorf("short crc: %w", err))
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBuf[:]) {
			return s.handleTail(path, off, isLast, fmt.Errorf("crc mismatch"))
		}
		rid, _, err := decodePost(payload)
		if err != nil {
			return s.handleTail(path, off, isLast, err)
		}
		if _, seen := s.index[rid]; !seen {
			s.order = append(s.order, rid)
		}
		s.index[rid] = append(s.index[rid], recordRef{seg: int32(si), off: off, n: int32(n)})
		s.records++
		off += int64(4 + len(payload) + 4)
	}
}

// handleTail truncates a damaged tail on the last segment, or fails.
// A read-only open leaves the tear on disk and simply stops indexing at
// it — same recovered contents, no mutation.
func (s *Store) handleTail(path string, goodOff int64, isLast bool, cause error) error {
	if !isLast {
		return fmt.Errorf("tagstore: segment %s corrupt at offset %d: %v", path, goodOff, cause)
	}
	if s.opts.ReadOnly {
		return nil
	}
	if err := os.Truncate(path, goodOff); err != nil {
		return fmt.Errorf("tagstore: truncating torn tail of %s: %w", path, err)
	}
	return nil
}

// writable guards every mutating operation on a read-only store.
func (s *Store) writable() error {
	if s.opts.ReadOnly {
		return fmt.Errorf("tagstore: store opened read-only")
	}
	return nil
}

// encodePost renders the payload for (rid, p) into buf: uvarint rid,
// uvarint tag count, then the tag ids delta-encoded from a base of 0
// (codec.Delta's store convention — the first tag lands raw, later tags
// as gaps; posts are sorted ascending). Primitives come from
// internal/codec, the implementation shared with the engine's state
// format.
func encodePost(buf []byte, rid uint32, p tags.Post) []byte {
	buf = codec.AppendUvarint(buf, uint64(rid))
	buf = codec.AppendUvarint(buf, uint64(len(p)))
	prev := uint64(0)
	for i, t := range p {
		v := uint64(t)
		if i == 0 {
			buf = codec.AppendUvarint(buf, v)
		} else {
			buf = codec.AppendUvarint(buf, v-prev)
		}
		prev = v
	}
	return buf
}

// decodePost parses a payload.
func decodePost(payload []byte) (uint32, tags.Post, error) {
	r := codec.NewReader(payload, "tagstore")
	rid := r.Uvarint("resource id")
	n := r.Uvarint("tag count")
	if r.Err() == nil && (n == 0 || n > 1<<16) {
		return 0, nil, fmt.Errorf("tagstore: bad tag count")
	}
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	post := make(tags.Post, 0, n)
	d := codec.NewDelta(0)
	for i := uint64(0); i < n; i++ {
		v := d.Absorb(r.Uvarint("tag delta"))
		if r.Err() != nil {
			return 0, nil, r.Err()
		}
		post = append(post, tags.Tag(v))
	}
	if err := r.Finish(); err != nil {
		return 0, nil, fmt.Errorf("tagstore: %d trailing payload bytes", r.Remaining())
	}
	return uint32(rid), post, nil
}

// Append writes one post for resource rid. The data is buffered; call
// Flush (or Close) to make it durable. The encode scratch is reused
// across calls, so steady-state appends are allocation-free (beyond the
// index entry).
func (s *Store) Append(rid uint32, p tags.Post) error {
	if err := s.writable(); err != nil {
		return err
	}
	if len(p) == 0 {
		return fmt.Errorf("tagstore: empty post")
	}
	s.encBuf = encodePost(s.encBuf[:0], rid, p)
	payload := s.encBuf
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("tagstore: record too large (%d bytes)", len(payload))
	}
	if s.written >= s.opts.MaxSegmentBytes {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := s.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("tagstore: append: %w", err)
	}
	if _, err := s.w.Write(payload); err != nil {
		return fmt.Errorf("tagstore: append: %w", err)
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(payload))
	if _, err := s.w.Write(crcBuf[:]); err != nil {
		return fmt.Errorf("tagstore: append: %w", err)
	}
	si := int32(len(s.segs) - 1)
	if _, seen := s.index[rid]; !seen {
		s.order = append(s.order, rid)
	}
	s.index[rid] = append(s.index[rid], recordRef{seg: si, off: s.written, n: int32(len(payload))})
	s.records++
	s.nextSeq++
	s.written += int64(4 + len(payload) + 4)
	return nil
}

// Batch accumulates fully framed records for a group commit. It is a
// reusable buffer: callers Add records, hand the batch to AppendBatch,
// then Reset it for the next group. A Batch belongs to one writer at a
// time (the engine keeps one per shard behind the shard lock).
type Batch struct {
	buf  []byte
	rids []uint32
	lens []int32 // payload length per record, parallel to rids
}

// Add frames one post into the batch (header + payload + CRC), exactly
// the byte layout Append produces.
func (b *Batch) Add(rid uint32, p tags.Post) error {
	if len(p) == 0 {
		return fmt.Errorf("tagstore: empty post")
	}
	start := len(b.buf)
	b.buf = append(b.buf, 0, 0, 0, 0) // header placeholder
	b.buf = encodePost(b.buf, rid, p)
	n := len(b.buf) - start - 4
	if n > maxRecordBytes {
		b.buf = b.buf[:start]
		return fmt.Errorf("tagstore: record too large (%d bytes)", n)
	}
	binary.LittleEndian.PutUint32(b.buf[start:], uint32(n))
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(b.buf[start+4:]))
	b.buf = append(b.buf, crcBuf[:]...)
	b.rids = append(b.rids, rid)
	b.lens = append(b.lens, int32(n))
	return nil
}

// Records returns the number of records currently framed in the batch.
func (b *Batch) Records() int { return len(b.rids) }

// Bytes returns the framed size of the batch.
func (b *Batch) Bytes() int { return len(b.buf) }

// Reset empties the batch, retaining its buffers for reuse.
func (b *Batch) Reset() {
	b.buf = b.buf[:0]
	b.rids = b.rids[:0]
	b.lens = b.lens[:0]
}

// AppendBatch group-commits every record framed in b with a single
// buffered write, updating the index as Append would. Record order within
// the batch is preserved; durability still requires Flush (or Close), as
// with Append. The batch is not consumed — call Reset to reuse it.
//
// Segment rotation is checked once per batch, so a large batch may
// overshoot MaxSegmentBytes by its own size (the same soft bound a single
// oversized record already has).
func (s *Store) AppendBatch(b *Batch) error {
	if err := s.writable(); err != nil {
		return err
	}
	if b.Records() == 0 {
		return nil
	}
	if s.written >= s.opts.MaxSegmentBytes {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	if _, err := s.w.Write(b.buf); err != nil {
		return fmt.Errorf("tagstore: append batch: %w", err)
	}
	si := int32(len(s.segs) - 1)
	off := s.written
	for k, rid := range b.rids {
		if _, seen := s.index[rid]; !seen {
			s.order = append(s.order, rid)
		}
		s.index[rid] = append(s.index[rid], recordRef{seg: si, off: off, n: b.lens[k]})
		off += int64(4+b.lens[k]) + 4
	}
	s.records += int64(len(b.rids))
	s.nextSeq += uint64(len(b.rids))
	s.written = off
	return nil
}

// rotate seals the active segment and starts a new one, recording the
// new segment's first sequence number in the manifest. The segment file
// is created before the manifest is updated; a crash between the two
// leaves an orphan that reconcileManifest adopts on the next open.
func (s *Store) rotate() error {
	if err := s.Flush(); err != nil {
		return err
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("tagstore: close active: %w", err)
	}
	name := segName(segNumber(s.segs[len(s.segs)-1]) + 1)
	path := filepath.Join(s.dir, name)
	af, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("tagstore: rotate: %w", err)
	}
	rf, err := os.Open(path)
	if err != nil {
		af.Close()
		return fmt.Errorf("tagstore: rotate read handle: %w", err)
	}
	s.segs = append(s.segs, name)
	s.base = append(s.base, s.nextSeq)
	s.files = append(s.files, rf)
	s.active = af
	s.w = bufio.NewWriterSize(af, 1<<16)
	s.written = 0
	return writeManifest(s.dir, s.segs, s.base)
}

// Flush drains the write buffer (and fsyncs when configured).
func (s *Store) Flush() error {
	if s.w == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("tagstore: flush: %w", err)
	}
	if s.opts.SyncOnFlush {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("tagstore: fsync: %w", err)
		}
	}
	return nil
}

// Close flushes and releases all file handles.
func (s *Store) Close() error {
	var first error
	if s.w != nil {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	if s.active != nil {
		if err := s.active.Close(); err != nil && first == nil {
			first = err
		}
		s.active = nil
	}
	for _, f := range s.files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.files = nil
	s.w = nil
	if s.lock != nil {
		// Closing the handle releases the flock; the LOCK file itself
		// stays (removing it would race a concurrent opener).
		if err := s.lock.Close(); err != nil && first == nil {
			first = err
		}
		s.lock = nil
	}
	return first
}

// Count returns the number of stored posts for rid.
func (s *Store) Count(rid uint32) int { return len(s.index[rid]) }

// Records returns the total number of stored posts.
func (s *Store) Records() int64 { return s.records }

// Resources returns all resource ids in first-seen order.
func (s *Store) Resources() []uint32 {
	out := make([]uint32, len(s.order))
	copy(out, s.order)
	return out
}

// readRecord fetches and decodes one record.
func (s *Store) readRecord(ref recordRef) (uint32, tags.Post, error) {
	if err := s.Flush(); err != nil {
		return 0, nil, err
	}
	buf := make([]byte, ref.n)
	if _, err := s.files[ref.seg].ReadAt(buf, ref.off+4); err != nil {
		return 0, nil, fmt.Errorf("tagstore: read record: %w", err)
	}
	return decodePost(buf)
}

// Posts returns rid's posts in append order.
func (s *Store) Posts(rid uint32) (tags.Seq, error) {
	refs := s.index[rid]
	out := make(tags.Seq, 0, len(refs))
	for _, ref := range refs {
		id, p, err := s.readRecord(ref)
		if err != nil {
			return nil, err
		}
		if id != rid {
			return nil, fmt.Errorf("tagstore: index corruption: wanted rid %d, found %d", rid, id)
		}
		out = append(out, p)
	}
	return out, nil
}

// Scan iterates every record in global append order. The callback may
// return an error to stop early.
func (s *Store) Scan(fn func(rid uint32, p tags.Post) error) error {
	if err := s.Flush(); err != nil {
		return err
	}
	for si := range s.segs {
		path := filepath.Join(s.dir, s.segs[si])
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("tagstore: scan open: %w", err)
		}
		br := bufio.NewReaderSize(f, 1<<16)
		err = scanRecords(br, func(rid uint32, p tags.Post) error { return fn(rid, p) })
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// scanRecords decodes frames until EOF; malformed data is an error here
// (recovery happens only at Open).
func scanRecords(br *bufio.Reader, fn func(uint32, tags.Post) error) error {
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("tagstore: scan header: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 || n > maxRecordBytes {
			return fmt.Errorf("tagstore: scan: implausible record length %d", n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return fmt.Errorf("tagstore: scan payload: %w", err)
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
			return fmt.Errorf("tagstore: scan crc: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBuf[:]) {
			return fmt.Errorf("tagstore: scan: crc mismatch")
		}
		rid, p, err := decodePost(payload)
		if err != nil {
			return err
		}
		if err := fn(rid, p); err != nil {
			return err
		}
	}
}

// LastSeq returns the sequence number of the most recently appended
// record (0 when the store has never held a record). Sequence numbers
// are assigned contiguously from 1 and survive reopen; only Compact
// restarts them.
func (s *Store) LastSeq() uint64 { return s.nextSeq - 1 }

// FirstSeq returns the sequence number of the oldest record still on
// disk — 1 until DropThrough reclaims covered segments. When the store
// holds no records it returns LastSeq()+1.
func (s *Store) FirstSeq() uint64 {
	if len(s.base) == 0 {
		return 1
	}
	return s.base[0]
}

// ScanFrom iterates every record with sequence number ≥ from, in global
// append order, passing each record's seq to the callback. Segments
// entirely below from are skipped without reading; the segment
// containing from is read from its start (records below from are decoded
// but not delivered). It returns the number of log bytes read — the
// replay-cost figure a recovery benchmark wants. The callback may return
// an error to stop early.
func (s *Store) ScanFrom(from uint64, fn func(seq uint64, rid uint32, p tags.Post) error) (bytesRead int64, err error) {
	if err := s.Flush(); err != nil {
		return 0, err
	}
	for si := range s.segs {
		end := s.nextSeq // first seq beyond this segment
		if si+1 < len(s.segs) {
			end = s.base[si+1]
		}
		if end <= from {
			continue
		}
		path := filepath.Join(s.dir, s.segs[si])
		f, err := os.Open(path)
		if err != nil {
			return bytesRead, fmt.Errorf("tagstore: scan open: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return bytesRead, fmt.Errorf("tagstore: scan stat: %w", err)
		}
		bytesRead += fi.Size()
		br := bufio.NewReaderSize(f, 1<<16)
		seq := s.base[si]
		err = scanRecords(br, func(rid uint32, p tags.Post) error {
			cur := seq
			seq++
			if cur < from {
				return nil
			}
			return fn(cur, rid, p)
		})
		f.Close()
		if err != nil {
			return bytesRead, err
		}
	}
	return bytesRead, nil
}

// DropThrough removes every sealed segment whose records are all covered
// by sequence number seq — the log-compaction step run after a snapshot
// covering seq has been durably written. The active segment is never
// dropped. The manifest is atomically replaced before any file is
// deleted, so a crash mid-drop leaves only stale files that the next
// open removes. Returns the number of segments dropped.
func (s *Store) DropThrough(seq uint64) (int, error) {
	if err := s.writable(); err != nil {
		return 0, err
	}
	if err := s.Flush(); err != nil {
		return 0, err
	}
	k := 0
	for k < len(s.segs)-1 && s.base[k+1]-1 <= seq {
		k++
	}
	if k == 0 {
		return 0, nil
	}
	if err := writeManifest(s.dir, s.segs[k:], s.base[k:]); err != nil {
		return 0, err
	}
	// The manifest is installed: the dropped segments are dead no matter
	// what happens below. Bring the in-memory catalog in line BEFORE the
	// file removals, so a failed removal (surfaced to the caller) cannot
	// leave memory disagreeing with the manifest — the leftover files
	// are exactly what reconcileManifest cleans up on the next open.
	dead := s.segs[:k]
	for i := 0; i < k; i++ {
		if s.files[i] != nil {
			s.files[i].Close()
		}
	}
	droppedRecords := int64(s.base[k] - s.base[0])
	s.segs = s.segs[k:]
	s.base = s.base[k:]
	s.files = s.files[k:]
	s.records -= droppedRecords
	var removeErr error
	for _, name := range dead {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && removeErr == nil {
			removeErr = fmt.Errorf("tagstore: drop segment %s: %w", name, err)
		}
	}
	// Rewrite the index: refs into dropped segments disappear, surviving
	// refs shift down by k segments. Resources left with no records drop
	// out of the order (their original first-seen rank is retained for
	// the survivors).
	for rid, refs := range s.index {
		kept := refs[:0]
		for _, ref := range refs {
			if int(ref.seg) < k {
				continue
			}
			ref.seg -= int32(k)
			kept = append(kept, ref)
		}
		if len(kept) == 0 {
			delete(s.index, rid)
		} else {
			s.index[rid] = kept
		}
	}
	order := s.order[:0]
	for _, rid := range s.order {
		if _, ok := s.index[rid]; ok {
			order = append(order, rid)
		}
	}
	s.order = order
	return k, removeErr
}

// Compact rewrites the store grouped by resource id (ascending, posts in
// append order within a resource) and atomically replaces the segments.
// Compaction improves the locality of Posts() after a workload of
// interleaved appends. It is the dataset-storage compactor: sequence
// numbering restarts at 1, so it refuses to run while snapshots cover
// the directory (WAL deployments bound log size with DropThrough
// instead).
func (s *Store) Compact() error {
	if err := s.writable(); err != nil {
		return err
	}
	if err := s.Flush(); err != nil {
		return err
	}
	if infos, err := ListSnapshots(s.dir); err != nil {
		return err
	} else if len(infos) > 0 {
		return fmt.Errorf("tagstore: refusing to compact a snapshot-covered store (%d snapshots; use DropThrough)", len(infos))
	}
	tmp := s.dir + ".compact"
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("tagstore: compact cleanup: %w", err)
	}
	out, err := Open(tmp, s.opts)
	if err != nil {
		return fmt.Errorf("tagstore: compact open: %w", err)
	}
	rids := make([]uint32, len(s.order))
	copy(rids, s.order)
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	for _, rid := range rids {
		seq, err := s.Posts(rid)
		if err != nil {
			out.Close()
			return err
		}
		for _, p := range seq {
			if err := out.Append(rid, p); err != nil {
				out.Close()
				return err
			}
		}
	}
	if err := out.Close(); err != nil {
		return err
	}
	// Swap: close self, move new segments in, reopen.
	if err := s.Close(); err != nil {
		return err
	}
	old := s.dir + ".old"
	if err := os.RemoveAll(old); err != nil {
		return fmt.Errorf("tagstore: compact swap: %w", err)
	}
	if err := os.Rename(s.dir, old); err != nil {
		return fmt.Errorf("tagstore: compact swap: %w", err)
	}
	if err := os.Rename(tmp, s.dir); err != nil {
		return fmt.Errorf("tagstore: compact swap: %w", err)
	}
	if err := os.RemoveAll(old); err != nil {
		return fmt.Errorf("tagstore: compact cleanup: %w", err)
	}
	reopened, err := Open(s.dir, s.opts)
	if err != nil {
		return fmt.Errorf("tagstore: compact reopen: %w", err)
	}
	*s = *reopened
	return nil
}

// Stats summarizes the store.
type Stats struct {
	Segments  int
	Records   int64
	Resources int
	Bytes     int64
}

// Stat computes store statistics from the filesystem.
func (s *Store) Stat() (Stats, error) {
	st := Stats{Segments: len(s.segs), Records: s.records, Resources: len(s.order)}
	for _, name := range s.segs {
		fi, err := os.Stat(filepath.Join(s.dir, name))
		if err != nil {
			return st, fmt.Errorf("tagstore: stat: %w", err)
		}
		st.Bytes += fi.Size()
	}
	// Unflushed buffer bytes count too.
	if s.w != nil {
		st.Bytes += int64(s.w.Buffered())
	}
	return st, nil
}
