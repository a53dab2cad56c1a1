// Package tagstore is an embedded, append-only post log: the serving
// write-ahead log a tagging service persists its post stream into, and
// the on-disk form of a saved corpus.
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
// numbers are what tie snapshots (WriteSnapshot/ReadLatestSnapshot) to the
// log: a snapshot covering seq S plus the records with seq > S replay
// to the exact pre-crash state, and DropThrough(S) reclaims the sealed
// segments a snapshot has made redundant.
//
// The log has one reader and one compactor. Every reader streams it in
// append order: recovery replays the tail past a snapshot, and a corpus
// load wants every resource's whole sequence, both through ScanFrom.
// DropThrough is the compactor.
//
// Properties:
//
//   - appends go to the active (last) segment through a buffered writer;
//     Flush makes them durable (optionally fsync);
//   - opening a store reads the MANIFEST (or derives one for legacy
//     directories) and validates every frame of the listed segments
//     (length, CRC, payload), counting the records each segment holds;
//   - a torn write at the tail of the last segment (crash mid-append) is
//     detected by that validation and truncated away — recovery is
//     automatic and lossless up to the last complete record. ScanFrom
//     reads no further than the records Open counted, so a read-only
//     open, which leaves the tear on disk, never reads it;
//   - the MANIFEST is replaced atomically (write-temp + rename), so a
//     crash during rotation or DropThrough leaves either the old or the
//     new manifest, never a torn one; segment files orphaned by such a
//     crash are adopted (rotation) or removed (DropThrough) on open;
//   - DropThrough drops sealed segments fully covered by a snapshot
//     sequence number, bounding on-disk log size under sustained ingest.
package tagstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
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
	// truncation, no lock file on read-only mounts — and Append, rotation
	// and DropThrough refuse. The dataset-load path (synth.Load) uses this
	// so corpus directories can be read concurrently and from read-only
	// media.
	ReadOnly bool
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	return o
}

// Store is an open post store. It is not safe for concurrent use; wrap it
// with external synchronization if shared (matching typical embedded-log
// designs where a single writer owns the log).
type Store struct {
	dir  string
	opts Options

	lock    *os.File // exclusive directory lock (nil where unsupported)
	segs    []string // segment file names in order
	base    []uint64 // first sequence number of each segment, parallel to segs
	active  *os.File // write handle on last segment
	w       *bufio.Writer
	written int64  // current size of active segment
	nextSeq uint64 // sequence number the next appended record receives

	encBuf []byte // reusable scratch for single-record Append encoding
}

// Open opens (or creates) a store directory, reconciling the MANIFEST
// with the segment files on disk, validating the live segments and
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
	s := &Store{dir: dir, opts: opts, lock: lock}
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
		n, err := s.scanSegment(filepath.Join(dir, name), si == len(names)-1)
		if err != nil {
			s.Close()
			return nil, err
		}
		seq += n
	}
	s.nextSeq = seq
	if rewrite && !opts.ReadOnly {
		if err := writeManifest(dir, s.segs, s.base); err != nil {
			s.Close()
			return nil, err
		}
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

// scanSegment validates one segment and returns its record count. For
// the last segment a damaged tail is truncated away — or, on a read-only
// store, left on disk and not counted; anywhere else it is a hard error.
func (s *Store) scanSegment(path string, isLast bool) (uint64, error) {
	n, off, damage, err := walkSegment(path, -1, nil)
	if err != nil || damage == "" {
		return uint64(n), err
	}
	if !isLast {
		return 0, fmt.Errorf("tagstore: segment %s corrupt at offset %d: %s", path, off, damage)
	}
	if !s.opts.ReadOnly {
		if err := os.Truncate(path, off); err != nil {
			return 0, fmt.Errorf("tagstore: truncating torn tail of %s: %w", path, err)
		}
	}
	return uint64(n), nil
}

// walkSegment reads the segment at path in order, validating each frame's
// length, CRC and payload, and hands each record to fn (nil validates
// only). It stops after limit records (limit < 0: at the end of the file)
// and returns how many valid records it read and the offset just past the
// last of them. damage names the first bad frame, which sits at that
// offset; it is "" when the walk reached the limit or a clean end of
// file. err reports a file that would not open or an error fn returned.
func walkSegment(path string, limit int64, fn func(rid uint32, p tags.Post) error) (n, off int64, damage string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, "", fmt.Errorf("tagstore: open %s: %w", path, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr, crc [4]byte
	var payload []byte
	for ; n != limit; n++ {
		if _, err := io.ReadFull(br, hdr[:]); err == io.EOF {
			return n, off, "", nil
		} else if err != nil {
			return n, off, "torn frame header", nil
		}
		size := binary.LittleEndian.Uint32(hdr[:])
		if size == 0 || size > maxRecordBytes {
			return n, off, fmt.Sprintf("implausible record length %d", size), nil
		}
		payload = slices.Grow(payload[:0], int(size))[:size]
		if _, err := io.ReadFull(br, payload); err != nil {
			return n, off, "torn payload", nil
		}
		if _, err := io.ReadFull(br, crc[:]); err != nil {
			return n, off, "torn crc", nil
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crc[:]) {
			return n, off, "crc mismatch", nil
		}
		rid, p, err := decodePost(payload)
		if err != nil {
			return n, off, "undecodable payload", nil
		}
		if fn != nil {
			if err := fn(rid, p); err != nil {
				return n, off, "", err
			}
		}
		off += 4 + int64(size) + 4
	}
	return n, off, "", nil
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
// across calls, so steady-state appends are allocation-free.
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
	s.nextSeq++
	s.written += int64(4 + len(payload) + 4)
	return nil
}

// Batch accumulates fully framed records for a group commit. It is a
// reusable buffer: callers Add records, hand the batch to AppendBatch,
// then Reset it for the next group. A Batch belongs to one writer at a
// time (the engine keeps one per shard behind the shard lock).
type Batch struct {
	buf []byte
	n   int // records framed in buf
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
	b.n++
	return nil
}

// Records returns the number of records currently framed in the batch.
func (b *Batch) Records() int { return b.n }

// Reset empties the batch, retaining its buffer for reuse.
func (b *Batch) Reset() {
	b.buf = b.buf[:0]
	b.n = 0
}

// AppendBatch group-commits every record framed in b with a single
// buffered write. Record order within the batch is preserved; durability
// still requires Flush (or Close), as with Append. The batch is not
// consumed — call Reset to reuse it.
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
	s.nextSeq += uint64(b.n)
	s.written += int64(len(b.buf))
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
	af, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("tagstore: rotate: %w", err)
	}
	s.segs = append(s.segs, name)
	s.base = append(s.base, s.nextSeq)
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

// Records returns the number of records the store holds, FirstSeq
// through LastSeq.
func (s *Store) Records() int64 { return int64(s.nextSeq - s.FirstSeq()) }

// LastSeq returns the sequence number of the most recently appended
// record (0 when the store has never held a record). Sequence numbers
// are assigned contiguously from 1 and survive reopen.
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
// but not delivered). Each segment is read no further than the records
// Open validated in it, so a torn tail a read-only open left on disk is
// never reached. It returns the number of log bytes read — the
// replay-cost figure a recovery benchmark wants. The callback may return
// an error to stop early.
func (s *Store) ScanFrom(from uint64, fn func(seq uint64, rid uint32, p tags.Post) error) (bytesRead int64, err error) {
	if err := s.Flush(); err != nil {
		return 0, err
	}
	for si, name := range s.segs {
		end := s.nextSeq // first seq beyond this segment
		if si+1 < len(s.segs) {
			end = s.base[si+1]
		}
		if end <= from {
			continue
		}
		seq := s.base[si]
		want := int64(end - seq)
		n, off, damage, err := walkSegment(filepath.Join(s.dir, name), want, func(rid uint32, p tags.Post) error {
			cur := seq
			seq++
			if cur < from {
				return nil
			}
			return fn(cur, rid, p)
		})
		bytesRead += off
		if err != nil {
			return bytesRead, err
		}
		if n != want {
			if damage == "" {
				damage = "end of file"
			}
			return bytesRead, fmt.Errorf("tagstore: scan %s: %s at offset %d after %d of %d records", name, damage, off, n, want)
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
	s.segs = s.segs[k:]
	s.base = s.base[k:]
	var removeErr error
	for _, name := range dead {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && removeErr == nil {
			removeErr = fmt.Errorf("tagstore: drop segment %s: %w", name, err)
		}
	}
	return k, removeErr
}

// Stats summarizes the store.
type Stats struct {
	Segments int
	Records  int64
	Bytes    int64
}

// Stat computes store statistics from the filesystem.
func (s *Store) Stat() (Stats, error) {
	st := Stats{Segments: len(s.segs), Records: s.Records()}
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
