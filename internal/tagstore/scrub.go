package tagstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// ScrubReport summarizes a full-store integrity verification.
type ScrubReport struct {
	Segments      int
	Records       int64
	Bytes         int64
	BadSegment    string // first damaged segment file name, "" if clean
	BadOffset     int64  // offset of the first damaged frame
	FirstProblem  string // human-readable cause
	IndexMismatch bool   // on-disk records disagree with in-memory index
}

// Clean reports whether the scrub found no damage.
func (r ScrubReport) Clean() bool { return r.BadSegment == "" && !r.IndexMismatch }

// Scrub re-reads every segment byte by byte, validating frame lengths and
// CRCs, and cross-checks the record count against the in-memory index.
// Unlike Open it never repairs anything — it is the read-only integrity
// check an operator runs before trusting a store.
func (s *Store) Scrub() (ScrubReport, error) {
	if err := s.Flush(); err != nil {
		return ScrubReport{}, err
	}
	rep := ScrubReport{Segments: len(s.segs)}
	for _, name := range s.segs {
		path := filepath.Join(s.dir, name)
		f, err := os.Open(path)
		if err != nil {
			return rep, fmt.Errorf("tagstore: scrub open: %w", err)
		}
		n, bytes, off, cause := scrubSegment(f)
		f.Close()
		rep.Records += n
		rep.Bytes += bytes
		if cause != "" && rep.BadSegment == "" {
			rep.BadSegment = name
			rep.BadOffset = off
			rep.FirstProblem = cause
		}
	}
	if rep.Records != s.records {
		rep.IndexMismatch = true
		if rep.FirstProblem == "" {
			rep.FirstProblem = fmt.Sprintf("index has %d records, disk has %d", s.records, rep.Records)
		}
	}
	return rep, nil
}

// scrubSegment validates one segment, returning the number of valid
// records, the valid byte count, and the offset/cause of the first
// problem ("" when clean).
func scrubSegment(f *os.File) (records int64, validBytes int64, badOff int64, cause string) {
	br := bufio.NewReaderSize(f, 1<<16)
	var off int64
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err == io.EOF {
			return records, off, 0, ""
		} else if err != nil {
			return records, off, off, "torn frame header"
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 || n > maxRecordBytes {
			return records, off, off, fmt.Sprintf("implausible record length %d", n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return records, off, off, "torn payload"
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
			return records, off, off, "torn crc"
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBuf[:]) {
			return records, off, off, "crc mismatch"
		}
		if _, _, err := decodePost(payload); err != nil {
			return records, off, off, "undecodable payload"
		}
		records++
		off += int64(4+len(payload)) + 4
	}
}
