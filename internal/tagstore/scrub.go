package tagstore

import (
	"fmt"
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
	IndexMismatch bool   // on-disk records disagree with the store's record counter
}

// Clean reports whether the scrub found no damage.
func (r ScrubReport) Clean() bool { return r.BadSegment == "" && !r.IndexMismatch }

// Scrub re-reads every segment byte by byte, validating frame lengths,
// CRCs and payloads, and cross-checks the record count against the
// store's counter. Unlike Open it never repairs anything — it is the
// read-only integrity check an operator runs before trusting a store.
func (s *Store) Scrub() (ScrubReport, error) {
	if err := s.Flush(); err != nil {
		return ScrubReport{}, err
	}
	rep := ScrubReport{Segments: len(s.segs)}
	for _, name := range s.segs {
		n, off, damage, err := walkSegment(filepath.Join(s.dir, name), -1, nil)
		if err != nil {
			return rep, err
		}
		rep.Records += n
		rep.Bytes += off
		if damage != "" && rep.BadSegment == "" {
			rep.BadSegment, rep.BadOffset, rep.FirstProblem = name, off, damage
		}
	}
	if rep.Records != s.Records() {
		rep.IndexMismatch = true
		if rep.FirstProblem == "" {
			rep.FirstProblem = fmt.Sprintf("store counts %d records, disk has %d", s.Records(), rep.Records)
		}
	}
	return rep, nil
}
