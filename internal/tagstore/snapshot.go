package tagstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Snapshot files sit beside the segment chain they cover. One file is
// one point-in-time engine state:
//
//	magic "ITSNAP01" (8 bytes)
//	u64   lastSeq    — the log sequence number the payload covers
//	u32   payloadLen
//	payload          — opaque to tagstore (the engine's encoded state)
//	u32   crc32(magic..payload)
//
// The CRC covers the header too, so a snapshot whose seq or length field
// was torn is rejected, not misread. Files are written to a temp name,
// fsynced and renamed into place, so a crash mid-write never produces a
// file that ReadLatestSnapshot could half-trust; readers skip damaged files
// and fall back to the next-newest, and in the worst case recovery
// degrades to a full log replay — never to silent corruption.
const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	snapMagic  = "ITSNAP01"
	// maxSnapshotBytes bounds a snapshot payload (sanity, like
	// maxRecordBytes for records). Kept below 2³¹ so the bound fits int
	// on 32-bit builds.
	maxSnapshotBytes = 1 << 30
	// snapFraming is the bytes a file adds to its payload: magic, seq,
	// length and CRC.
	snapFraming = len(snapMagic) + 8 + 4 + 4
)

func snapName(lastSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, lastSeq, snapSuffix)
}

// SnapshotInfo identifies one snapshot file.
type SnapshotInfo struct {
	// Name is the file name within the store directory.
	Name string
	// LastSeq is the log sequence number the snapshot covers (parsed
	// from the name; readSnapshot re-verifies it against the header).
	LastSeq uint64
	// Bytes is the file size.
	Bytes int64
}

// ListSnapshots returns the snapshot files in dir, oldest first.
// In-flight temp files are ignored.
func ListSnapshots(dir string) ([]SnapshotInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("tagstore: list snapshots: %w", err)
	}
	var out []SnapshotInfo
	for _, e := range ents {
		n := e.Name()
		if !strings.HasPrefix(n, snapPrefix) || !strings.HasSuffix(n, snapSuffix) {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(n, snapPrefix+"%020d"+snapSuffix, &seq); err != nil {
			continue
		}
		info := SnapshotInfo{Name: n, LastSeq: seq}
		if fi, err := e.Info(); err == nil {
			info.Bytes = fi.Size()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LastSeq < out[j].LastSeq })
	return out, nil
}

// WriteSnapshot durably writes a snapshot covering log records with
// sequence numbers ≤ lastSeq. The payload is opaque (the engine's
// encoded state). Returns the installed file path.
func WriteSnapshot(dir string, lastSeq uint64, payload []byte) (string, error) {
	if len(payload) == 0 {
		return "", fmt.Errorf("tagstore: empty snapshot payload")
	}
	if len(payload) > maxSnapshotBytes {
		return "", fmt.Errorf("tagstore: snapshot payload too large (%d bytes)", len(payload))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("tagstore: mkdir: %w", err)
	}
	// The file is header, payload and CRC trailer, written from the
	// caller's payload without a framed copy.
	var hdr [len(snapMagic) + 8 + 4]byte
	copy(hdr[:], snapMagic)
	binary.LittleEndian.PutUint64(hdr[len(snapMagic):], lastSeq)
	binary.LittleEndian.PutUint32(hdr[len(snapMagic)+8:], uint32(len(payload)))
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, payload))

	path := filepath.Join(dir, snapName(lastSeq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("tagstore: write snapshot: %w", err)
	}
	for _, part := range [][]byte{hdr[:], payload, trailer[:]} {
		if _, err := f.Write(part); err != nil {
			f.Close()
			return "", fmt.Errorf("tagstore: write snapshot: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", fmt.Errorf("tagstore: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("tagstore: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("tagstore: install snapshot: %w", err)
	}
	// The rename must hit the directory before any compaction that
	// trusts this snapshot deletes log segments.
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return path, nil
}

// PruneSnapshots validates every snapshot file in dir, deletes the
// damaged ones plus all but the newest keep VALID ones (keep ≥ 1), and
// returns how many files were removed along with the oldest retained
// valid snapshot's covered seq (ok=false when no valid snapshot
// remains). Validity-aware pruning is what keeps the retention promise
// honest: a damaged file must never displace the real fallback, and
// the returned oldest seq is the bound compaction must respect so that
// fallback stays replayable.
func PruneSnapshots(dir string, keep int) (removed int, oldestSeq uint64, ok bool, err error) {
	if keep < 1 {
		keep = 1
	}
	infos, err := ListSnapshots(dir)
	if err != nil {
		return 0, 0, false, err
	}
	// One buffer, sized for the largest file listed, serves every read.
	var size int64
	for _, info := range infos {
		size = max(size, min(info.Bytes, int64(maxSnapshotBytes+snapFraming)))
	}
	buf := make([]byte, size)
	var valid []SnapshotInfo
	for _, info := range infos {
		if _, _, rerr := readSnapshot(filepath.Join(dir, info.Name), buf); rerr != nil {
			if err := os.Remove(filepath.Join(dir, info.Name)); err != nil {
				return removed, 0, false, fmt.Errorf("tagstore: prune snapshot: %w", err)
			}
			removed++
			continue
		}
		valid = append(valid, info)
	}
	for i := 0; i+keep < len(valid); i++ {
		if err := os.Remove(filepath.Join(dir, valid[i].Name)); err != nil {
			return removed, 0, false, fmt.Errorf("tagstore: prune snapshot: %w", err)
		}
		removed++
		valid[i].Name = ""
	}
	for _, info := range valid {
		if info.Name != "" {
			return removed, info.LastSeq, true, nil
		}
	}
	return removed, 0, false, nil
}

// ReadLatestSnapshot reads the newest snapshot in dir that validates,
// trying older ones when newer files are damaged, and returns its
// payload (the engine's encoded state, a fresh heap slice the caller
// owns) and the log sequence number it covers. ok is false when no
// valid snapshot exists (recovery then falls back to a full log
// replay); skipped counts damaged files passed over.
func ReadLatestSnapshot(dir string) (payload []byte, lastSeq uint64, ok bool, skipped int, err error) {
	infos, err := ListSnapshots(dir)
	if err != nil {
		return nil, 0, false, 0, err
	}
	for i := len(infos) - 1; i >= 0; i-- {
		payload, lastSeq, rerr := readSnapshot(filepath.Join(dir, infos[i].Name), nil)
		if rerr != nil {
			skipped++
			continue
		}
		return payload, lastSeq, true, skipped, nil
	}
	return nil, 0, false, skipped, nil
}

// readSnapshot reads and fully validates one snapshot file — magic,
// length framing, CRC over header and payload, and name/header seq
// agreement — and returns its payload and covered seq. It is the only
// snapshot reader: recovery loads through it and pruning validates
// through it. The size is checked before anything is read, so a huge
// stray file is refused, not allocated. The file is read into buf when
// it fits, else into a fresh slice; the payload aliases what was read.
func readSnapshot(path string, buf []byte) (payload []byte, lastSeq uint64, err error) {
	name := filepath.Base(path)
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("tagstore: read snapshot: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("tagstore: read snapshot: %w", err)
	}
	hdr := len(snapMagic) + 8 + 4
	size := fi.Size()
	if size < int64(snapFraming) || size > int64(maxSnapshotBytes+snapFraming) {
		return nil, 0, fmt.Errorf("tagstore: snapshot %s truncated (%d bytes)", name, size)
	}
	raw := buf
	if int64(cap(raw)) < size {
		raw = make([]byte, size)
	}
	raw = raw[:size]
	if _, err := io.ReadFull(f, raw); err != nil {
		return nil, 0, fmt.Errorf("tagstore: read snapshot %s: %w", name, err)
	}
	if string(raw[:len(snapMagic)]) != snapMagic {
		return nil, 0, fmt.Errorf("tagstore: snapshot %s has bad magic", name)
	}
	lastSeq = binary.LittleEndian.Uint64(raw[len(snapMagic):])
	n := binary.LittleEndian.Uint32(raw[len(snapMagic)+8:])
	if int64(n) > maxSnapshotBytes || len(raw) != hdr+int(n)+4 {
		return nil, 0, fmt.Errorf("tagstore: snapshot %s length mismatch (payload %d, file %d)", name, n, len(raw))
	}
	body := raw[:hdr+int(n)]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(raw[hdr+int(n):]) {
		return nil, 0, fmt.Errorf("tagstore: snapshot %s crc mismatch", name)
	}
	if name != snapName(lastSeq) && strings.HasPrefix(name, snapPrefix) {
		return nil, 0, fmt.Errorf("tagstore: snapshot %s header seq %d disagrees with its name", name, lastSeq)
	}
	return body[hdr:], lastSeq, nil
}
