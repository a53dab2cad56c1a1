package tagstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// MappedSnapshot is a validated snapshot served straight out of the
// page cache: the file is mmap'd (where the platform supports it) and
// Payload aliases the mapping, so consumers that keep per-resource
// records pointing into it — the engine's cold-boot path — pay neither
// a heap copy of the state nor a parse of resources nobody touches.
//
// The whole file, header and payload, is CRC-validated at map time.
// Close unmaps; every byte slice derived from Payload dies with it, so
// the owner must keep the MappedSnapshot open for as long as any
// consumer may read those bytes (the Service holds it for the engine's
// lifetime). Unlinking the file — snapshot pruning — does not
// invalidate an open mapping.
type MappedSnapshot struct {
	// LastSeq is the log sequence number the payload covers.
	LastSeq uint64
	// Payload is the snapshot body (the engine's encoded state), aliasing
	// the mapping. Read-only; valid until Close.
	Payload []byte

	unmap func() error
}

// Close releases the mapping. Payload and anything aliasing it are
// invalid afterwards. Safe to call on nil or twice.
func (m *MappedSnapshot) Close() error {
	if m == nil || m.unmap == nil {
		return nil
	}
	u := m.unmap
	m.unmap = nil
	m.Payload = nil
	return u()
}

// MapSnapshot maps and fully validates one snapshot file: magic, length
// framing, CRC over header and payload, and name/header seq agreement.
// It is the only snapshot reader; on platforms without mmap the
// "mapping" is a heap read behind the same contract (see mapFile).
func MapSnapshot(path string) (*MappedSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tagstore: map snapshot: %w", err)
	}
	defer f.Close() // the mapping outlives the descriptor
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("tagstore: map snapshot: %w", err)
	}
	hdr := len(snapMagic) + 8 + 4
	size := fi.Size()
	if size < int64(hdr+4) || size > int64(maxSnapshotBytes)+int64(hdr+4) {
		return nil, fmt.Errorf("tagstore: snapshot %s truncated (%d bytes)", filepath.Base(path), size)
	}
	raw, unmap, err := mapFile(f, int(size))
	if err != nil {
		return nil, err
	}
	fail := func(ferr error) (*MappedSnapshot, error) {
		unmap()
		return nil, ferr
	}
	if string(raw[:len(snapMagic)]) != snapMagic {
		return fail(fmt.Errorf("tagstore: snapshot %s has bad magic", filepath.Base(path)))
	}
	lastSeq := binary.LittleEndian.Uint64(raw[len(snapMagic):])
	n := binary.LittleEndian.Uint32(raw[len(snapMagic)+8:])
	if int64(n) > maxSnapshotBytes || len(raw) != hdr+int(n)+4 {
		return fail(fmt.Errorf("tagstore: snapshot %s length mismatch (payload %d, file %d)", filepath.Base(path), n, len(raw)))
	}
	body := raw[:hdr+int(n)]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(raw[hdr+int(n):]) {
		return fail(fmt.Errorf("tagstore: snapshot %s crc mismatch", filepath.Base(path)))
	}
	if want := filepath.Base(path); want != snapName(lastSeq) && strings.HasPrefix(want, snapPrefix) {
		return fail(fmt.Errorf("tagstore: snapshot %s header seq %d disagrees with its name", want, lastSeq))
	}
	return &MappedSnapshot{LastSeq: lastSeq, Payload: body[hdr:], unmap: unmap}, nil
}

// MapLatestSnapshot maps the newest snapshot in dir that validates,
// trying older ones when newer files are damaged. ok is false when no
// valid snapshot exists (recovery then falls back to a full log replay);
// skipped counts damaged files passed over.
func MapLatestSnapshot(dir string) (m *MappedSnapshot, ok bool, skipped int, err error) {
	infos, err := ListSnapshots(dir)
	if err != nil {
		return nil, false, 0, err
	}
	for i := len(infos) - 1; i >= 0; i-- {
		snap, merr := MapSnapshot(filepath.Join(dir, infos[i].Name))
		if merr != nil {
			skipped++
			continue
		}
		return snap, true, skipped, nil
	}
	return nil, false, skipped, nil
}
