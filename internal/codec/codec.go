// Package codec is the shared varint+delta state codec of the durable
// formats: the engine's snapshot payload (engine.AppendSnapshot), the
// per-resource frozen records of the residency tier, and tagstore's WAL
// post records. It existed implicitly twice — the engine's state encoder
// and tagstore.encodePost each hand-rolled the same primitives — and is
// extracted here so every byte layout is produced and parsed by exactly
// one implementation.
//
// The package deliberately encodes no framing and no versioning: those
// belong to each format's owner. What it owns is the primitive layer —
// unsigned/signed varints, bit-exact little-endian float64s — plus the
// one structural idiom both formats share, delta-encoded strictly
// ascending id sequences, and a bounds-checked reader whose errors carry
// the byte offset of the damage.
//
// # Delta conventions
//
// Both durable formats delta-encode ascending tag ids, but with
// different bases, and both must stay bit-identical across this
// extraction:
//
//   - the engine state format starts prev at -1, so every gap (including
//     the first) is ≥ 1: gap = tag − prev;
//   - the tagstore record format starts prev at 0 and writes the first
//     tag raw — equivalent to gap = tag − prev with a base of 0, where
//     only the first gap may be 0.
//
// Delta captures both: NewDelta(base) with base −1 or 0.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendVarint appends v in zig-zag signed varint encoding.
func AppendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// AppendFloat64 appends f bit-exactly as its little-endian IEEE-754
// representation. Round-tripping through Reader.Float64 preserves every
// bit pattern, NaN payloads and signed zeros included — the property the
// engine's rounding-history floats (MA rings, compensated sums) depend
// on.
func AppendFloat64(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// Delta tracks the running previous value of a strictly ascending id
// sequence being delta-encoded or -decoded. The zero value is NOT ready;
// use NewDelta with the format's base.
type Delta struct {
	prev int64
}

// NewDelta returns a Delta starting at base: −1 for the engine state
// convention (every gap ≥ 1), 0 for the tagstore record convention (the
// first gap may be 0).
func NewDelta(base int64) Delta {
	return Delta{prev: base}
}

// Gap returns the encoding gap v − prev and advances prev to v. ok is
// false (and the Delta unchanged) when v does not extend the ascending
// sequence — v ≤ prev for any element after the first against a −1
// base, or v < prev generally.
func (d *Delta) Gap(v int64) (gap uint64, ok bool) {
	if v <= d.prev {
		return 0, false
	}
	gap = uint64(v - d.prev)
	d.prev = v
	return gap, true
}

// Absorb advances prev by gap and returns the decoded value.
func (d *Delta) Absorb(gap uint64) int64 {
	d.prev += int64(gap)
	return d.prev
}

// Reader decodes a buffer of codec primitives with positioned errors:
// the first structural failure latches into err (with the byte offset
// where it happened), every later read returns zero, and callers check
// Err once at the end — the sticky-error decoding idiom both durable
// formats already used.
type Reader struct {
	buf []byte
	off int
	err error
	// prefix namespaces error messages ("engine: state", "tagstore").
	prefix string
}

// NewReader returns a Reader over buf whose errors are prefixed with
// prefix (e.g. "engine: state" yields "engine: state: bad posts at
// offset 12").
func NewReader(buf []byte, prefix string) *Reader {
	return &Reader{buf: buf, prefix: prefix}
}

// Err returns the first structural error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Offset returns the current decode position.
func (r *Reader) Offset() int { return r.off }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Fail latches a formatted error (namespaced with the reader's prefix)
// if none is set yet, letting callers report semantic damage — a value
// out of range, an id overflow — through the same sticky-error channel
// as structural damage.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.prefix+": "+format, args...)
	}
}

// Uvarint decodes one unsigned varint; what names the field in errors.
func (r *Reader) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("%s: bad %s at offset %d", r.prefix, what, r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint decodes one zig-zag signed varint.
func (r *Reader) Varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("%s: bad %s at offset %d", r.prefix, what, r.off)
		return 0
	}
	r.off += n
	return v
}

// Float64 decodes one bit-exact little-endian float64.
func (r *Reader) Float64(what string) float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.err = fmt.Errorf("%s: truncated %s at offset %d", r.prefix, what, r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// Length decodes an unsigned varint bounded by max — the slice-length
// guard that stops a corrupt varint from provoking an unbounded
// allocation.
func (r *Reader) Length(what string, max int) int {
	v := r.Uvarint(what)
	if r.err == nil && v > uint64(max) {
		r.err = fmt.Errorf("%s: implausible %s length %d", r.prefix, what, v)
	}
	return int(v)
}

// Finish returns the latched error, or a trailing-bytes error when the
// buffer was not fully consumed — the end-of-payload check both formats
// perform.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%s: %d trailing bytes", r.prefix, len(r.buf)-r.off)
	}
	return nil
}
