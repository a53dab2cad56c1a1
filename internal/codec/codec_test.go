package codec

import (
	"math"
	"math/rand"
	"testing"
)

func TestUvarintRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, math.MaxUint64}
	var buf []byte
	for _, v := range vals {
		buf = AppendUvarint(buf, v)
	}
	r := NewReader(buf, "test")
	for i, want := range vals {
		if got := r.Uvarint("v"); got != want {
			t.Fatalf("uvarint %d: got %d want %d", i, got, want)
		}
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

func TestVarintRoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64}
	var buf []byte
	for _, v := range vals {
		buf = AppendVarint(buf, v)
	}
	r := NewReader(buf, "test")
	for i, want := range vals {
		if got := r.Varint("v"); got != want {
			t.Fatalf("varint %d: got %d want %d", i, got, want)
		}
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

func TestFloat64BitExact(t *testing.T) {
	// Include the patterns a value-level round-trip would destroy:
	// negative zero and NaNs with different payloads.
	bits := []uint64{
		0, 0x8000000000000000, // ±0
		math.Float64bits(1.5), math.Float64bits(-math.Pi),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		0x7ff8000000000001, 0x7ff8dead00000000, // NaN payloads
		math.Float64bits(math.SmallestNonzeroFloat64),
		math.Float64bits(math.MaxFloat64),
	}
	var buf []byte
	for _, b := range bits {
		buf = AppendFloat64(buf, math.Float64frombits(b))
	}
	r := NewReader(buf, "test")
	for i, want := range bits {
		if got := math.Float64bits(r.Float64("f")); got != want {
			t.Fatalf("float %d: got bits %#x want %#x", i, got, want)
		}
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

func TestDeltaConventions(t *testing.T) {
	// Engine convention: base −1, every gap ≥ 1, tag 0 encodes as gap 1.
	d := NewDelta(-1)
	if gap, ok := d.Gap(0); !ok || gap != 1 {
		t.Fatalf("engine base: Gap(0) = %d,%v want 1,true", gap, ok)
	}
	if gap, ok := d.Gap(5); !ok || gap != 5 {
		t.Fatalf("engine base: Gap(5) = %d,%v want 5,true", gap, ok)
	}
	if _, ok := d.Gap(5); ok {
		t.Fatal("engine base: Gap(5) twice must fail (not strictly ascending)")
	}
}

func TestDeltaRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64)
		seq := make([]int64, n)
		v := int64(rng.Intn(3)) // may start at 0 (engine base −1 handles it)
		for i := range seq {
			seq[i] = v
			v += int64(1 + rng.Intn(100))
		}
		for _, base := range []int64{-1, 0} {
			if base == 0 && n > 0 && seq[0] == 0 {
				// first element equal to base needs GapOrZero; exercised above.
				continue
			}
			enc := NewDelta(base)
			var buf []byte
			for _, s := range seq {
				gap, ok := enc.Gap(s)
				if !ok {
					t.Fatalf("trial %d: Gap(%d) failed", trial, s)
				}
				buf = AppendUvarint(buf, gap)
			}
			dec := NewDelta(base)
			r := NewReader(buf, "test")
			for i, want := range seq {
				if got := dec.Absorb(r.Uvarint("gap")); got != want {
					t.Fatalf("trial %d base %d: elem %d got %d want %d", trial, base, i, got, want)
				}
			}
			if err := r.Finish(); err != nil {
				t.Fatalf("trial %d: finish: %v", trial, err)
			}
		}
	}
}

func TestReaderErrors(t *testing.T) {
	// Truncated varint: a continuation byte with nothing after it.
	r := NewReader([]byte{0x80}, "p")
	r.Uvarint("posts")
	if err := r.Err(); err == nil || err.Error() != "p: bad posts at offset 0" {
		t.Fatalf("truncated uvarint: got %v", err)
	}
	// Errors latch: later reads keep the first error.
	r.Float64("sum")
	if err := r.Err(); err == nil || err.Error() != "p: bad posts at offset 0" {
		t.Fatalf("latched error changed: %v", err)
	}

	r = NewReader([]byte{1, 2, 3}, "p")
	r.Uvarint("a")
	r.Float64("sum")
	if err := r.Err(); err == nil || err.Error() != "p: truncated sum at offset 1" {
		t.Fatalf("truncated float: got %v", err)
	}

	r = NewReader(AppendUvarint(nil, 1<<30), "p")
	r.Length("ring", 1024)
	if err := r.Err(); err == nil || err.Error() != "p: implausible ring length 1073741824" {
		t.Fatalf("length bound: got %v", err)
	}

	r = NewReader([]byte{1, 99}, "p")
	if got := r.Uvarint("a"); got != 1 {
		t.Fatalf("got %d", got)
	}
	if err := r.Finish(); err == nil || err.Error() != "p: 1 trailing bytes" {
		t.Fatalf("trailing: got %v", err)
	}

	r = NewReader(nil, "p")
	r.Fail("bad thing %d", 7)
	if err := r.Err(); err == nil || err.Error() != "p: bad thing 7" {
		t.Fatalf("fail: got %v", err)
	}
}

// FuzzReader checks that arbitrary bytes never panic the reader and that
// whatever decodes re-encodes to the same prefix (decode∘encode identity
// on the decoded prefix).
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x80, 0x02})
	f.Add(AppendFloat64(AppendUvarint(nil, 300), math.Pi))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data, "fuzz")
		var out []byte
		for r.Err() == nil && r.Remaining() > 0 {
			switch r.Offset() % 3 {
			case 0:
				v := r.Uvarint("u")
				if r.Err() == nil {
					out = AppendUvarint(out, v)
				}
			case 1:
				v := r.Varint("v")
				if r.Err() == nil {
					out = AppendVarint(out, v)
				}
			default:
				v := r.Float64("f")
				if r.Err() == nil {
					out = AppendFloat64(out, v)
				}
			}
		}
		if n := len(out); n > len(data) {
			t.Fatalf("re-encoded %d bytes from %d input bytes", n, len(data))
		}
		for i := range out {
			if out[i] != data[i] {
				t.Fatalf("re-encode mismatch at %d", i)
			}
		}
	})
}

// FuzzDeltaSequence checks that any ascending sequence survives the
// delta round-trip under both bases.
func FuzzDeltaSequence(f *testing.F) {
	f.Add(uint64(3), uint64(1), uint64(4))
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		gaps := []uint64{a%1000 + 1, b%1000 + 1, c%1000 + 1}
		for _, base := range []int64{-1, 0} {
			var seq []int64
			v := base
			for _, g := range gaps {
				v += int64(g)
				seq = append(seq, v)
			}
			enc := NewDelta(base)
			var buf []byte
			for _, s := range seq {
				gap, ok := enc.Gap(s)
				if !ok {
					t.Fatalf("Gap(%d) failed", s)
				}
				buf = AppendUvarint(buf, gap)
			}
			dec := NewDelta(base)
			r := NewReader(buf, "fuzz")
			for i, want := range seq {
				if got := dec.Absorb(r.Uvarint("gap")); got != want {
					t.Fatalf("base %d elem %d: got %d want %d", base, i, got, want)
				}
			}
		}
	})
}
