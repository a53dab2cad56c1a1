package sim

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// replayFingerprint hashes every checkpoint of one run per strategy:
// integer fields as they are, mean quality by its float64 bits, and the
// final assignment — so any change in choice order, heap ties included,
// moves the value.
func replayFingerprint(t *testing.T, d *Data) uint32 {
	t.Helper()
	h := crc32.NewIEEE()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	checkpoints := []int{0, 20, 40, 60, 80, 100, 150, 200, 250, 300}
	for _, name := range []string{"RR", "FP", "MU", "FP-MU", "FC"} {
		st := NewState(d, 5, 17)
		cps, err := st.Run(mkStrategy(name, 5), 300, checkpoints)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, cp := range cps {
			put(uint64(cp.Budget))
			put(math.Float64bits(cp.MeanQuality))
			put(uint64(cp.OverTagged))
			put(uint64(cp.UnderTagged))
			put(uint64(cp.WastedPosts))
		}
		for _, x := range st.Assignment() {
			put(uint64(x))
		}
	}
	return h.Sum32()
}

// TestGoldenReplay pins the Figure-6 replay series the way synth's
// TestGoldenFingerprint pins the generator: Run and RunReference share
// the strategy code, so a change in the order strategies choose in moves
// both alike. TestHeapStrategiesMatchDefinitions holds the order of RR,
// FP, MU and FP-MU to their definitions; this fixed value also covers FC
// and every checkpoint field. Unit costs and the weighted costs 1 + i%3
// are pinned separately. A deliberate change of choice order must update
// both constants.
func TestGoldenReplay(t *testing.T) {
	d := testData(t, 40, 19)
	if got, want := replayFingerprint(t, d), uint32(0x58c0049a); got != want {
		t.Errorf("unit-cost replay changed: fingerprint 0x%08x, golden 0x%08x", got, want)
	}
	d.Costs = make([]int, d.N())
	for i := range d.Costs {
		d.Costs[i] = 1 + i%3
	}
	if got, want := replayFingerprint(t, d), uint32(0xd80e3e09); got != want {
		t.Errorf("weighted replay changed: fingerprint 0x%08x, golden 0x%08x", got, want)
	}
}
