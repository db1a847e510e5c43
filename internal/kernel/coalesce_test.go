package kernel

import (
	"math"
	"slices"
	"testing"
)

// refTransactions is the coalescer's reference: every lane's segments
// collected, sorted and compacted. It is the implementation the
// sort-free fast path replaced, kept here as the oracle that path must
// match byte for byte on every input.
func refTransactions(m MemOp, segBytes int) []uint64 {
	size := m.Size
	if size <= 0 {
		size = 4
	}
	seg := uint64(segBytes)
	var out []uint64
	appendSegs := func(a uint64) {
		first := a / seg
		last := (a + uint64(size) - 1) / seg
		for s := first; s <= last; s++ {
			out = append(out, s*seg)
		}
	}
	if m.Addrs != nil {
		for _, a := range m.Addrs {
			appendSegs(a)
		}
	} else {
		lanes := m.Lanes
		if lanes <= 0 {
			lanes = 1
		}
		for i := 0; i < lanes; i++ {
			appendSegs(m.Base + uint64(int64(i)*m.Stride))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// FuzzAppendTransactions checks the coalescer against refTransactions
// over base, stride (negative, zero and huge included), lane count,
// lane size and segment size, with bases reaching up to 2^64 so the
// wrap detection is exercised on both sides of the boundary.
func FuzzAppendTransactions(f *testing.F) {
	f.Add(uint64(0x1000), int64(4), uint8(32), uint8(4), uint8(0))
	f.Add(uint64(0x1004), int64(4), uint8(32), uint8(4), uint8(2))
	f.Add(uint64(0), int64(1024), uint8(8), uint8(4), uint8(2))
	f.Add(uint64(0x500), int64(0), uint8(32), uint8(4), uint8(2))
	f.Add(uint64(0x8000), int64(-4), uint8(32), uint8(8), uint8(1))
	f.Add(uint64(0x8000), int64(-1024), uint8(32), uint8(4), uint8(0))
	f.Add(uint64(math.MaxUint64-64), int64(4), uint8(32), uint8(4), uint8(0))
	f.Add(uint64(math.MaxUint64-3), int64(0), uint8(1), uint8(8), uint8(0))
	f.Add(uint64(64), int64(math.MinInt64), uint8(3), uint8(4), uint8(1))
	f.Add(uint64(1)<<63, int64(math.MaxInt64), uint8(2), uint8(16), uint8(2))
	f.Add(uint64(100), int64(-40), uint8(4), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, base uint64, stride int64, lanes, size, seg uint8) {
		segBytes := 32 << (seg % 3) // 32, 64, 128
		m := MemOp{Base: base, Stride: stride, Lanes: int(lanes % 40), Size: int(size % 40)}
		want := refTransactions(m, segBytes)
		got := m.AppendTransactions(nil, segBytes)
		if !slices.Equal(got, want) {
			t.Fatalf("%+v seg %d: got %v, reference %v", m, segBytes, got, want)
		}
	})
}
