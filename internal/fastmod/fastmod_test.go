package fastmod

import (
	"math"
	"math/rand"
	"testing"

	"ctacluster/internal/arch"
)

// archDivisors returns every set, bank, channel and die count the
// simulator divides by on the Table 1 platforms and their 2..8-die
// chiplet splits, plus the GTX750Ti.
func archDivisors(t *testing.T) []uint64 {
	var ds []uint64
	for _, a := range append(arch.All(), arch.GTX750Ti()) {
		sectors := 1
		if a.L1Sectored {
			sectors = 2
		}
		ds = append(ds,
			uint64(a.L1Size/sectors/(a.L1Line*a.L1Assoc)),
			uint64(a.L2Size/(a.L2Line*a.L2Assoc)),
			uint64(a.L2Banks), uint64(a.DRAMChannels))
		for dies := 2; dies <= arch.MaxChiplets && dies <= a.SMs; dies++ {
			c, err := arch.WithChiplets(a, dies)
			if err != nil {
				t.Fatal(err)
			}
			ds = append(ds, uint64(c.Chiplets),
				uint64(c.L2Size/c.Chiplets/(c.L2Line*c.L2Assoc)),
				uint64(max(c.L2Banks/dies, 1)), uint64(max(c.DRAMChannels/dies, 1)))
		}
	}
	return ds
}

// TestModMatchesRemainder checks Mod against % for divisors 1..4096,
// every count the platforms divide by, 2^20+7 and a few wide divisors,
// on edge numerators (0, d-1, d, d+1, 2d-1, 2^64-1 and its neighbours)
// and on random ones.
func TestModMatchesRemainder(t *testing.T) {
	var ds []uint64
	for d := uint64(1); d <= 4096; d++ {
		ds = append(ds, d)
	}
	ds = append(ds, archDivisors(t)...)
	ds = append(ds, 1<<20+7, 1<<32-1, 1<<32+1, 1<<63-1, 1<<63, 1<<63+1, math.MaxUint64-1, math.MaxUint64)
	rng := rand.New(rand.NewSource(1))
	for _, d := range ds {
		v := New(d)
		ns := []uint64{0, 1, d - 1, d, d + 1, 2*d - 1, 2 * d, math.MaxUint64, math.MaxUint64 - 1, math.MaxUint64 - d, 1 << 62, 1 << 63}
		for i := 0; i < 64; i++ {
			ns = append(ns, rng.Uint64(), rng.Uint64()>>uint(rng.Intn(64)))
		}
		for _, n := range ns {
			if got, want := v.Mod(n), n%d; got != want {
				t.Fatalf("New(%d).Mod(%d) = %d, want %d", d, n, got, want)
			}
		}
	}
}

// TestArchDivisorsCovered pins that the counts above include the ones
// that are not powers of two, which the reciprocal path exists for.
func TestArchDivisorsCovered(t *testing.T) {
	seen := map[uint64]bool{}
	for _, d := range archDivisors(t) {
		seen[d] = true
	}
	for _, d := range []uint64{3072, 96, 48, 5, 6, 7, 10} {
		if !seen[d] {
			t.Errorf("divisor %d missing from the platform counts", d)
		}
	}
}

func TestZeroDivisorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func FuzzMod(f *testing.F) {
	f.Add(uint64(3072), uint64(1)<<62+5)
	f.Add(uint64(7), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, d, n uint64) {
		if d == 0 {
			return
		}
		if got, want := New(d).Mod(n), n%d; got != want {
			t.Fatalf("New(%d).Mod(%d) = %d, want %d", d, n, got, want)
		}
	})
}

var sink uint64

func BenchmarkMod(b *testing.B) {
	for _, d := range []uint64{3072, 4096} {
		v := New(d)
		b.Run(map[bool]string{true: "pow2", false: "reciprocal"}[d&(d-1) == 0], func(b *testing.B) {
			var s uint64
			for i := 0; i < b.N; i++ {
				s += v.Mod(uint64(i) * 0x9E3779B97F4A7C15)
			}
			sink = s
		})
	}
}
