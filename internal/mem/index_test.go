package mem

import (
	"math"
	"math/rand"
	"testing"

	"ctacluster/internal/arch"
)

// TestIndexingMatchesDivision checks the division-free bank, channel
// and home-die selection against the division formulas they replaced,
// on every platform and chiplet split, for every SM and for random and
// edge addresses.
func TestIndexingMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addrs := []uint64{0, 31, 32, 4095, 4096, 1 << 62, 1<<63 + 32, math.MaxUint64}
	for i := 0; i < 200; i++ {
		addrs = append(addrs, rng.Uint64(), rng.Uint64()>>uint(rng.Intn(64)))
	}
	for _, base := range append(arch.All(), arch.GTX750Ti()) {
		for dies := 0; dies <= 4; dies++ {
			if dies == 1 {
				continue
			}
			ar, err := arch.WithChiplets(base, dies)
			if err != nil {
				t.Fatal(err)
			}
			s := New(ar)
			line := uint64(ar.L2Line)
			for _, addr := range addrs {
				idx := addr / line
				wantCh := int(idx % uint64(len(s.dramFree)))
				if dies > 1 {
					home := int(addr / DieHomePage % uint64(dies))
					if got := s.homeDie(addr); got != home {
						t.Fatalf("%s: homeDie(%#x) = %d, want %d", ar.Name, addr, got, home)
					}
					wantCh = home*s.chansPerDie + int(idx%uint64(s.chansPerDie))
				}
				if got := s.chanFor(addr); got != wantCh {
					t.Fatalf("%s: chanFor(%#x) = %d, want %d", ar.Name, addr, got, wantCh)
				}
				for sm := 0; sm < ar.SMs; sm++ {
					want := int(idx % uint64(len(s.bankFree)))
					if dies > 1 {
						want = ar.DieOf(sm)*s.banksPerDie + int(idx%uint64(s.banksPerDie))
					}
					if got := s.bankFor(sm, addr); got != want {
						t.Fatalf("%s: bankFor(%d, %#x) = %d, want %d", ar.Name, sm, addr, got, want)
					}
				}
			}
		}
	}
}
