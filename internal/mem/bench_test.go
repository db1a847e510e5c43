package mem

import (
	"math/rand"
	"testing"

	"ctacluster/internal/arch"
)

// BenchmarkMemRead is the L1-miss path below L1: one 128B Read (four
// 32B L2 transactions) per iteration, from SMs in turn, at a rising
// cycle, over a hot set of half the L2's lines and a cold set four
// times its size, on the monolithic TeslaK40 and its 2-die split. A
// steady-state pass over the stream must not allocate.
func BenchmarkMemRead(b *testing.B) {
	k40 := arch.TeslaK40()
	k40x2, err := arch.WithChiplets(k40, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, ar := range []*arch.Arch{k40, k40x2} {
		b.Run(ar.Name, func(b *testing.B) {
			s := New(ar)
			rng := rand.New(rand.NewSource(1))
			lines := ar.L2Size / 128
			stream := make([]uint64, 1<<15)
			for i := range stream {
				l := rng.Intn(lines / 2)
				if rng.Intn(4) == 0 {
					l = lines/2 + rng.Intn(4*lines)
				}
				stream[i] = uint64(l) * 128
			}
			now := int64(0)
			read := func(i int) {
				now += 3
				s.Read(now, i%ar.SMs, stream[i], 128)
			}
			pass := func() {
				for i := range stream {
					read(i)
				}
			}
			pass()
			if allocs := testing.AllocsPerRun(2, pass); allocs != 0 {
				b.Fatalf("a steady-state pass of %d reads allocates %.0f times", len(stream), allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read(i % len(stream))
			}
		})
	}
}
