package cache

import (
	"math/rand"
	"testing"

	"ctacluster/internal/arch"
)

// layerStream is a deterministic address stream for the layer
// benchmarks: three in four accesses go to a hot set of lines half the
// cache's capacity, the rest to a cold set eight times its capacity.
func layerStream(cfg Config, n int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	lines := cfg.Size / cfg.Line
	out := make([]uint64, n)
	for i := range out {
		var l int
		if rng.Intn(4) != 0 {
			l = rng.Intn(lines / 2)
		} else {
			l = lines/2 + rng.Intn(8*lines)
		}
		out[i] = uint64(l*cfg.Line+rng.Intn(cfg.Line)) + 0x7f00_0000_0000
	}
	return out
}

// benchLayer times one access of pass per iteration, after warm passes,
// and fails if a steady-state pass over the stream allocates.
func benchLayer(b *testing.B, n int, access func(i int)) {
	pass := func() {
		for i := 0; i < n; i++ {
			access(i)
		}
	}
	for i := 0; i < 3; i++ {
		pass()
	}
	if allocs := testing.AllocsPerRun(2, pass); allocs != 0 {
		b.Fatalf("a steady-state pass of %d accesses allocates %.0f times", n, allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access(i % n)
	}
}

func l1Config(ar *arch.Arch) Config {
	sectors := 1
	if ar.L1Sectored {
		sectors = 2
	}
	return Config{Size: ar.L1Size, Line: ar.L1Line, Assoc: ar.L1Assoc, Sectors: sectors, Policy: WriteEvict}
}

// BenchmarkL1ReadAt is the engine's L1 read path: ReadAt at a rising
// cycle, and SetFillTime after each miss, on the Kepler L1 (32 sets)
// and the sectored Maxwell L1 (96 sets per sector).
func BenchmarkL1ReadAt(b *testing.B) {
	for _, ar := range []*arch.Arch{arch.TeslaK40(), arch.GTX980()} {
		b.Run(ar.Name, func(b *testing.B) {
			cfg := l1Config(ar)
			c := New(cfg)
			stream := layerStream(cfg, 1<<16)
			now := int64(0)
			benchLayer(b, len(stream), func(i int) {
				now += 2
				a, sector := stream[i], i&1
				if res, _ := c.ReadAt(a, sector, now); res == Miss {
					c.SetFillTime(a, sector, now+300)
				}
			})
		})
	}
}

// BenchmarkL2ReadFill is the L2's read path on the TeslaK40 L2 (3072
// sets, 16 ways), with one store in eight.
func BenchmarkL2ReadFill(b *testing.B) {
	ar := arch.TeslaK40()
	cfg := Config{Size: ar.L2Size, Line: ar.L2Line, Assoc: ar.L2Assoc, Policy: WriteBackAllocate}
	c := New(cfg)
	stream := layerStream(cfg, 1<<16)
	benchLayer(b, len(stream), func(i int) {
		if i&7 == 0 {
			c.Write(stream[i], 0)
			return
		}
		c.ReadFill(stream[i], 0)
	})
}
