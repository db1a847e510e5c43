package engine

// FuzzEngineRandomKernel runs the engine on randomly shaped kernels and
// checks the properties that must hold for any input: a run either
// ends in a clean error (deadlock, or the MaxCycles bound) or returns a
// Result in which every CTA was dispatched and retired exactly once,
// and a second run reproduces that Result exactly. The real workloads
// are covered by the goldens; this target explores shapes they do not
// (degenerate grids, divergent barrier counts, store- and atomic-heavy
// mixes, address collisions across CTAs, throttled CTAs).

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
)

// fuzzKernel builds a deterministic random kernel: every warp derives
// its op list from (seed, CTA id) alone — or (seed, CTA id, warp) when
// diverge is set, which gives warps of one CTA different barrier
// counts — so the kernel is pure and every run sees the same program.
// About one CTA in eight is throttled (CTAWork.Skip).
func fuzzKernel(seed int64, ctas, warps int, diverge bool) *testKernel {
	k := simpleKernel(ctas, warps, func(l kernel.Launch, w int) []kernel.Op {
		s := seed ^ int64(l.CTA)*0x9e3779b9
		if diverge {
			s ^= int64(w+1) * 0x85ebca6b
		}
		rng := rand.New(rand.NewSource(s))
		n := 1 + rng.Intn(8)
		ops := make([]kernel.Op, 0, n)
		for i := 0; i < n; i++ {
			// Addresses collide across CTAs on purpose: shared lines are
			// what make the memory system order-sensitive.
			base := uint64(0x1000 + rng.Intn(4)*4096 + rng.Intn(8)*128)
			switch rng.Intn(9) {
			case 0, 1:
				ops = append(ops, kernel.Compute(1+rng.Intn(60)))
			case 2, 3:
				ops = append(ops, kernel.Load(base, int64(4*(1+rng.Intn(2))), 32, 4))
			case 4:
				ops = append(ops, kernel.Store(base, 4, 32, 4))
			case 5:
				ops = append(ops, kernel.Load(base, 4, 32, 4).Bypassed())
			case 6:
				ops = append(ops, kernel.Load(base, 4, 32, 4).Prefetched())
			case 7:
				ops = append(ops, kernel.AtomicAdd(base, 4))
			default:
				ops = append(ops, kernel.Barrier())
			}
		}
		return ops
	})
	work := k.work
	k.work = func(l kernel.Launch) kernel.CTAWork {
		if rand.New(rand.NewSource(seed+int64(l.CTA))).Intn(8) == 0 {
			return kernel.CTAWork{Skip: true}
		}
		return work(l)
	}
	k.name = "fuzz"
	return k
}

func FuzzEngineRandomKernel(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(0), uint8(0), false)
	f.Add(int64(7), uint8(23), uint8(4), uint8(1), uint8(0), true)
	f.Add(int64(42), uint8(11), uint8(1), uint8(4), uint8(3), false)
	f.Add(int64(-99), uint8(1), uint8(3), uint8(2), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, ctas, warps, platform, maxCycles uint8, diverge bool) {
		archs := append(arch.All(), arch.GTX750Ti())
		ar := archs[int(platform)%len(archs)]
		nctas := 1 + int(ctas%48)
		nwarps := 1 + int(warps%4)
		cfg := DefaultConfig(ar)
		cfg.L1Enabled = platform&8 == 0
		// 0 keeps the default bound; small bounds force the overrun error.
		cfg.MaxCycles = int64(maxCycles) * 16

		k := fuzzKernel(seed, nctas, nwarps, diverge)
		res, err := Run(cfg, k)
		again, err2 := Run(cfg, k)
		if err != nil {
			if msg := err.Error(); !strings.Contains(msg, "deadlock") && !strings.Contains(msg, "exceeded") {
				t.Fatalf("unexpected error: %v", err)
			}
			if err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("rerun error %v differs from %v", err2, err)
			}
			return
		}
		if err2 != nil {
			t.Fatalf("rerun failed where the first run succeeded: %v", err2)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("rerun differs (cycles %d vs %d)", res.Cycles, again.Cycles)
		}
		if len(res.CTAs) != nctas {
			t.Fatalf("%d CTA records for a grid of %d", len(res.CTAs), nctas)
		}
		seen := make([]int, nctas)
		for sm, ids := range res.PerSM {
			for _, id := range ids {
				if id < 0 || id >= nctas {
					t.Fatalf("SM %d ran CTA %d outside the grid", sm, id)
				}
				if res.CTAs[id].SM != sm {
					t.Fatalf("CTA %d listed on SM %d but recorded on SM %d", id, sm, res.CTAs[id].SM)
				}
				seen[id]++
			}
		}
		for id, r := range res.CTAs {
			if seen[id] != 1 {
				t.Fatalf("CTA %d dispatched %d times", id, seen[id])
			}
			if r.CTA != id || r.Retired < r.Dispatched {
				t.Fatalf("CTA %d record %+v: wrong id or retired before dispatch", id, r)
			}
		}
	})
}
