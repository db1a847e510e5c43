package cache

// Property tests: randomized access sequences driven through the cache
// under every configuration family the engine uses (Fermi/Kepler
// write-evict L1, Maxwell/Pascal sectored L1/Tex, write-back L2),
// checking structural invariants after every step:
//
//   - counter conservation: reads and writes each decompose exactly
//     into their outcome counters, and Accesses() is their sum;
//   - bounded occupancy: valid lines never exceed ways x sets x sectors;
//   - sector isolation: a sectored cache never serves (Contains) a line
//     from a sector that was not filled — a fill in sector 0 must not
//     make the line visible to sector-1 lookups.

import (
	"math/rand"
	"testing"
)

// shadow tracks which (line, sector) pairs could legitimately be
// resident: set by Fill (and by the write-allocate path), cleared by
// the write-evict invalidation and by Flush. The cache may hold fewer
// lines than the shadow (LRU evictions), never more.
type shadow map[uint64]bool

func (s shadow) key(c *Cache, addr uint64, sector int) uint64 {
	return c.LineBase(addr)<<2 | uint64(sector&3)
}

// pendingMiss is a read miss awaiting its Fill, as the engine would
// track it.
type pendingMiss struct {
	addr   uint64
	sector int
}

// checkCounters verifies the cheap arithmetic invariants; it runs after
// every step.
func checkCounters(t *testing.T, c *Cache, step int) {
	t.Helper()
	st := c.Stats()
	if got := st.ReadHits + st.ReadReserved + st.ReadMisses; got != st.Reads {
		t.Fatalf("step %d: read counters %d (hits %d + reserved %d + misses %d) != reads %d",
			step, got, st.ReadHits, st.ReadReserved, st.ReadMisses, st.Reads)
	}
	if got := st.WriteHits + st.WriteMisses; got != st.Writes {
		t.Fatalf("step %d: write counters %d != writes %d", step, got, st.Writes)
	}
	if st.Accesses() != st.Reads+st.Writes {
		t.Fatalf("step %d: Accesses() = %d, want reads %d + writes %d",
			step, st.Accesses(), st.Reads, st.Writes)
	}
}

// checkResidency walks the whole footprint (O(lines)), so it runs
// periodically rather than per step.
func checkResidency(t *testing.T, c *Cache, sh shadow, lines []uint64, step int) {
	t.Helper()
	cfg := c.Config()
	sectors := cfg.Sectors
	if sectors <= 0 {
		sectors = 1
	}
	capacity := cfg.Size / cfg.Line // ways x sets x sectors
	resident := 0
	for _, lb := range lines {
		for s := 0; s < sectors; s++ {
			if !c.Contains(lb, s) {
				continue
			}
			resident++
			if !sh[sh.key(c, lb, s)] {
				t.Fatalf("step %d: line %#x is served from sector %d which was never filled", step, lb, s)
			}
		}
	}
	if resident > capacity {
		t.Fatalf("step %d: %d resident lines exceed capacity %d", step, resident, capacity)
	}
}

func runRandomSequence(t *testing.T, cfg Config, seed int64, steps int) {
	c := New(cfg)
	rng := rand.New(rand.NewSource(seed))
	sectors := cfg.Sectors
	if sectors <= 0 {
		sectors = 1
	}

	// A footprint a few times the cache capacity: hits, misses,
	// evictions and set conflicts all occur.
	nlines := 4 * cfg.Size / cfg.Line
	lines := make([]uint64, nlines)
	for i := range lines {
		lines[i] = uint64(i) * uint64(cfg.Line)
	}

	sh := shadow{}
	var pending []pendingMiss

	for step := 0; step < steps; step++ {
		addr := lines[rng.Intn(nlines)] + uint64(rng.Intn(cfg.Line))
		sector := rng.Intn(sectors)
		switch op := rng.Intn(10); {
		case op < 5: // read
			res := c.Read(addr, sector)
			switch res {
			case Miss:
				pending = append(pending, pendingMiss{addr: addr, sector: sector})
			case HitReserved:
				if !c.Pending(addr, sector) {
					t.Fatalf("step %d: HitReserved but no fill pending for %#x/%d", step, addr, sector)
				}
			}
		case op < 8: // drain a pending fill, engine-style
			if len(pending) == 0 {
				continue
			}
			i := rng.Intn(len(pending))
			pm := pending[i]
			pending = append(pending[:i], pending[i+1:]...)
			if c.Fill(pm.addr, pm.sector) < 1 {
				t.Fatalf("step %d: Fill released no waiters", step)
			}
			sh[sh.key(c, pm.addr, pm.sector)] = true
		case op < 9: // write
			res := c.Write(addr, sector)
			switch cfg.Policy {
			case WriteEvict:
				if res != Miss {
					t.Fatalf("step %d: write-evict store returned %v, want forwarded Miss", step, res)
				}
				// The store invalidated any cached copy in this sector.
				delete(sh, sh.key(c, addr, sector))
			case WriteBackAllocate:
				if res == Miss {
					// Allocation fill: the line is now resident.
					sh[sh.key(c, addr, sector)] = true
				}
			}
		default: // occasional flush
			c.Flush()
			sh = shadow{}
		}
		checkCounters(t, c, step)
		if step%101 == 0 || step == steps-1 {
			checkResidency(t, c, sh, lines, step)
		}
	}

	// Every un-drained miss must still be visible as pending, and
	// draining them must leave no MSHR entries behind.
	for _, pm := range pending {
		if !c.Pending(pm.addr, pm.sector) {
			t.Fatalf("undrained miss %#x/%d not pending", pm.addr, pm.sector)
		}
		c.Fill(pm.addr, pm.sector)
	}
}

func TestCacheRandomizedInvariants(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"fermi-l1-write-evict", Config{Size: 16 * 1024, Line: 128, Assoc: 4, Sectors: 1, Policy: WriteEvict}},
		{"maxwell-l1-sectored", Config{Size: 48 * 1024, Line: 32, Assoc: 8, Sectors: 2, Policy: WriteEvict}},
		{"l2-write-back", Config{Size: 64 * 1024, Line: 32, Assoc: 16, Sectors: 1, Policy: WriteBackAllocate}},
		{"tiny-thrashing", Config{Size: 1024, Line: 32, Assoc: 2, Sectors: 2, Policy: WriteEvict}},
	}
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for _, tc := range configs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				runRandomSequence(t, tc.cfg, seed, steps)
			}
		})
	}
}

// TestSectorIsolationDirected pins the sector property directly: a fill
// in sector 0 must satisfy sector-0 lookups only. The sectored L1/Tex
// of Maxwell/Pascal keys sectors by CTA-slot parity, so cross-sector
// leakage would hand one CTA another CTA's locality.
func TestSectorIsolationDirected(t *testing.T) {
	c := New(Config{Size: 4 * 1024, Line: 32, Assoc: 4, Sectors: 2, Policy: WriteEvict})
	const addr = 0x1000
	if res := c.Read(addr, 0); res != Miss {
		t.Fatalf("cold read = %v, want Miss", res)
	}
	c.Fill(addr, 0)
	if !c.Contains(addr, 0) {
		t.Fatal("line missing from sector 0 after fill")
	}
	if c.Contains(addr, 1) {
		t.Fatal("fill in sector 0 leaked into sector 1")
	}
	if res := c.Read(addr, 1); res != Miss {
		t.Fatalf("sector-1 read after sector-0 fill = %v, want Miss", res)
	}
}
