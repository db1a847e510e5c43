package cache

import (
	"math"
	"math/rand"
	"testing"

	"ctacluster/internal/arch"
)

// refGeometries are the platform caches the differential tests drive,
// plus a tiny one with three sets that thrashes.
func refGeometries() []Config {
	k40, gm := arch.TeslaK40(), arch.GTX980()
	return []Config{
		// Kepler L1: 32 sets.
		{Size: k40.L1Size, Line: k40.L1Line, Assoc: k40.L1Assoc, Sectors: 1, Policy: WriteEvict},
		// Sectored Maxwell L1: 96 sets per sector, 2 sectors.
		{Size: gm.L1Size, Line: gm.L1Line, Assoc: gm.L1Assoc, Sectors: 2, Policy: WriteEvict},
		// Kepler L2: 3072 sets, write-back.
		{Size: k40.L2Size, Line: k40.L2Line, Assoc: k40.L2Assoc, Sectors: 1, Policy: WriteBackAllocate},
		{Size: 3 * 2 * 2 * 32, Line: 32, Assoc: 2, Sectors: 2, Policy: WriteBackAllocate},
	}
}

// refBases are the first line addresses of the streams: low memory, and
// addresses up to and beyond 2^62, up to the top of the address space.
var refBases = []uint64{0, 0x7f30_0000_0000, 1<<62 - 1<<20, 1 << 62, 1<<63 + 12345, math.MaxUint64 - 1<<32}

// refRun drives one op stream through a Cache and a refCache in
// lockstep. Each op is 4 bytes: kind, sector and time step, and two
// bytes choosing the line. Every result, reserved-hit time, Fill waiter
// count, Flush count, Pending and Contains answer and, after every op,
// the stats must be equal.
type refRun struct {
	t        testing.TB
	cfg      Config
	c        *Cache
	r        *refCache
	base     uint64 // line-aligned
	nsets    uint64
	now      int64
	lines    []uint64 // every line address the stream touched
	lastMiss uint64
}

func newRefRun(t testing.TB, cfg Config, base uint64) *refRun {
	line := uint64(cfg.Line)
	nsets := uint64(cfg.Size / cfg.Sectors / (cfg.Line * cfg.Assoc))
	// Leave room above base for the widest line choice.
	span := (uint64(128)<<8 + 2*uint64(cfg.Assoc)*nsets + 4) * line
	if base > math.MaxUint64-span {
		base = math.MaxUint64 - span
	}
	return &refRun{t: t, cfg: cfg, c: New(cfg), r: newRef(cfg), base: base &^ (line - 1), nsets: nsets}
}

func (x *refRun) addr(b2, b3 byte) uint64 {
	line := uint64(x.cfg.Line)
	var n uint64
	if b2&1 == 0 {
		// Narrow: four sets, twice as many lines as ways in each, so
		// lines are evicted and hit about evenly.
		n = uint64(b3)%(2*uint64(x.cfg.Assoc))*x.nsets + uint64(b2>>1)%4
	} else {
		// Wide: up to 32K lines, most missing, so the MSHR table grows.
		n = uint64(b2>>1)<<8 | uint64(b3)
	}
	return x.base + n*line + uint64(b3)%line
}

func (x *refRun) op(b [4]byte) {
	t := x.t
	t.Helper()
	kind := b[0] % 16
	sector := int(b[1]%uint8(x.cfg.Sectors+2)) - 1 // -1 and Sectors are out of range
	x.now += int64(b[1]>>3) - 4                    // time sometimes steps back
	addr := x.addr(b[2], b[3])
	x.lines = append(x.lines, addr)
	lat := 1 + 3*int64(b[3])
	switch {
	case kind <= 4:
		got, gotAt := x.c.ReadAt(addr, sector, x.now)
		want, wantAt := x.r.ReadAt(addr, sector, x.now)
		if got != want || gotAt != wantAt {
			t.Fatalf("ReadAt(%#x, %d, %d) = %v@%d, reference %v@%d", addr, sector, x.now, got, gotAt, want, wantAt)
		}
		if got == Miss {
			x.lastMiss = addr
			if kind < 4 { // the engine's pattern: name the fill time at once
				x.c.SetFillTime(addr, sector, x.now+lat)
				x.r.SetFillTime(addr, sector, x.now+lat)
			}
		}
	case kind == 5:
		if b[2]&2 == 0 {
			addr = x.lastMiss
		}
		x.c.SetFillTime(addr, sector, x.now+lat)
		x.r.SetFillTime(addr, sector, x.now+lat)
	case kind == 6:
		if got, want := x.c.Read(addr, sector), x.r.Read(addr, sector); got != want {
			t.Fatalf("Read(%#x, %d) = %v, reference %v", addr, sector, got, want)
		}
	case kind <= 8:
		if got, want := x.c.WriteAt(addr, sector, x.now), x.r.WriteAt(addr, sector, x.now); got != want {
			t.Fatalf("WriteAt(%#x, %d, %d) = %v, reference %v", addr, sector, x.now, got, want)
		}
	case kind == 9:
		if got, want := x.c.Write(addr, sector), x.r.Write(addr, sector); got != want {
			t.Fatalf("Write(%#x, %d) = %v, reference %v", addr, sector, got, want)
		}
	case kind <= 11:
		if got, want := x.c.ReadFill(addr, sector), x.r.ReadFill(addr, sector); got != want {
			t.Fatalf("ReadFill(%#x, %d) = %v, reference %v", addr, sector, got, want)
		}
	case kind == 12:
		if got, want := x.c.Fill(addr, sector), x.r.Fill(addr, sector); got != want {
			t.Fatalf("Fill(%#x, %d) = %d waiters, reference %d", addr, sector, got, want)
		}
	case kind == 15 && b[1] < 8:
		if got, want := x.c.Flush(), x.r.Flush(); got != want {
			t.Fatalf("Flush() = %d writebacks, reference %d", got, want)
		}
	default:
		x.check(addr, sector)
	}
	if got, want := x.c.Stats(), x.r.stats; got != want {
		t.Fatalf("after op %v at %#x sector %d: stats %+v, reference %+v", b, addr, sector, got, want)
	}
}

func (x *refRun) check(addr uint64, sector int) {
	x.t.Helper()
	if got, want := x.c.Pending(addr, sector), x.r.Pending(addr, sector); got != want {
		x.t.Fatalf("Pending(%#x, %d) = %v, reference %v", addr, sector, got, want)
	}
	if got, want := x.c.Contains(addr, sector), x.r.Contains(addr, sector); got != want {
		x.t.Fatalf("Contains(%#x, %d) = %v, reference %v", addr, sector, got, want)
	}
}

// finish checks Pending and Contains of every line the stream touched,
// in every sector, and the MSHR entry counts.
func (x *refRun) finish() {
	for _, a := range x.lines {
		for s := -1; s <= x.cfg.Sectors; s++ {
			x.check(a, s)
		}
	}
	if x.c.pending.n != len(x.r.pending) {
		x.t.Fatalf("%d MSHR entries, reference %d", x.c.pending.n, len(x.r.pending))
	}
}

func (x *refRun) run(ops []byte) {
	for i := 0; i+4 <= len(ops); i += 4 {
		x.op([4]byte(ops[i : i+4]))
	}
	x.finish()
}

// TestCacheMatchesReference drives seeded random op streams through the
// flat-array, open-addressed Cache and the struct-of-lines, Go-map
// refCache on every geometry and base address.
func TestCacheMatchesReference(t *testing.T) {
	steps := 20000
	if testing.Short() {
		steps = 4000
	}
	for gi, cfg := range refGeometries() {
		for bi, base := range refBases {
			rng := rand.New(rand.NewSource(int64(gi*len(refBases) + bi + 1)))
			ops := make([]byte, 4*steps)
			rng.Read(ops)
			newRefRun(t, cfg, base).run(ops)
		}
	}
}

func FuzzCacheMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for gi := range refGeometries() {
		ops := make([]byte, 4*64)
		rng.Read(ops)
		f.Add(uint8(gi), refBases[gi%len(refBases)], ops)
	}
	geoms := refGeometries()
	f.Fuzz(func(t *testing.T, geom uint8, base uint64, ops []byte) {
		newRefRun(t, geoms[int(geom)%len(geoms)], base).run(ops)
	})
}

// TestMSHRTableMatchesMap drives the table directly against a map. About
// 360 of the 600 keys are live at a time, in 512 slots, so the load stays
// near 0.7, probe runs are long and backward-shift deletion moves entries,
// also across the wrap-around.
func TestMSHRTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tab mshrTable
	ref := map[uint64]int{}
	for step := 0; step < 200000; step++ {
		key := uint64(rng.Intn(600))
		i, ok := tab.find(key)
		w, want := ref[key]
		if ok != want || (ok && tab.slots[i].waiters != w) {
			t.Fatalf("step %d: find(%d) = %v (waiters %d), map %v (%d)", step, key, ok, tab.slots[max(i, 0)].waiters, want, w)
		}
		switch {
		case !ok:
			tab.add(i, key)
			ref[key] = 1
		case rng.Intn(3) == 0:
			tab.slots[i].waiters++
			ref[key]++
		default:
			tab.remove(i)
			delete(ref, key)
		}
		if tab.n != len(ref) {
			t.Fatalf("step %d: %d entries, map %d", step, tab.n, len(ref))
		}
	}
	for key, w := range ref {
		if e := tab.get(key); e == nil || e.waiters != w {
			t.Fatalf("get(%d) = %v, map %d waiters", key, e, w)
		}
	}
	if tab.n*8 > len(tab.slots)*7 {
		t.Fatalf("%d entries in %d slots: load above 7/8", tab.n, len(tab.slots))
	}
}

// TestLandedFillRetiresLazily pins the MSHR table's lazy retirement: a
// fill whose time has passed stays in the table, installs nothing and
// evicts nothing until its line is next accessed; that access installs
// it and hits.
func TestLandedFillRetiresLazily(t *testing.T) {
	c := New(Config{Size: 1024, Line: 128, Assoc: 2, Policy: WriteEvict}) // 4 sets
	// Two resident lines fill set 0.
	for _, a := range []uint64{0x000, 0x200} {
		c.Read(a, 0)
		c.Fill(a, 0)
	}
	if res, _ := c.ReadAt(0x400, 0, 10); res != Miss { // set 0 again
		t.Fatalf("first read of 0x400 = %v, want miss", res)
	}
	c.SetFillTime(0x400, 0, 50)
	// Long after the fill landed, other lines are accessed; 0x400 is not.
	for now := int64(100); now < 1000; now += 100 {
		c.ReadAt(0x000, 0, now)
		c.ReadAt(0x080, 0, now) // set 1
	}
	st := c.Stats()
	if !c.Pending(0x400, 0) || c.Contains(0x400, 0) {
		t.Fatalf("landed fill: pending %v, resident %v; want still pending, not resident", c.Pending(0x400, 0), c.Contains(0x400, 0))
	}
	if !c.Contains(0x000, 0) || !c.Contains(0x200, 0) || st.Evictions != 0 {
		t.Fatalf("a landed fill evicted a line (evictions %d)", st.Evictions)
	}
	if res, _ := c.ReadAt(0x400, 0, 1000); res != Hit {
		t.Fatalf("next access to the landed line = %v, want hit", res)
	}
	if c.Pending(0x400, 0) || !c.Contains(0x400, 0) || c.Stats().Fills != st.Fills+1 {
		t.Fatalf("next access did not install the landed line")
	}
}
