package cache

import (
	"math/rand"
	"testing"
)

// fillTableL1 is the protocol ReadAt/WriteAt replaced, kept as their
// oracle: the caller owns a table of fill times beside the cache,
// applies every landed fill with Fill before the access that observes
// it, and answers a reserved hit from its own table.
type fillTableL1 struct {
	c     *Cache
	fills map[uint64]int64 // pendKey -> fill completion
}

func (o *fillTableL1) key(addr uint64, sector int) uint64 {
	return pendKey(addr/uint64(o.c.cfg.Line), sector)
}

func (o *fillTableL1) land(addr uint64, sector int, now int64) {
	k := o.key(addr, sector)
	if fd, ok := o.fills[k]; ok && fd <= now {
		o.c.Fill(addr, sector)
		delete(o.fills, k)
	}
}

func (o *fillTableL1) read(addr uint64, sector int, now, fetched int64) (Result, int64) {
	o.land(addr, sector, now)
	switch res := o.c.Read(addr, sector); res {
	case HitReserved:
		return res, o.fills[o.key(addr, sector)]
	case Miss:
		o.fills[o.key(addr, sector)] = fetched
		return res, 0
	default:
		return res, 0
	}
}

func (o *fillTableL1) write(addr uint64, sector int, now int64) Result {
	o.land(addr, sector, now)
	return o.c.Write(addr, sector)
}

// TestMSHRTableMatchesFillTable drives seeded random access streams,
// with random fill latencies and times that sometimes step backwards,
// through the fill-table protocol and through ReadAt/WriteAt with
// SetFillTime, and requires the same result and reserved-hit time for
// every access and the same stats, residency and MSHR contents at the
// end.
func TestMSHRTableMatchesFillTable(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"unsectored", Config{Size: 4 * 1024, Line: 128, Assoc: 4, Sectors: 1, Policy: WriteEvict}},
		{"2-sector", Config{Size: 2 * 1024, Line: 32, Assoc: 4, Sectors: 2, Policy: WriteEvict}},
	}
	steps := 20000
	if testing.Short() {
		steps = 4000
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				oracle := &fillTableL1{c: New(tc.cfg), fills: map[uint64]int64{}}
				c := New(tc.cfg)
				rng := rand.New(rand.NewSource(seed))
				nlines := 3 * tc.cfg.Size / tc.cfg.Line
				now := int64(0)
				for step := 0; step < steps; step++ {
					now += int64(rng.Intn(8))
					if rng.Intn(50) == 0 {
						now -= int64(rng.Intn(200)) // times need not be monotone
					}
					addr := uint64(rng.Intn(nlines)*tc.cfg.Line + rng.Intn(tc.cfg.Line))
					sector := rng.Intn(tc.cfg.Sectors)
					if rng.Intn(5) == 0 {
						want := oracle.write(addr, sector, now)
						if got := c.WriteAt(addr, sector, now); got != want {
							t.Fatalf("seed %d step %d: WriteAt(%#x, %d, %d) = %v, fill table says %v",
								seed, step, addr, sector, now, got, want)
						}
						continue
					}
					fetched := now + 1 + int64(rng.Intn(400))
					wantRes, wantAt := oracle.read(addr, sector, now, fetched)
					gotRes, gotAt := c.ReadAt(addr, sector, now)
					if gotRes == Miss {
						c.SetFillTime(addr, sector, fetched)
					}
					if gotRes != wantRes || gotAt != wantAt {
						t.Fatalf("seed %d step %d: ReadAt(%#x, %d, %d) = %v@%d, fill table says %v@%d",
							seed, step, addr, sector, now, gotRes, gotAt, wantRes, wantAt)
					}
				}
				if got, want := c.Stats(), oracle.c.Stats(); got != want {
					t.Fatalf("seed %d: stats %+v, fill table %+v", seed, got, want)
				}
				for i := 0; i < nlines; i++ {
					addr := uint64(i * tc.cfg.Line)
					for s := 0; s < tc.cfg.Sectors; s++ {
						if c.Contains(addr, s) != oracle.c.Contains(addr, s) || c.Pending(addr, s) != oracle.c.Pending(addr, s) {
							t.Fatalf("seed %d: line %#x sector %d: contains/pending %v/%v, fill table %v/%v", seed, addr, s,
								c.Contains(addr, s), c.Pending(addr, s), oracle.c.Contains(addr, s), oracle.c.Pending(addr, s))
						}
					}
				}
			}
		})
	}
}

// TestReadFillMatchesReadThenFill pins the L2's entry point to the
// sequence it replaced: Read, then Fill on a miss.
func TestReadFillMatchesReadThenFill(t *testing.T) {
	cfg := Config{Size: 8 * 1024, Line: 32, Assoc: 4, Sectors: 1, Policy: WriteBackAllocate}
	a, b := New(cfg), New(cfg)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 20000; step++ {
		addr := uint64(rng.Intn(1024) * 32)
		if rng.Intn(4) == 0 {
			if a.Write(addr, 0) != b.Write(addr, 0) {
				t.Fatalf("step %d: writes diverged", step)
			}
			continue
		}
		want := a.Read(addr, 0)
		if want == Miss {
			a.Fill(addr, 0)
		}
		if got := b.ReadFill(addr, 0); got != want {
			t.Fatalf("step %d: ReadFill(%#x) = %v, Read+Fill %v", step, addr, got, want)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats %+v, Read+Fill %+v", b.Stats(), a.Stats())
	}
	if len(b.pending) != 0 {
		t.Fatalf("ReadFill left %d MSHR entries", len(b.pending))
	}
}
