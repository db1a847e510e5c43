package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallL1() *Cache {
	// 1KB, 128B lines, 2-way: 4 sets.
	return New(Config{Size: 1024, Line: 128, Assoc: 2, Policy: WriteEvict})
}

func TestColdMissThenHit(t *testing.T) {
	c := smallL1()
	if r := c.Read(0x100, 0); r != Miss {
		t.Fatalf("cold read = %v, want miss", r)
	}
	c.Fill(0x100, 0)
	if r := c.Read(0x100, 0); r != Hit {
		t.Fatalf("read after fill = %v, want hit", r)
	}
	if r := c.Read(0x17F, 0); r != Hit {
		t.Fatalf("same-line read = %v, want hit", r)
	}
	st := c.Stats()
	if st.Reads != 3 || st.ReadHits != 2 || st.ReadMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHitReservedMerging(t *testing.T) {
	c := smallL1()
	if r := c.Read(0x100, 0); r != Miss {
		t.Fatal("first read should miss")
	}
	// Subsequent reads to the in-flight line merge on the MSHR.
	for i := 0; i < 3; i++ {
		if r := c.Read(0x100, 0); r != HitReserved {
			t.Fatalf("read %d = %v, want hit-reserved", i, r)
		}
	}
	if !c.Pending(0x100, 0) {
		t.Error("line should be pending")
	}
	waiters := c.Fill(0x100, 0)
	if waiters != 4 {
		t.Errorf("waiters = %d, want 4 (1 miss + 3 merges)", waiters)
	}
	if c.Pending(0x100, 0) {
		t.Error("fill should clear pending")
	}
	if st := c.Stats(); st.ReadReserved != 3 {
		t.Errorf("reserved = %d, want 3", st.ReadReserved)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallL1() // 4 sets x 2 ways; lines 0x000, 0x200, 0x400 map to set 0
	for _, a := range []uint64{0x000, 0x200} {
		c.Read(a, 0)
		c.Fill(a, 0)
	}
	c.Read(0x000, 0) // touch to make 0x200 the LRU victim
	c.Read(0x400, 0)
	c.Fill(0x400, 0)
	if !c.Contains(0x000, 0) {
		t.Error("recently used line was evicted")
	}
	if c.Contains(0x200, 0) {
		t.Error("LRU line should have been evicted")
	}
	if !c.Contains(0x400, 0) {
		t.Error("new line not present")
	}
}

func TestWriteEvictInvalidates(t *testing.T) {
	c := smallL1()
	c.Read(0x100, 0)
	c.Fill(0x100, 0)
	if r := c.Write(0x100, 0); r != Miss {
		t.Errorf("write-evict write = %v, want miss (always forwarded)", r)
	}
	if c.Contains(0x100, 0) {
		t.Error("write should have invalidated the line (write-evict)")
	}
	// Write to an absent line: still forwarded, no allocation.
	if r := c.Write(0x300, 0); r != Miss {
		t.Errorf("write miss = %v", r)
	}
	if c.Contains(0x300, 0) {
		t.Error("write-evict must not allocate")
	}
}

func TestWriteBackAllocate(t *testing.T) {
	c := New(Config{Size: 1024, Line: 32, Assoc: 2, Policy: WriteBackAllocate})
	if r := c.Write(0x40, 0); r != Miss {
		t.Fatalf("write miss = %v", r)
	}
	if !c.Contains(0x40, 0) {
		t.Fatal("write-allocate should install the line")
	}
	if r := c.Write(0x40, 0); r != Hit {
		t.Fatalf("write hit = %v", r)
	}
	// Evicting the dirty line must count a writeback: fill enough
	// conflicting lines into the same set.
	set := uint64(1024 / 32 / 2) // sets
	for i := uint64(1); i <= 2; i++ {
		addr := 0x40 + i*set*32
		c.Read(addr, 0)
		c.Fill(addr, 0)
	}
	if st := c.Stats(); st.Writebacks == 0 {
		t.Error("dirty eviction should count a writeback")
	}
}

func TestSectorIsolation(t *testing.T) {
	c := New(Config{Size: 2048, Line: 32, Assoc: 2, Sectors: 2, Policy: WriteEvict})
	c.Read(0x100, 0)
	c.Fill(0x100, 0)
	if r := c.Read(0x100, 1); r == Hit {
		t.Error("sector 1 must not see sector 0's line (Section 3.1: sectors are private)")
	}
	if !c.Contains(0x100, 0) || c.Contains(0x100, 1) {
		t.Error("Contains should be sector-local")
	}
}

func TestSectorPendingIsolation(t *testing.T) {
	c := New(Config{Size: 2048, Line: 32, Assoc: 2, Sectors: 2, Policy: WriteEvict})
	if r := c.Read(0x100, 0); r != Miss {
		t.Fatal("want miss")
	}
	if r := c.Read(0x100, 1); r != Miss {
		t.Errorf("other sector's read = %v, want an independent miss", r)
	}
}

func TestFlush(t *testing.T) {
	c := New(Config{Size: 1024, Line: 32, Assoc: 2, Policy: WriteBackAllocate})
	c.Write(0x40, 0) // dirty
	c.Read(0x80, 0)
	c.Fill(0x80, 0) // clean
	wb := c.Flush()
	if wb != 1 {
		t.Errorf("flush writebacks = %d, want 1", wb)
	}
	if c.Contains(0x40, 0) || c.Contains(0x80, 0) {
		t.Error("flush should invalidate everything")
	}
}

func TestHitRate(t *testing.T) {
	c := smallL1()
	c.Read(0x100, 0)
	c.Fill(0x100, 0)
	c.Read(0x100, 0)
	c.Read(0x100, 0)
	if hr := c.Stats().HitRate(); hr < 0.66 || hr > 0.67 {
		t.Errorf("hit rate = %v, want 2/3", hr)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
}

func TestBypassRead(t *testing.T) {
	c := smallL1()
	if r := c.BypassRead(); r != Bypassed {
		t.Errorf("BypassRead = %v", r)
	}
	if c.Stats().BypassedReads != 1 {
		t.Error("bypass not counted")
	}
}

func TestResetStats(t *testing.T) {
	c := smallL1()
	c.Read(0x100, 0)
	c.Fill(0x100, 0)
	c.ResetStats()
	if c.Stats().Accesses() != 0 {
		t.Error("ResetStats should zero counters")
	}
	if !c.Contains(0x100, 0) {
		t.Error("ResetStats must not drop contents")
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	bad := []Config{
		{Size: 0, Line: 32, Assoc: 1},
		{Size: 64, Line: 0, Assoc: 1},
		{Size: 64, Line: 32, Assoc: 0},
		{Size: 32, Line: 128, Assoc: 4}, // too small for one set
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestResultString(t *testing.T) {
	for r, want := range map[Result]string{
		Hit: "hit", HitReserved: "hit-reserved", Miss: "miss", Bypassed: "bypassed",
	} {
		if r.String() != want {
			t.Errorf("%v.String() = %s", r, r.String())
		}
	}
}

// TestRandomizedConsistency drives the cache with random traffic and
// checks the structural invariants: fill-after-miss always yields a
// subsequent hit, reads+writes equal the access counter, and the cache
// never reports a hit for a line it evicted without re-filling.
func TestRandomizedConsistency(t *testing.T) {
	c := New(Config{Size: 4096, Line: 64, Assoc: 4, Policy: WriteEvict})
	rng := rand.New(rand.NewSource(7))
	pending := map[uint64]bool{}
	var reads, writes uint64
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1 << 14))
		if rng.Intn(4) == 0 {
			c.Write(addr, 0)
			writes++
			continue
		}
		reads++
		switch c.Read(addr, 0) {
		case Miss:
			lb := c.LineBase(addr)
			if pending[lb] {
				t.Fatalf("miss on already-pending line %x", lb)
			}
			pending[lb] = true
			// Fill immediately half the time, later otherwise.
			if rng.Intn(2) == 0 {
				c.Fill(addr, 0)
				delete(pending, lb)
				if r := c.Read(addr, 0); r != Hit {
					t.Fatalf("read after fill = %v", r)
				}
				reads++
			}
		case HitReserved:
			if !pending[c.LineBase(addr)] {
				t.Fatalf("hit-reserved without pending fill at %x", addr)
			}
		}
	}
	st := c.Stats()
	if st.Reads != reads || st.Writes != writes {
		t.Errorf("counter drift: %+v vs reads=%d writes=%d", st, reads, writes)
	}
	if st.ReadHits+st.ReadMisses+st.ReadReserved != st.Reads {
		t.Error("read outcomes do not sum to total reads")
	}
}

// TestLineBaseProperty checks LineBase alignment and idempotence.
func TestLineBaseProperty(t *testing.T) {
	c := smallL1()
	f := func(addr uint64) bool {
		lb := c.LineBase(addr % (1 << 40))
		return lb%128 == 0 && c.LineBase(lb) == lb && lb <= addr%(1<<40)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
