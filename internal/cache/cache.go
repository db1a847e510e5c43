// Package cache models the GPU cache structures the paper studies: the
// per-SM L1 data cache (Fermi/Kepler: 128B lines, write-evict) and the
// sectored L1/Tex unified cache (Maxwell/Pascal: 32B lines, two sectors
// private to CTA-slot parity), and the shared banked L2 (write-back,
// write-allocate, 32B lines). It includes MSHR modelling so that
// requests merging onto an in-flight line are reported as "hit reserved",
// the state the paper observes for first-turnaround CTAs in Figure 2.
//
// The MSHR table is unbounded: every in-flight line gets an entry. Each
// entry carries the cycle its fill lands (SetFillTime), so ReadAt and
// WriteAt install a landed line themselves; the caller keeps no fill
// table of its own.
//
// Retirement is lazy. An entry leaves the table when Fill is called, or
// when ReadAt or WriteAt next touches its line at or after the fill
// time; only then is the line installed, evicting its victim. A landed
// fill whose line is never touched again installs nothing, evicts
// nothing and stays Pending to the end of the run, so the table holds
// most of a run's misses: at the end of MM on TeslaK40 about 3,500 to
// 4,900 entries per SM out of about 7,400 L1 reads, on GTX980 up to
// 27,648 (every read), and for BFS about 4,100 to 8,600. Retiring an
// entry when its fill lands would change which lines are resident, and
// so the results.
package cache

import (
	"fmt"
	"math"
	"math/bits"

	"ctacluster/internal/fastmod"
)

// Result classifies one cache access.
type Result uint8

const (
	// Hit: the line is present and valid.
	Hit Result = iota
	// HitReserved: the line is already being fetched (MSHR merge); the
	// requester still waits the full miss latency but no new transaction
	// is generated.
	HitReserved
	// Miss: the line is absent; a fill must be requested.
	Miss
	// Bypassed: the access skipped this cache level entirely.
	Bypassed
)

// String returns the result name.
func (r Result) String() string {
	switch r {
	case Hit:
		return "hit"
	case HitReserved:
		return "hit-reserved"
	case Miss:
		return "miss"
	case Bypassed:
		return "bypassed"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// WritePolicy selects how the cache treats stores.
type WritePolicy uint8

const (
	// WriteEvict: a store invalidates any cached copy and is forwarded
	// to the next level (the GPU L1 policy, Section 3.2-D).
	WriteEvict WritePolicy = iota
	// WriteBackAllocate: stores allocate on miss and dirty the line;
	// dirty evictions produce writeback transactions (the L2 policy).
	WriteBackAllocate
)

// Config sizes and configures a cache instance.
type Config struct {
	Size    int // total bytes (across all sectors)
	Line    int // bytes per line
	Assoc   int // ways per set
	Sectors int // 1 = unified; 2 = Maxwell/Pascal sectored L1/Tex
	Policy  WritePolicy
}

// Stats accumulates counters compatible with the profiler metrics the
// paper reports (L1 read transactions, L1->L2 read transactions, hit
// rate).
type Stats struct {
	Reads         uint64 // read accesses reaching the cache
	Writes        uint64 // write accesses reaching the cache
	ReadHits      uint64
	ReadReserved  uint64 // MSHR merges
	ReadMisses    uint64 // misses generating a fill
	WriteHits     uint64
	WriteMisses   uint64
	BypassedReads uint64 // reads routed around the cache
	Evictions     uint64
	Writebacks    uint64 // dirty evictions (WriteBackAllocate only)
	Fills         uint64
}

// Accesses returns the total demand accesses (reads + writes).
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Add accumulates o into s field by field (aggregating per-SM caches or
// summing interval snapshots back into run totals).
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadHits += o.ReadHits
	s.ReadReserved += o.ReadReserved
	s.ReadMisses += o.ReadMisses
	s.WriteHits += o.WriteHits
	s.WriteMisses += o.WriteMisses
	s.BypassedReads += o.BypassedReads
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
	s.Fills += o.Fills
}

// Sub returns the counter deltas s - o; with cumulative snapshots taken
// from the same cache, o earlier than s, every delta is non-negative.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:         s.Reads - o.Reads,
		Writes:        s.Writes - o.Writes,
		ReadHits:      s.ReadHits - o.ReadHits,
		ReadReserved:  s.ReadReserved - o.ReadReserved,
		ReadMisses:    s.ReadMisses - o.ReadMisses,
		WriteHits:     s.WriteHits - o.WriteHits,
		WriteMisses:   s.WriteMisses - o.WriteMisses,
		BypassedReads: s.BypassedReads - o.BypassedReads,
		Evictions:     s.Evictions - o.Evictions,
		Writebacks:    s.Writebacks - o.Writebacks,
		Fills:         s.Fills - o.Fills,
	}
}

// HitRate returns read hits (including reserved merges, which do find
// their data in the cache eventually) over read accesses; the profiler
// convention the paper's HT_RTE series uses.
func (s Stats) HitRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadHits) / float64(s.Reads)
}

// tagWord is the tag-store word of a resident line: its line number,
// addr >> log2(Line), shifted left over a valid bit. The line number is
// below 2^62 because New requires Line >= 4, so no bit is lost, and a
// zero word is an invalid way.
func tagWord(tag uint64) uint64 { return tag<<1 | 1 }

// Cache is a set-associative, LRU cache with optional sectoring and
// MSHR-based miss merging. It is a timing/occupancy model: no data is
// stored, only tags. Under WriteEvict a line is never both resident and
// in flight: only a fill installs a line, and the fill retires its MSHR
// entry. That is why ReadAt can serve a resident line without looking
// in the MSHR table.
//
// The tag store is flat, one array per field, indexed
// (sector*nsets+set)*assoc+way, so a set's tags are assoc consecutive
// words. Set selection is a mask or a reciprocal multiply (fastmod), so
// no access divides.
type Cache struct {
	cfg       Config
	lineShift uint            // log2(Line)
	nsets     int             // sets per sector
	setMod    fastmod.Divisor // nsets
	tags      []uint64        // tagWord of the resident line; 0 = invalid
	lru       []uint64        // clock of the last touch; larger = more recent
	dirty     []bool
	pending   mshrTable
	clock     uint64
	stats     Stats
}

// New builds a cache from cfg. Line must be a power of two of at least
// 4 bytes: set selection shifts by it, and the MSHR key packs the sector
// into the two low bits of addr/Line. The per-sector set count is
// Size/Sectors/(Line*Assoc), rounded down; it need not be a power of two
// (the TeslaK40 L2 has 3072 sets, the sectored L1s 96 or 48 per sector).
func New(cfg Config) *Cache {
	if cfg.Sectors <= 0 {
		cfg.Sectors = 1
	}
	if cfg.Line <= 0 || cfg.Assoc <= 0 || cfg.Size <= 0 {
		panic("cache: invalid config")
	}
	if cfg.Line < 4 || cfg.Line&(cfg.Line-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d is not a power of two of at least 4 bytes", cfg.Line))
	}
	perSector := cfg.Size / cfg.Sectors
	nsets := perSector / (cfg.Line * cfg.Assoc)
	if nsets <= 0 {
		panic(fmt.Sprintf("cache: size %d too small for line %d assoc %d sectors %d",
			cfg.Size, cfg.Line, cfg.Assoc, cfg.Sectors))
	}
	ways := cfg.Sectors * nsets * cfg.Assoc
	return &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.Line))),
		nsets:     nsets,
		setMod:    fastmod.New(uint64(nsets)),
		tags:      make([]uint64, ways),
		lru:       make([]uint64, ways),
		dirty:     make([]bool, ways),
	}
}

// Config returns the construction configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// LineBase returns addr rounded down to its line base.
func (c *Cache) LineBase(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.Line) - 1)
}

// locate returns the index of way 0 of addr's set and addr's tag. An
// out-of-range sector falls back to sector 0.
func (c *Cache) locate(addr uint64, sectorID int) (int, uint64) {
	if sectorID < 0 || sectorID >= c.cfg.Sectors {
		sectorID = 0
	}
	tag := addr >> c.lineShift
	return (sectorID*c.nsets + int(c.setMod.Mod(tag))) * c.cfg.Assoc, tag
}

// pendKey names a line in the MSHR table; tag is addr / Line, as
// locate returns it. The sector bits disambiguate identical lines
// across sectors.
func pendKey(tag uint64, sectorID int) uint64 {
	return tag<<2 | uint64(sectorID&3)
}

// find returns the way of set holding tag, or -1.
func (c *Cache) find(set int, tag uint64) int {
	word := tagWord(tag)
	for i, t := range c.tags[set : set+c.cfg.Assoc] {
		if t == word {
			return set + i
		}
	}
	return -1
}

// victim returns the way of set to replace: the first invalid way, else
// the least recently used one (the first of equals).
func (c *Cache) victim(set int) int {
	tags := c.tags[set : set+c.cfg.Assoc]
	lru := c.lru[set : set+len(tags)]
	v := 0
	for i, t := range tags {
		if t == 0 {
			return set + i
		}
		if lru[i] < lru[v] {
			v = i
		}
	}
	return set + v
}

// Read performs a demand load of the line containing addr in the given
// sector. On Miss the caller must eventually call Fill for the same
// address and sector. HitReserved means an earlier miss on the line is
// still in flight; the caller should wait on that fill instead of
// issuing a new one. Read is ReadAt at a time no fill has landed by.
func (c *Cache) Read(addr uint64, sectorID int) Result {
	res, _ := c.ReadAt(addr, sectorID, math.MinInt64)
	return res
}

// ReadAt is Read at cycle now for a caller that names fill times with
// SetFillTime instead of calling Fill. An in-flight line whose fill has
// landed by now is installed first, exactly as Fill would, so the
// access hits it. HitReserved also returns the cycle the pending fill
// lands. On Miss the caller fetches the line and then calls
// SetFillTime once with the cycle it arrives.
func (c *Cache) ReadAt(addr uint64, sectorID int, now int64) (Result, int64) {
	set, tag := c.locate(addr, sectorID)
	w := c.find(set, tag)
	if w < 0 {
		key := pendKey(tag, sectorID)
		i, ok := c.pending.find(key)
		if !ok {
			c.clock++
			c.stats.Reads++
			c.stats.ReadMisses++
			c.pending.add(i, key)
			return Miss, 0
		}
		if e := &c.pending.slots[i]; e.ready > now {
			c.clock++
			c.stats.Reads++
			c.stats.ReadReserved++
			e.waiters++
			return HitReserved, e.ready
		}
		c.pending.remove(i)
		w = c.fill(set, tag)
	}
	c.readHit(w)
	return Hit, 0
}

func (c *Cache) readHit(w int) {
	c.clock++
	c.stats.Reads++
	c.stats.ReadHits++
	c.lru[w] = c.clock
}

// SetFillTime records the cycle the in-flight fetch of addr's line
// lands. ReadAt and WriteAt install the line on their first access at
// or after that cycle. It is a no-op for a line not in flight. Called
// right after the Miss that created the entry, it finds the entry
// without probing.
func (c *Cache) SetFillTime(addr uint64, sectorID int, at int64) {
	if e := c.pending.get(pendKey(addr>>c.lineShift, sectorID)); e != nil {
		e.ready = at
	}
}

// ReadFill is Read followed, on Miss, by Fill: a read-allocate whose
// fill completes within the call, as the L2 models it. It never leaves
// an MSHR entry behind.
func (c *Cache) ReadFill(addr uint64, sectorID int) Result {
	set, tag := c.locate(addr, sectorID)
	if w := c.find(set, tag); w >= 0 {
		c.readHit(w)
		return Hit
	}
	if c.pending.n != 0 {
		if _, ok := c.pending.find(pendKey(tag, sectorID)); ok {
			return c.Read(addr, sectorID) // merges as HitReserved
		}
	}
	c.clock++
	c.stats.Reads++
	c.stats.ReadMisses++
	c.fill(set, tag)
	return Miss
}

// BypassRead records a read that skipped this level (ld.global.cg).
func (c *Cache) BypassRead() Result {
	c.stats.BypassedReads++
	return Bypassed
}

// Write performs a demand store of the line containing addr. The return
// value tells the caller whether a next-level transaction is needed:
// WriteEvict always forwards; WriteBackAllocate forwards only on miss
// (the allocation fill).
func (c *Cache) Write(addr uint64, sectorID int) Result {
	return c.WriteAt(addr, sectorID, math.MinInt64)
}

// WriteAt is Write at cycle now: like ReadAt, it first installs the
// line if its pending fill has landed by now, so the store sees it.
func (c *Cache) WriteAt(addr uint64, sectorID int, now int64) Result {
	set, tag := c.locate(addr, sectorID)
	w := c.find(set, tag)
	if w < 0 && c.pending.n != 0 {
		if i, ok := c.pending.find(pendKey(tag, sectorID)); ok && c.pending.slots[i].ready <= now {
			c.pending.remove(i)
			w = c.fill(set, tag)
		}
	}
	c.clock++
	c.stats.Writes++
	switch c.cfg.Policy {
	case WriteEvict:
		if w >= 0 {
			// Invalidate: this is the early-eviction mechanism behind
			// the write-related category (Figure 4-D).
			c.tags[w] = 0
			c.stats.Evictions++
			c.stats.WriteHits++
		} else {
			c.stats.WriteMisses++
		}
		return Miss // always forwarded to the next level
	case WriteBackAllocate:
		if w >= 0 {
			c.dirty[w] = true
			c.lru[w] = c.clock
			c.stats.WriteHits++
			return Hit
		}
		c.stats.WriteMisses++
		c.insert(set, tag, true)
		return Miss // allocation fill from the next level
	default:
		panic("cache: unknown write policy")
	}
}

// Fill installs the line containing addr after its fetch returns, and
// releases any requesters merged on the MSHR entry. It returns how many
// requesters (including the original) were waiting.
func (c *Cache) Fill(addr uint64, sectorID int) int {
	set, tag := c.locate(addr, sectorID)
	waiters := 0
	if i, ok := c.pending.find(pendKey(tag, sectorID)); ok {
		waiters = c.pending.slots[i].waiters
		c.pending.remove(i)
	}
	c.clock++
	c.stats.Fills++
	if c.find(set, tag) < 0 {
		c.insert(set, tag, false)
	}
	return max(waiters, 1)
}

// fill installs a fetched line that is not resident and returns its way.
func (c *Cache) fill(set int, tag uint64) int {
	c.clock++
	c.stats.Fills++
	return c.insert(set, tag, false)
}

// Pending reports whether a fetch for addr's line is in flight.
func (c *Cache) Pending(addr uint64, sectorID int) bool {
	_, ok := c.pending.find(pendKey(addr>>c.lineShift, sectorID))
	return ok
}

// Contains reports whether addr's line is valid in the cache (test hook).
func (c *Cache) Contains(addr uint64, sectorID int) bool {
	set, tag := c.locate(addr, sectorID)
	return c.find(set, tag) >= 0
}

// Flush invalidates all lines, emitting writebacks for dirty ones, and
// returns the number of writeback transactions.
func (c *Cache) Flush() uint64 {
	var wb uint64
	for w, t := range c.tags {
		if t != 0 && c.dirty[w] {
			wb++
			c.stats.Writebacks++
		}
		c.tags[w] = 0
		c.dirty[w] = false
	}
	return wb
}

// insert installs tag in set over its victim and returns the way.
func (c *Cache) insert(set int, tag uint64, dirty bool) int {
	w := c.victim(set)
	if c.tags[w] != 0 {
		c.stats.Evictions++
		if c.dirty[w] {
			c.stats.Writebacks++
		}
	}
	c.tags[w], c.dirty[w], c.lru[w] = tagWord(tag), dirty, c.clock
	return w
}
