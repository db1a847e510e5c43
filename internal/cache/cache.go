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
package cache

import (
	"fmt"
	"math"
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

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // larger = more recently used
}

type set struct {
	ways []line
}

type sector struct {
	sets []set
}

// mshr is one in-flight line: the requesters merged on it and the cycle
// its fill lands (math.MaxInt64 until SetFillTime names it).
type mshr struct {
	waiters int
	ready   int64
}

// Cache is a set-associative, LRU cache with optional sectoring and
// MSHR-based miss merging. It is a timing/occupancy model: no data is
// stored, only tags. Under WriteEvict a line is never both resident and
// in flight: only a fill installs a line, and the fill retires its MSHR
// entry. That is why ReadAt can serve a resident line without looking
// in the MSHR table.
type Cache struct {
	cfg     Config
	sectors []sector
	pending map[uint64]mshr // pendKey -> in-flight line (MSHR)
	clock   uint64
	stats   Stats
}

// New builds a cache from cfg. Size must be divisible by Line*Assoc*
// Sectors and the per-sector set count must be a power of two.
func New(cfg Config) *Cache {
	if cfg.Sectors <= 0 {
		cfg.Sectors = 1
	}
	if cfg.Line <= 0 || cfg.Assoc <= 0 || cfg.Size <= 0 {
		panic("cache: invalid config")
	}
	perSector := cfg.Size / cfg.Sectors
	nsets := perSector / (cfg.Line * cfg.Assoc)
	if nsets <= 0 {
		panic(fmt.Sprintf("cache: size %d too small for line %d assoc %d sectors %d",
			cfg.Size, cfg.Line, cfg.Assoc, cfg.Sectors))
	}
	c := &Cache{cfg: cfg, pending: make(map[uint64]mshr)}
	// Every set and way is carved out of one backing array each; the
	// full-slice expressions keep a set from growing into its neighbour.
	c.sectors = make([]sector, cfg.Sectors)
	sets := make([]set, cfg.Sectors*nsets)
	ways := make([]line, len(sets)*cfg.Assoc)
	for i := range sets {
		sets[i].ways = ways[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	for i := range c.sectors {
		c.sectors[i].sets = sets[i*nsets : (i+1)*nsets : (i+1)*nsets]
	}
	return c
}

// Config returns the construction configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// LineBase returns addr rounded down to its line base.
func (c *Cache) LineBase(addr uint64) uint64 {
	return addr / uint64(c.cfg.Line) * uint64(c.cfg.Line)
}

func (c *Cache) locate(addr uint64, sectorID int) (*set, uint64) {
	if sectorID < 0 || sectorID >= len(c.sectors) {
		sectorID = 0
	}
	base := addr / uint64(c.cfg.Line)
	sec := &c.sectors[sectorID]
	return &sec.sets[base%uint64(len(sec.sets))], base
}

// pendKey names a line in the MSHR table; tag is addr / Line, as
// locate returns it. The sector bits disambiguate identical lines
// across sectors.
func pendKey(tag uint64, sectorID int) uint64 {
	return tag<<2 | uint64(sectorID&3)
}

func (s *set) find(tag uint64) *line {
	for i := range s.ways {
		if s.ways[i].valid && s.ways[i].tag == tag {
			return &s.ways[i]
		}
	}
	return nil
}

func (s *set) victim() *line {
	v := &s.ways[0]
	for i := range s.ways {
		w := &s.ways[i]
		if !w.valid {
			return w
		}
		if w.lru < v.lru {
			v = w
		}
	}
	return v
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
	st, tag := c.locate(addr, sectorID)
	ln := st.find(tag)
	if ln == nil {
		key := pendKey(tag, sectorID)
		e, ok := c.pending[key]
		switch {
		case !ok:
			c.clock++
			c.stats.Reads++
			c.stats.ReadMisses++
			c.pending[key] = mshr{waiters: 1, ready: math.MaxInt64}
			return Miss, 0
		case e.ready > now:
			c.clock++
			c.stats.Reads++
			c.stats.ReadReserved++
			e.waiters++
			c.pending[key] = e
			return HitReserved, e.ready
		}
		delete(c.pending, key)
		ln = c.fill(st, tag)
	}
	c.readHit(ln)
	return Hit, 0
}

func (c *Cache) readHit(ln *line) {
	c.clock++
	c.stats.Reads++
	c.stats.ReadHits++
	ln.lru = c.clock
}

// SetFillTime records the cycle the in-flight fetch of addr's line
// lands. ReadAt and WriteAt install the line on their first access at
// or after that cycle. It is a no-op for a line not in flight.
func (c *Cache) SetFillTime(addr uint64, sectorID int, at int64) {
	key := pendKey(addr/uint64(c.cfg.Line), sectorID)
	if e, ok := c.pending[key]; ok {
		e.ready = at
		c.pending[key] = e
	}
}

// ReadFill is Read followed, on Miss, by Fill: a read-allocate whose
// fill completes within the call, as the L2 models it. It never leaves
// an MSHR entry behind.
func (c *Cache) ReadFill(addr uint64, sectorID int) Result {
	st, tag := c.locate(addr, sectorID)
	if ln := st.find(tag); ln != nil {
		c.readHit(ln)
		return Hit
	}
	if _, ok := c.pending[pendKey(tag, sectorID)]; ok {
		return c.Read(addr, sectorID) // merges as HitReserved
	}
	c.clock++
	c.stats.Reads++
	c.stats.ReadMisses++
	c.fill(st, tag)
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
	st, tag := c.locate(addr, sectorID)
	ln := st.find(tag)
	if ln == nil {
		key := pendKey(tag, sectorID)
		if e, ok := c.pending[key]; ok && e.ready <= now {
			delete(c.pending, key)
			ln = c.fill(st, tag)
		}
	}
	c.clock++
	c.stats.Writes++
	switch c.cfg.Policy {
	case WriteEvict:
		if ln != nil {
			// Invalidate: this is the early-eviction mechanism behind
			// the write-related category (Figure 4-D).
			ln.valid = false
			c.stats.Evictions++
			c.stats.WriteHits++
		} else {
			c.stats.WriteMisses++
		}
		return Miss // always forwarded to the next level
	case WriteBackAllocate:
		if ln != nil {
			ln.dirty = true
			ln.lru = c.clock
			c.stats.WriteHits++
			return Hit
		}
		c.stats.WriteMisses++
		c.insert(st, tag, true)
		return Miss // allocation fill from the next level
	default:
		panic("cache: unknown write policy")
	}
}

// Fill installs the line containing addr after its fetch returns, and
// releases any requesters merged on the MSHR entry. It returns how many
// requesters (including the original) were waiting.
func (c *Cache) Fill(addr uint64, sectorID int) int {
	st, tag := c.locate(addr, sectorID)
	key := pendKey(tag, sectorID)
	waiters := c.pending[key].waiters
	delete(c.pending, key)
	c.clock++
	c.stats.Fills++
	if st.find(tag) == nil {
		c.insert(st, tag, false)
	}
	return max(waiters, 1)
}

// fill installs a fetched line that is not resident and returns it.
func (c *Cache) fill(st *set, tag uint64) *line {
	c.clock++
	c.stats.Fills++
	return c.insert(st, tag, false)
}

// Pending reports whether a fetch for addr's line is in flight.
func (c *Cache) Pending(addr uint64, sectorID int) bool {
	_, ok := c.pending[pendKey(addr/uint64(c.cfg.Line), sectorID)]
	return ok
}

// Contains reports whether addr's line is valid in the cache (test hook).
func (c *Cache) Contains(addr uint64, sectorID int) bool {
	st, tag := c.locate(addr, sectorID)
	return st.find(tag) != nil
}

// Flush invalidates all lines, emitting writebacks for dirty ones, and
// returns the number of writeback transactions.
func (c *Cache) Flush() uint64 {
	var wb uint64
	for si := range c.sectors {
		for ssi := range c.sectors[si].sets {
			st := &c.sectors[si].sets[ssi]
			for wi := range st.ways {
				ln := &st.ways[wi]
				if ln.valid && ln.dirty {
					wb++
					c.stats.Writebacks++
				}
				ln.valid = false
				ln.dirty = false
			}
		}
	}
	return wb
}

func (c *Cache) insert(st *set, tag uint64, dirty bool) *line {
	v := st.victim()
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
		}
	}
	*v = line{tag: tag, valid: true, dirty: dirty, lru: c.clock}
	return v
}
