package cache

import "math"

// refCache is the struct-of-lines, Go-map implementation Cache replaced,
// kept verbatim in behaviour as the differential oracle for the flat
// tag store and the open-addressed MSHR table (ref_diff_test.go). It
// divides where Cache shifts or multiplies by a reciprocal, so it also
// checks the indexing.
type refCache struct {
	cfg     Config
	sectors []refSector
	pending map[uint64]refMSHR
	clock   uint64
	stats   Stats
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

type refSet struct{ ways []refLine }

type refSector struct{ sets []refSet }

type refMSHR struct {
	waiters int
	ready   int64
}

func newRef(cfg Config) *refCache {
	if cfg.Sectors <= 0 {
		cfg.Sectors = 1
	}
	nsets := cfg.Size / cfg.Sectors / (cfg.Line * cfg.Assoc)
	c := &refCache{cfg: cfg, pending: make(map[uint64]refMSHR)}
	c.sectors = make([]refSector, cfg.Sectors)
	for i := range c.sectors {
		c.sectors[i].sets = make([]refSet, nsets)
		for j := range c.sectors[i].sets {
			c.sectors[i].sets[j].ways = make([]refLine, cfg.Assoc)
		}
	}
	return c
}

func (c *refCache) locate(addr uint64, sectorID int) (*refSet, uint64) {
	if sectorID < 0 || sectorID >= len(c.sectors) {
		sectorID = 0
	}
	base := addr / uint64(c.cfg.Line)
	sec := &c.sectors[sectorID]
	return &sec.sets[base%uint64(len(sec.sets))], base
}

func refKey(tag uint64, sectorID int) uint64 { return tag<<2 | uint64(sectorID&3) }

func (s *refSet) find(tag uint64) *refLine {
	for i := range s.ways {
		if s.ways[i].valid && s.ways[i].tag == tag {
			return &s.ways[i]
		}
	}
	return nil
}

func (s *refSet) victim() *refLine {
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

func (c *refCache) Read(addr uint64, sectorID int) Result {
	res, _ := c.ReadAt(addr, sectorID, math.MinInt64)
	return res
}

func (c *refCache) ReadAt(addr uint64, sectorID int, now int64) (Result, int64) {
	st, tag := c.locate(addr, sectorID)
	ln := st.find(tag)
	if ln == nil {
		key := refKey(tag, sectorID)
		e, ok := c.pending[key]
		switch {
		case !ok:
			c.clock++
			c.stats.Reads++
			c.stats.ReadMisses++
			c.pending[key] = refMSHR{waiters: 1, ready: math.MaxInt64}
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

func (c *refCache) readHit(ln *refLine) {
	c.clock++
	c.stats.Reads++
	c.stats.ReadHits++
	ln.lru = c.clock
}

func (c *refCache) SetFillTime(addr uint64, sectorID int, at int64) {
	key := refKey(addr/uint64(c.cfg.Line), sectorID)
	if e, ok := c.pending[key]; ok {
		e.ready = at
		c.pending[key] = e
	}
}

func (c *refCache) ReadFill(addr uint64, sectorID int) Result {
	st, tag := c.locate(addr, sectorID)
	if ln := st.find(tag); ln != nil {
		c.readHit(ln)
		return Hit
	}
	if _, ok := c.pending[refKey(tag, sectorID)]; ok {
		return c.Read(addr, sectorID)
	}
	c.clock++
	c.stats.Reads++
	c.stats.ReadMisses++
	c.fill(st, tag)
	return Miss
}

func (c *refCache) Write(addr uint64, sectorID int) Result {
	return c.WriteAt(addr, sectorID, math.MinInt64)
}

func (c *refCache) WriteAt(addr uint64, sectorID int, now int64) Result {
	st, tag := c.locate(addr, sectorID)
	ln := st.find(tag)
	if ln == nil {
		key := refKey(tag, sectorID)
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
			ln.valid = false
			c.stats.Evictions++
			c.stats.WriteHits++
		} else {
			c.stats.WriteMisses++
		}
		return Miss
	case WriteBackAllocate:
		if ln != nil {
			ln.dirty = true
			ln.lru = c.clock
			c.stats.WriteHits++
			return Hit
		}
		c.stats.WriteMisses++
		c.insert(st, tag, true)
		return Miss
	default:
		panic("cache: unknown write policy")
	}
}

func (c *refCache) Fill(addr uint64, sectorID int) int {
	st, tag := c.locate(addr, sectorID)
	key := refKey(tag, sectorID)
	waiters := c.pending[key].waiters
	delete(c.pending, key)
	c.clock++
	c.stats.Fills++
	if st.find(tag) == nil {
		c.insert(st, tag, false)
	}
	return max(waiters, 1)
}

func (c *refCache) fill(st *refSet, tag uint64) *refLine {
	c.clock++
	c.stats.Fills++
	return c.insert(st, tag, false)
}

func (c *refCache) Pending(addr uint64, sectorID int) bool {
	_, ok := c.pending[refKey(addr/uint64(c.cfg.Line), sectorID)]
	return ok
}

func (c *refCache) Contains(addr uint64, sectorID int) bool {
	st, tag := c.locate(addr, sectorID)
	return st.find(tag) != nil
}

func (c *refCache) Flush() uint64 {
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

func (c *refCache) insert(st *refSet, tag uint64, dirty bool) *refLine {
	v := st.victim()
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
		}
	}
	*v = refLine{tag: tag, valid: true, dirty: dirty, lru: c.clock}
	return v
}
