// Package mem models everything behind the SMs' L1 caches: the NoC that
// connects SMs to the shared L2, the banked write-back L2 cache, and
// off-chip DRAM. Its central observable is the L2 (read) transaction
// count — the metric the paper uses as its primary cache-performance
// indicator (Figure 13, Section 5.2-(5)).
//
// When the architecture is a chiplet descriptor (arch.Arch.Chiplets > 1,
// the multi-die regime of arXiv 2606.11716) the monolithic L2 becomes
// per-die slices of L2Size/Chiplets bytes, each caching the requests of
// its own die's SMs — so a line shared by CTAs on one die is fetched
// once, while sharers spread across D dies duplicate it D times and
// shrink effective capacity. HBM is placed page-interleaved across the
// dies (homeDie); a slice miss whose home stack is another die crosses
// the interposer — it occupies the source die's egress link for
// InterposerInterval cycles and completes RemoteHopLatency later
// (DESIGN.md §13). The monolithic path (Chiplets <= 1) takes none of
// the chiplet branches and is byte-identical to the pre-chiplet engine;
// internal/engine's equivalence matrix pins that.
package mem

import (
	"fmt"
	"math/bits"

	"ctacluster/internal/arch"
	"ctacluster/internal/cache"
	"ctacluster/internal/fastmod"
)

// Stats aggregates memory-system counters. The two chiplet counters
// stay zero on monolithic descriptors (Chiplets <= 1): no code path
// increments them there, which is part of the byte-identity contract.
type Stats struct {
	ReadTransactions   uint64 // 32B read transactions arriving at L2
	WriteTransactions  uint64 // 32B write transactions arriving at L2
	AtomicTransactions uint64
	DRAMReads          uint64 // L2 read misses serviced by DRAM
	DRAMWrites         uint64 // writebacks reaching DRAM

	// RemoteL2Transactions counts L2-slice misses whose home HBM stack
	// is on a different die than the issuing SM — each one crossed the
	// interposer. Always <= DRAMReads; zero on monolithic descriptors.
	RemoteL2Transactions uint64
	// InterposerBytes is the die-to-die traffic volume: L2Line bytes
	// per remote fill. Zero on monolithic descriptors.
	InterposerBytes uint64
}

// Add accumulates o into s field by field.
func (s *Stats) Add(o Stats) {
	s.ReadTransactions += o.ReadTransactions
	s.WriteTransactions += o.WriteTransactions
	s.AtomicTransactions += o.AtomicTransactions
	s.DRAMReads += o.DRAMReads
	s.DRAMWrites += o.DRAMWrites
	s.RemoteL2Transactions += o.RemoteL2Transactions
	s.InterposerBytes += o.InterposerBytes
}

// Sub returns the counter deltas s - o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		ReadTransactions:     s.ReadTransactions - o.ReadTransactions,
		WriteTransactions:    s.WriteTransactions - o.WriteTransactions,
		AtomicTransactions:   s.AtomicTransactions - o.AtomicTransactions,
		DRAMReads:            s.DRAMReads - o.DRAMReads,
		DRAMWrites:           s.DRAMWrites - o.DRAMWrites,
		RemoteL2Transactions: s.RemoteL2Transactions - o.RemoteL2Transactions,
		InterposerBytes:      s.InterposerBytes - o.InterposerBytes,
	}
}

// TxnKind classifies one 32B transaction arriving at the L2.
type TxnKind uint8

const (
	TxnRead TxnKind = iota
	TxnWrite
	TxnAtomic
)

// String returns the transaction-kind name.
func (k TxnKind) String() string {
	switch k {
	case TxnRead:
		return "read"
	case TxnWrite:
		return "write"
	case TxnAtomic:
		return "atomic"
	default:
		return fmt.Sprintf("TxnKind(%d)", int(k))
	}
}

// TxnObserver sees every 32B transaction at the moment its L2 bank
// services it: the service cycle, the injecting SM, the address, the
// kind, whether the L2 serviced it without going to DRAM, and whether
// its fill crossed the interposer to a remote die's HBM stack (always
// false on monolithic descriptors). It exists so the profiling layer
// can trace L2 traffic without this package depending on it; a nil
// observer costs one branch per transaction.
type TxnObserver func(at int64, smID int, addr uint64, kind TxnKind, l2Hit, remote bool)

// System is the shared memory hierarchy below L1.
type System struct {
	ar       *arch.Arch
	l2       *cache.Cache // monolithic L2; nil when dies > 1
	bankFree []int64      // next cycle each L2 bank can start a transaction
	dramFree []int64      // next cycle each DRAM channel can start a transfer
	ports    []port       // per-SM NoC injection ports
	stats    Stats
	obs      TxnObserver // nil unless a profiler is attached

	// Per-access indexing, precomputed so no transaction divides: the
	// L2 line shift, and the bank and channel counts a line index is
	// reduced by (per die on a chiplet descriptor).
	lineShift uint
	bankMod   fastmod.Divisor
	chanMod   fastmod.Divisor

	// Chiplet state (arXiv 2606.11716 regime); unused when dies <= 1.
	dies        int             // ar.Chiplets, cached
	dieMod      fastmod.Divisor // dies
	smDie       []int           // ar.DieOf of every SM
	banksPerDie int             // bankFree is die-major: dies*banksPerDie entries
	chansPerDie int             // dramFree is die-major: dies*chansPerDie entries
	slices      []*cache.Cache  // per-die L2 slices caching their own SMs' requests
	linkFree    []int64         // next cycle each die's interposer egress link is free
}

// port tracks how many transactions an SM has injected in a cycle so the
// NoC bandwidth limit (transactions/cycle/SM) can be enforced.
type port struct {
	cycle int64
	used  int
}

// New builds the memory system for an architecture. A chiplet
// descriptor (Chiplets > 1) gets die-local L2 slices with die-major
// bank/channel pools and per-die interposer links; anything else gets
// the original monolithic hierarchy, allocation for allocation.
func New(ar *arch.Arch) *System {
	channels := ar.DRAMChannels
	if channels <= 0 {
		channels = 8
	}
	s := &System{ar: ar, ports: make([]port, ar.SMs)}
	if ar.Chiplets > 1 {
		s.dies = ar.Chiplets
		s.banksPerDie = ar.L2Banks / s.dies
		if s.banksPerDie < 1 {
			s.banksPerDie = 1
		}
		s.chansPerDie = channels / s.dies
		if s.chansPerDie < 1 {
			s.chansPerDie = 1
		}
		s.slices = make([]*cache.Cache, s.dies)
		for d := range s.slices {
			s.slices[d] = cache.New(cache.Config{
				Size:   ar.L2Size / s.dies,
				Line:   ar.L2Line,
				Assoc:  ar.L2Assoc,
				Policy: cache.WriteBackAllocate,
			})
		}
		s.bankFree = make([]int64, s.dies*s.banksPerDie)
		s.dramFree = make([]int64, s.dies*s.chansPerDie)
		s.linkFree = make([]int64, s.dies)
		s.dieMod = fastmod.New(uint64(s.dies))
		s.smDie = make([]int, ar.SMs)
		for sm := range s.smDie {
			s.smDie[sm] = ar.DieOf(sm)
		}
		s.index(s.banksPerDie, s.chansPerDie)
		return s
	}
	s.l2 = cache.New(cache.Config{
		Size:   ar.L2Size,
		Line:   ar.L2Line,
		Assoc:  ar.L2Assoc,
		Policy: cache.WriteBackAllocate,
	})
	s.bankFree = make([]int64, ar.L2Banks)
	s.dramFree = make([]int64, channels)
	s.index(ar.L2Banks, channels)
	return s
}

// index precomputes the per-access indexing. The L2 caches were built
// first, and cache.New rejects a line that is not a power of two.
func (s *System) index(banks, chans int) {
	s.lineShift = uint(bits.TrailingZeros(uint(s.ar.L2Line)))
	s.bankMod = fastmod.New(uint64(banks))
	s.chanMod = fastmod.New(uint64(chans))
}

// SetObserver attaches fn to every subsequent L2 transaction (nil
// detaches). The engine wires this to the run's profiler.
func (s *System) SetObserver(fn TxnObserver) { s.obs = fn }

// Stats returns a snapshot of the counters.
func (s *System) Stats() Stats { return s.stats }

// L2Stats returns the L2 cache counters (summed over the die-local
// slices on a chiplet descriptor).
func (s *System) L2Stats() cache.Stats {
	if s.dies > 1 {
		var st cache.Stats
		for _, sl := range s.slices {
			st.Add(sl.Stats())
		}
		return st
	}
	return s.l2.Stats()
}

// ResetStats zeroes all counters without touching cache contents.
func (s *System) ResetStats() {
	s.stats = Stats{}
	if s.dies > 1 {
		for _, sl := range s.slices {
			sl.ResetStats()
		}
		return
	}
	s.l2.ResetStats()
}

// DieHomePage is the HBM placement granularity on chiplet descriptors:
// physical memory is interleaved across the dies' HBM stacks in 4KB
// pages (homeDie), the coarsest common interleave of multi-chiplet
// module designs. Page — not line — granularity means a CTA tile's
// contiguous rows mostly share a home stack, which is what makes
// placement matter at all (DESIGN.md §13).
const DieHomePage = 4096

// homeDie is the HBM placement rule (DESIGN.md §13): 4KB pages are
// interleaved across the dies' stacks round-robin, so a slice miss
// fills from die homeDie's stack — locally, or over the interposer.
func (s *System) homeDie(addr uint64) int {
	return int(s.dieMod.Mod(addr / DieHomePage))
}

// dieOf is ar.DieOf(smID) from a table built in New.
func (s *System) dieOf(smID int) int {
	if uint(smID) < uint(len(s.smDie)) {
		return s.smDie[smID]
	}
	return s.ar.DieOf(smID) // not an SM of this GPU; never on a real run
}

// bankFor maps a transaction to its L2 bank: the monolithic
// line-interleave, or — on a chiplet descriptor — a line-interleaved
// bank within the *requesting* SM's die group, because each die's
// slice caches its own SMs' requests.
func (s *System) bankFor(smID int, addr uint64) int {
	b := int(s.bankMod.Mod(addr >> s.lineShift))
	if s.dies > 1 {
		return s.dieOf(smID)*s.banksPerDie + b
	}
	return b
}

// chanFor maps a transaction to its DRAM channel: the monolithic
// line-interleave, or on a chiplet descriptor a line-interleaved
// channel within the home die's group.
func (s *System) chanFor(addr uint64) int {
	ch := int(s.chanMod.Mod(addr >> s.lineShift))
	if s.dies > 1 {
		ch += s.homeDie(addr) * s.chansPerDie
	}
	return ch
}

// dramAt reserves a DRAM channel slot for the 32B transfer of addr that
// became ready at svc, returning when the transfer starts. Channel
// occupancy is what throttles over-subscribed streaming kernels. On a
// chiplet descriptor the channel comes from the home die's group: a
// slice miss fills from the HBM stack the page lives on, wherever the
// requester sits.
func (s *System) dramAt(svc int64, addr uint64) int64 {
	ch := s.chanFor(addr)
	start := svc
	if s.dramFree[ch] > start {
		start = s.dramFree[ch]
	}
	interval := int64(s.ar.DRAMInterval)
	if interval < 1 {
		interval = 1
	}
	s.dramFree[ch] = start + interval
	return start
}

// injectAt advances smID's NoC port reservation and returns the cycle
// the transaction enters the interconnect.
func (s *System) injectAt(now int64, smID int) int64 {
	// NoC injection port: NoCBandwidth transactions per cycle per SM.
	inject := now
	bw := s.ar.NoCBandwidth
	if bw <= 0 {
		bw = 1
	}
	if smID >= 0 && smID < len(s.ports) {
		p := &s.ports[smID]
		if p.cycle < inject {
			p.cycle, p.used = inject, 0
		}
		for p.used >= bw {
			p.cycle++
			p.used = 0
		}
		inject = p.cycle
		p.used++
	}
	return inject
}

// serviceAt computes when a transaction injected by smID at time now is
// serviced by its L2 bank, advancing port and bank reservations.
func (s *System) serviceAt(now int64, smID int, addr uint64) int64 {
	inject := s.injectAt(now, smID)
	b := s.bankFor(smID, addr)
	svc := inject
	if s.bankFree[b] > svc {
		svc = s.bankFree[b]
	}
	s.bankFree[b] = svc + 1 // one transaction per bank per cycle
	return svc
}

// route resolves one transaction against the hierarchy topology: when
// it is serviced (svc) and which L2 structure services it — the shared
// monolithic L2, or on a chiplet descriptor the requesting SM's
// die-local slice. On monolithic descriptors this is exactly the
// pre-chiplet serviceAt + s.l2 path.
func (s *System) route(now int64, smID int, addr uint64) (svc int64, c *cache.Cache) {
	svc = s.serviceAt(now, smID, addr)
	if s.dies <= 1 {
		return svc, s.l2
	}
	return svc, s.slices[s.dieOf(smID)]
}

// fillFrom resolves where a slice miss at svc fills from: the die's own
// HBM stack (start == svc, remote == false), or a remote die's stack
// over the interposer — which counts the remote transaction, adds the
// L2Line to the interposer volume, and occupies the requesting die's
// egress link for InterposerInterval cycles (the bandwidth half of the
// penalty; the RemoteHopLatency half is added by the caller to the
// completion). Monolithic descriptors always fill locally.
func (s *System) fillFrom(svc int64, smID int, addr uint64) (start int64, remote bool) {
	if s.dies <= 1 {
		return svc, false
	}
	src := s.dieOf(smID)
	if s.homeDie(addr) == src {
		return svc, false
	}
	s.stats.RemoteL2Transactions++
	s.stats.InterposerBytes += uint64(s.ar.L2Line)
	start = svc
	if s.linkFree[src] > start {
		start = s.linkFree[src]
	}
	interval := int64(s.ar.InterposerInterval)
	if interval < 1 {
		interval = 1
	}
	s.linkFree[src] = start + interval
	return start, true
}

// Read requests nbytes starting at base (an L1 miss fill or a bypassed
// load) on behalf of smID at time now. The request is split into 32B L2
// transactions; the returned time is when the last of them has returned
// to the SM, measured from request issue (i.e. it already includes the
// full load-to-use latency).
func (s *System) Read(now int64, smID int, base uint64, nbytes int) int64 {
	done := now
	line := uint64(s.ar.L2Line)
	end := base + uint64(nbytes)
	for addr := base &^ (line - 1); addr < end; addr += line {
		s.stats.ReadTransactions++
		svc, c := s.route(now, smID, addr)
		var t int64
		hit, remote := true, false
		if res := c.ReadFill(addr, 0); res == cache.Miss {
			hit = false
			s.stats.DRAMReads++
			var start int64
			start, remote = s.fillFrom(svc, smID, addr)
			t = s.dramAt(start, addr) + int64(s.ar.DRAMLatency)
			if remote {
				t += int64(s.ar.RemoteHopLatency)
			}
		} else {
			t = svc + int64(s.ar.L2Latency)
		}
		if s.obs != nil {
			s.obs(svc, smID, addr, TxnRead, hit, remote)
		}
		if t > done {
			done = t
		}
	}
	return done
}

// Write forwards a store of nbytes at base (L1 is write-evict, so every
// store reaches L2). Stores are acknowledged at the L2, so the returned
// completion is the L2 service time; the SM does not wait for DRAM.
func (s *System) Write(now int64, smID int, base uint64, nbytes int) int64 {
	done := now
	line := uint64(s.ar.L2Line)
	end := base + uint64(nbytes)
	for addr := base &^ (line - 1); addr < end; addr += line {
		s.stats.WriteTransactions++
		svc, c := s.route(now, smID, addr)
		hit, remote := true, false
		if res := c.Write(addr, 0); res == cache.Miss {
			// Write-allocate fill from DRAM; the store itself completes
			// once the L2 slice accepts it — the ack is die-local either
			// way — but the fill occupies a channel, and the interposer
			// when the page is homed remotely.
			hit = false
			s.stats.DRAMReads++
			c.Fill(addr, 0)
			var start int64
			start, remote = s.fillFrom(svc, smID, addr)
			s.dramAt(start, addr)
			_ = c.Write(addr, 0) // dirty the allocated line
		}
		if s.obs != nil {
			s.obs(svc, smID, addr, TxnWrite, hit, remote)
		}
		if t := svc + int64(s.ar.L2Latency)/2; t > done {
			done = t
		}
	}
	return done
}

// Atomic performs a global read-modify-write on one address. Atomics
// serialise at their L2 bank and the issuing warp observes the full L2
// round trip.
func (s *System) Atomic(now int64, smID int, addr uint64) int64 {
	s.stats.AtomicTransactions++
	svc, c := s.route(now, smID, addr)
	var done int64
	hit, remote := true, false
	if res := c.ReadFill(addr, 0); res == cache.Miss {
		hit = false
		s.stats.DRAMReads++
		var start int64
		start, remote = s.fillFrom(svc, smID, addr)
		done = s.dramAt(start, addr) + int64(s.ar.DRAMLatency)
		if remote {
			done += int64(s.ar.RemoteHopLatency)
		}
	} else {
		done = svc + int64(s.ar.L2Latency)
	}
	if s.obs != nil {
		s.obs(svc, smID, addr, TxnAtomic, hit, remote)
	}
	_ = c.Write(addr, 0)
	// Hold the bank a few extra cycles for the RMW.
	b := s.bankFor(smID, addr)
	if s.bankFree[b] < svc+4 {
		s.bankFree[b] = svc + 4
	}
	return done
}

// Drain flushes the L2 (every die-local slice on a chiplet descriptor),
// accounting dirty writebacks as DRAM writes.
func (s *System) Drain() {
	if s.dies > 1 {
		for _, sl := range s.slices {
			s.stats.DRAMWrites += sl.Flush()
		}
		return
	}
	s.stats.DRAMWrites += s.l2.Flush()
}
