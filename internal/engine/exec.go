package engine

import (
	"ctacluster/internal/cache"
	"ctacluster/internal/kernel"
	"ctacluster/internal/prof"
)

// mlpWindow is the number of loads a warp can keep in flight before it
// must wait (the LSU queue depth / scoreboard size).
const mlpWindow = 6

// emitStall records a warp blocking until the given cycle. Callers
// guard with s.prof != nil so the disabled path stays branch-only.
func (l *lane) emitStall(w *warpState, reason prof.StallReason, until int64) {
	dur := until - l.now
	if dur < 0 {
		dur = 0
	}
	l.emit(prof.Event{
		Kind: prof.EvWarpStall, Tag: uint8(reason),
		SM: int32(w.cta.sm.id), CTA: int32(w.cta.rec.CTA), Warp: int32(w.id),
		Slot: int32(w.cta.rec.Slot), Cycle: l.now, Dur: dur,
	})
}

// emitMemOp records one completed warp memory instruction.
func (l *lane) emitMemOp(w *warpState, class prof.MemClass, addr uint64, issue, done int64, write bool) {
	l.emit(prof.Event{
		Kind: prof.EvMemOp, Tag: uint8(class), Write: write,
		SM: int32(w.cta.sm.id), CTA: int32(w.cta.rec.CTA), Warp: int32(w.id),
		Slot: int32(w.cta.rec.Slot), Cycle: issue, Dur: done - issue, Addr: addr,
	})
}

// step executes the next op of warp w at the lane's current time.
func (l *lane) step(w *warpState) {
	s := l.s
	if w.done {
		return
	}
	cta := w.cta
	sm := cta.sm
	if w.pc >= len(w.ops) && !(cta.segs != nil && l.nextSeg(w)) {
		// Drain outstanding loads before the warp can finish.
		if w.pendDone > l.now {
			d := w.pendDone
			w.pendDone = 0
			w.outstanding = 0
			if s.prof != nil {
				l.emitStall(w, prof.StallTraceEnd, d)
			}
			l.schedule(d, w)
			return
		}
		l.finishWarp(w)
		return
	}
	op := &w.ops[w.pc]

	// Barriers, stores and atomics consume loaded values: drain the
	// load window first.
	if drains(op) && w.pendDone > l.now {
		d := w.pendDone
		w.pendDone = 0
		w.outstanding = 0
		if s.prof != nil {
			l.emitStall(w, prof.StallDrain, d)
		}
		l.schedule(d, w)
		return
	}
	w.pc++

	issue := l.now
	if sm.issueFree > issue {
		issue = sm.issueFree
	}
	sm.issueFree = issue + issueInterval

	switch op.Kind {
	case kernel.OpCompute:
		c := int64(op.Cycles)
		if c < 1 {
			c = 1
		}
		l.schedule(issue+c, w)

	case kernel.OpBarrier:
		cta.barWait++
		if cta.barWait >= cta.live {
			release := issue + barrierLatency
			cta.barWait = 0
			for _, peer := range cta.barBlocked {
				l.schedule(release, peer)
			}
			cta.barBlocked = cta.barBlocked[:0]
			l.schedule(release, w)
		} else {
			cta.barBlocked = append(cta.barBlocked, w)
		}

	case kernel.OpMem:
		done := l.memAccess(sm, cta, &op.Mem, issue)
		if s.prof != nil {
			class := prof.MemLoad
			switch {
			case op.Mem.Prefetch:
				class = prof.MemPrefetch
			case op.Mem.Write:
				class = prof.MemStore
			}
			l.emitMemOp(w, class, op.Mem.Base, issue, done, op.Mem.Write)
		}
		if op.Mem.Prefetch || op.Mem.Write {
			// Prefetches and stores are fire-and-forget.
			l.schedule(issue+1, w)
			break
		}
		cta.rec.MemLatency += done - issue
		cta.rec.MemOps++
		w.outstanding++
		if done > w.pendDone {
			w.pendDone = done
		}
		if w.outstanding >= mlpWindow {
			// Window full: wait for the whole batch.
			d := w.pendDone
			w.pendDone = 0
			w.outstanding = 0
			if s.prof != nil {
				l.emitStall(w, prof.StallWindowFull, d)
			}
			l.schedule(d, w)
		} else {
			l.schedule(issue+1, w)
		}

	case kernel.OpAtomic:
		l.global()
		done := s.memsys.Atomic(issue, sm.id, op.Mem.Base)
		if s.prof != nil {
			l.emitMemOp(w, prof.MemAtomic, op.Mem.Base, issue, done, true)
		}
		l.schedule(done, w)
	}
}

// nextSeg moves w onto the next segment of its CTA's trace that holds
// ops for it and reports whether there is one. It runs inline in the
// step that found w's segment exhausted, so crossing a segment boundary
// takes no simulated time and w executes exactly the op sequence of the
// flattened trace. The first warp to reach a segment pulls it from the
// stream; the pull may generate a task's trace (kernel.Kernel.Work),
// so a sharded lane takes the global token first and those calls keep
// serial event order. A segment every warp has moved past is released.
func (l *lane) nextSeg(w *warpState) bool {
	cta := w.cta
	for {
		i := w.seg - cta.segBase
		if i+1 == len(cta.segs) {
			if cta.next == nil {
				return false
			}
			l.global()
			seg, ok := cta.next()
			if !ok {
				cta.next = nil
				return false
			}
			cta.segs = append(cta.segs, seg)
			cta.segLeft = append(cta.segLeft, len(cta.warps))
		}
		if cta.segLeft[i]--; cta.segLeft[i] == 0 {
			// Warps cross segments in order, so the segment every warp
			// has passed is the oldest one held: i == 0.
			cta.segs[0] = nil
			cta.segs, cta.segLeft = cta.segs[1:], cta.segLeft[1:]
			cta.segBase++
		}
		w.seg++
		w.pc = 0
		w.ops = nil
		if seg := cta.segs[w.seg-cta.segBase]; w.id < len(seg) {
			w.ops = seg[w.id]
		}
		if len(w.ops) > 0 {
			return true
		}
	}
}

// drains reports whether an op consumes in-flight load results.
func drains(op *kernel.Op) bool {
	switch op.Kind {
	case kernel.OpBarrier, kernel.OpAtomic:
		return true
	case kernel.OpMem:
		return op.Mem.Write
	default:
		return false
	}
}

func (l *lane) finishWarp(w *warpState) {
	w.done = true
	w.ops = nil // the slab retains w; don't let it pin the trace too
	cta := w.cta
	cta.live--
	if cta.live == 0 {
		l.retire(cta, l.now)
		return
	}
	// A finishing warp may satisfy a barrier its peers are waiting at.
	if cta.barWait > 0 && cta.barWait >= cta.live {
		release := l.now + barrierLatency
		cta.barWait = 0
		for _, peer := range cta.barBlocked {
			l.schedule(release, peer)
		}
		cta.barBlocked = cta.barBlocked[:0]
	}
}

// emitL1 records one L1-line access outcome.
func (l *lane) emitL1(sm *smState, cta *ctaState, addr uint64, res cache.Result, at int64, write bool) {
	l.emit(prof.Event{
		Kind: prof.EvCacheAccess, Tag: uint8(res), Write: write,
		SM: int32(sm.id), CTA: int32(cta.rec.CTA), Warp: -1,
		Slot: int32(cta.rec.Slot), Cycle: at, Addr: addr,
	})
}

// memAccess routes one warp memory op through the hierarchy and returns
// the absolute completion time. The per-SM L1, with its MSHR table of
// in-flight fills, is lane-private; any excursion into the shared memory
// system first takes the global token so L2/DRAM state advances in
// serial event order.
func (l *lane) memAccess(sm *smState, cta *ctaState, m *kernel.MemOp, issue int64) int64 {
	s := l.s
	ar := s.ar
	if m.Write {
		// Write-evict: invalidate any cached copy per L1 line, then
		// forward the coalesced 32B segments to L2. WriteAt lands a
		// completed fill first so the invalidation sees it.
		if s.cfg.L1Enabled && !m.Bypass {
			sector := s.sectorFor(cta)
			l.txBuf = m.AppendTransactions(l.txBuf[:0], ar.L1Line)
			for _, a := range l.txBuf {
				res := sm.l1.WriteAt(a, sector, issue)
				if s.prof != nil {
					l.emitL1(sm, cta, a, res, issue, true)
				}
			}
		}
		done := issue + storeAckLatency
		l.global()
		l.txBuf = m.AppendTransactions(l.txBuf[:0], ar.L2Line)
		for _, a := range l.txBuf {
			if t := s.memsys.Write(issue, sm.id, a, ar.L2Line); t > done {
				_ = t // stores are fire-and-forget; bank pressure still applied
			}
		}
		return done
	}

	// Read path.
	if !s.cfg.L1Enabled || m.Bypass {
		done := issue
		l.global()
		l.txBuf = m.AppendTransactions(l.txBuf[:0], ar.L2Line)
		for _, a := range l.txBuf {
			res := sm.l1.BypassRead()
			if s.prof != nil {
				l.emitL1(sm, cta, a, res, issue, false)
			}
			if t := s.memsys.Read(issue, sm.id, a, ar.L2Line); t > done {
				done = t
			}
		}
		if m.Prefetch {
			return issue + 1
		}
		return done
	}

	sector := s.sectorFor(cta)
	done := issue
	l.txBuf = m.AppendTransactions(l.txBuf[:0], ar.L1Line)
	for _, a := range l.txBuf {
		var t int64
		res, ready := sm.l1.ReadAt(a, sector, issue)
		if s.prof != nil {
			l.emitL1(sm, cta, a, res, issue, false)
		}
		switch res {
		case cache.Hit:
			t = issue + int64(ar.L1Latency)
		case cache.HitReserved:
			// Hit-reserved: the data is on the fly; the warp waits for
			// the outstanding fill (Section 3.1-(1)).
			t = ready
			if lo := issue + int64(ar.L1Latency); lo > t {
				t = lo
			}
		case cache.Miss:
			base, nbytes := a, ar.L1Line
			if ar.L1Sectored {
				// The unified cache fetches the two 32B sectors of the
				// 64B pair, producing two L2 transactions per miss.
				base = a &^ 63
				nbytes = 2 * ar.L2Line
			}
			l.global()
			t = s.memsys.Read(issue, sm.id, base, nbytes)
			sm.l1.SetFillTime(a, sector, t)
		}
		if t > done {
			done = t
		}
	}
	return done
}

// sectorFor maps a CTA to its private L1/Tex sector on Maxwell/Pascal
// (the paper speculates sectors are private to particular CTA slots
// under a fixed mapping); unsectored architectures always use sector 0.
func (s *sim) sectorFor(cta *ctaState) int {
	if !s.ar.L1Sectored {
		return 0
	}
	return cta.rec.Slot & 1
}
