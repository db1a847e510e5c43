package engine

// The engine's event queue: a two-level calendar queue — a ring of
// bucketCount cycle buckets over a typed binary heap. Events within the
// bucket horizon [base, base+bucketCount) land in the bucket of their
// cycle with an O(1) append and pop back out with an O(1) cursor scan;
// only events beyond the horizon pay the heap's O(log n) sift. Nothing
// boxes: pushes and pops move flat event values, so the steady-state
// queue cost is zero allocations (pinned by
// TestEventQueueSchedulePopZeroAlloc and the alloc budget table).
//
// Two properties of the engine make the buckets correct without sorting
// or repair:
//
//  1. No scheduling into the past: a step at cycle T schedules events
//     at >= T (every model latency is >= 1 cycle). The pop cursor sits
//     at the last popped cycle, so no push lands behind it, and every
//     push lies at or past base, so the ring never aliases.
//  2. Per-bucket seq order: a bucket receives appends from horizon
//     drains (rebase pops the heap in (at, seq) order, and runs only
//     when every bucket is empty) and from direct pushes, whose seq
//     comes from a monotone counter and so exceeds every seq already
//     queued.
//
// Pops therefore read each bucket front to back and get (at, seq) order
// for free; FuzzEventQueueOrder drives randomized legal schedules against
// a sort-based model to keep the argument honest.

// event is one schedulable occurrence: a warp becoming ready to issue
// its next op at a given cycle.
type event struct {
	at   int64
	seq  uint64 // tie-break for determinism
	warp *warpState
}

// eventHeap is a typed binary min-heap of events ordered by (at, seq):
// the far tier of the calendar queue. No interface{} crosses its API:
// push and pop sift flat event values in place.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the warp pointer for the GC
	*h = q[:n]
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && q.less(r, l) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top
}

// bucketCount is the calendar span in cycles: a power of two so the
// bucket of a cycle is a mask, and wider than every model latency short
// of a DRAM round trip, so most schedules land in buckets. Correctness
// never depends on the span, only the O(1) fast path does.
const (
	bucketCount = 256
	bucketMask  = bucketCount - 1
)

// eventBucket holds the queued events of one cycle in seq order; head
// indexes the first unpopped entry. Emptying a bucket resets it to its
// full capacity, so steady state recycles the same backing arrays.
type eventBucket struct {
	ev   []event
	head int
}

// scheduler is the run's event queue plus its tie-break counter.
type scheduler struct {
	seq uint64

	// Calendar tier: bkt[c&bucketMask] holds cycle c's events for
	// c in [base, base+bucketCount); far holds everything at or past the
	// horizon. cur is the pop cursor: no queued bucket event is at a
	// cycle below it. inBkt counts bucketed events.
	bkt   []eventBucket
	far   eventHeap
	base  int64
	cur   int64
	inBkt int
}

func newScheduler() scheduler {
	return scheduler{bkt: make([]eventBucket, bucketCount)}
}

// rebase jumps the calendar to the heap's head cycle and drains every
// event within the new horizon into its bucket. It runs only when all
// buckets are empty, so each bucket receives at most one drain per lap.
func (s *scheduler) rebase() {
	s.base = s.far[0].at
	s.cur = s.base
	horizon := s.base + bucketCount
	for len(s.far) > 0 && s.far[0].at < horizon {
		e := s.far.pop()
		b := &s.bkt[e.at&bucketMask]
		b.ev = append(b.ev, e)
		s.inBkt++
	}
}

// schedule enqueues w at cycle at with the next sequence number, so
// events at one cycle pop in schedule-call order — the deterministic
// tie-break. The bucket append relies on the invariants documented at
// the top of the file.
func (s *scheduler) schedule(at int64, w *warpState) {
	s.seq++
	e := event{at: at, seq: s.seq, warp: w}
	if at < s.base+bucketCount {
		b := &s.bkt[at&bucketMask]
		b.ev = append(b.ev, e)
		s.inBkt++
		return
	}
	s.far.push(e)
}

// next pops the earliest queued event in (at, seq) order.
func (s *scheduler) next() (event, bool) {
	if s.inBkt == 0 {
		if len(s.far) == 0 {
			return event{}, false
		}
		s.rebase()
	}
	for {
		b := &s.bkt[s.cur&bucketMask]
		if b.head < len(b.ev) {
			e := b.ev[b.head]
			b.ev[b.head].warp = nil // drop for the GC until the slot recycles
			b.head++
			if b.head == len(b.ev) {
				b.ev = b.ev[:0]
				b.head = 0
			}
			s.inBkt--
			return e, true
		}
		// Every queued bucket event sits at or above cur (no push lands
		// before the last pop's cycle), so skipping an empty cycle
		// never passes one; inBkt > 0 bounds the scan to the span.
		s.cur++
	}
}

func (s *scheduler) empty() bool { return s.inBkt == 0 && len(s.far) == 0 }
