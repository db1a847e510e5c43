// Package kernel defines the kernel abstraction the simulator executes
// and the clustering transforms rewrite: grids of CTAs whose warps run
// sequences of compute, memory and barrier operations. It is the
// software half of the paper's execution model (Section 2.1's
// grid → CTA → warp hierarchy) and the surface the Section 4.2
// clustering transforms (internal/core) rewrite.
//
// A CUDA kernel body is represented by its per-warp operation trace — the
// stream of instructions that reach the SM pipelines. This captures
// exactly the information the paper's techniques manipulate (which CTA
// touches which global addresses, in which order, at what cost) without
// needing a CUDA toolchain.
package kernel

import (
	"fmt"
	"math/bits"
	"slices"

	"ctacluster/internal/arch"
)

// Dim3 is a CUDA-style three-dimensional extent or coordinate.
type Dim3 struct {
	X, Y, Z int
}

// Dim1 builds a one-dimensional Dim3.
func Dim1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

// Dim2 builds a two-dimensional Dim3.
func Dim2(x, y int) Dim3 { return Dim3{X: x, Y: y, Z: 1} }

// Count returns the number of elements in the extent.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x == 0 {
		x = 1
	}
	if y == 0 {
		y = 1
	}
	if z == 0 {
		z = 1
	}
	return x * y * z
}

// String renders the extent CUDA-style.
func (d Dim3) String() string { return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z) }

// OpKind tags the operation type of a warp-trace element.
type OpKind uint8

const (
	// OpCompute models arithmetic/shared-memory work occupying the warp
	// for Cycles cycles.
	OpCompute OpKind = iota
	// OpMem is a global-memory access described by the Mem field.
	OpMem
	// OpBarrier is a CTA-wide __syncthreads().
	OpBarrier
	// OpAtomic is a global atomic (serialised at L2, bypasses L1).
	OpAtomic
)

// String returns the kind name.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpMem:
		return "mem"
	case OpBarrier:
		return "barrier"
	case OpAtomic:
		return "atomic"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// MemOp describes one warp-level global-memory instruction. Regular
// accesses use Base/Stride/Lanes; irregular gathers/scatters list the
// per-lane addresses explicitly in Addrs.
type MemOp struct {
	Base   uint64   // address accessed by lane 0
	Stride int64    // bytes between consecutive active lanes
	Lanes  int      // number of active lanes (1..32)
	Size   int      // bytes accessed per lane (typically 4 or 8)
	Addrs  []uint64 // optional explicit per-lane addresses (irregular)

	Write    bool // store rather than load
	Bypass   bool // skip L1 (ld.global.cg — cache bypassing, §4.3-II)
	Prefetch bool // non-blocking prefetch (prefetch.global.L1 / __ldg, §4.3-III)

	// Streaming is a workload-supplied hint that the access has no reuse
	// (the accesses a developer would rewrite with ld.global.cg). The
	// bypassing optimization turns hinted ops into Bypass ops.
	Streaming bool
}

// Op is one element of a warp trace.
type Op struct {
	Kind   OpKind
	Cycles int // OpCompute: busy cycles
	Mem    MemOp
}

// Compute returns a compute op occupying the warp for n cycles.
func Compute(n int) Op { return Op{Kind: OpCompute, Cycles: n} }

// Barrier returns a CTA-wide barrier op.
func Barrier() Op { return Op{Kind: OpBarrier} }

// Load returns a coalescable read: lanes consecutive lanes starting at
// base with the given stride and per-lane size.
func Load(base uint64, stride int64, lanes, size int) Op {
	return Op{Kind: OpMem, Mem: MemOp{Base: base, Stride: stride, Lanes: lanes, Size: size}}
}

// Store is the write counterpart of Load.
func Store(base uint64, stride int64, lanes, size int) Op {
	return Op{Kind: OpMem, Mem: MemOp{Base: base, Stride: stride, Lanes: lanes, Size: size, Write: true}}
}

// Gather returns an irregular read with explicit per-lane addresses.
func Gather(size int, addrs ...uint64) Op {
	return Op{Kind: OpMem, Mem: MemOp{Lanes: len(addrs), Size: size, Addrs: addrs}}
}

// Scatter returns an irregular write with explicit per-lane addresses.
func Scatter(size int, addrs ...uint64) Op {
	return Op{Kind: OpMem, Mem: MemOp{Lanes: len(addrs), Size: size, Addrs: addrs, Write: true}}
}

// AtomicAdd returns a global atomic read-modify-write on one address.
func AtomicAdd(addr uint64, size int) Op {
	return Op{Kind: OpAtomic, Mem: MemOp{Base: addr, Lanes: 1, Size: size, Write: true, Bypass: true}}
}

// Bypassed marks the op's access as L1-bypassing and returns it.
func (o Op) Bypassed() Op { o.Mem.Bypass = true; return o }

// StreamingHint marks the op as reuse-free and returns it.
func (o Op) StreamingHint() Op { o.Mem.Streaming = true; return o }

// Prefetched marks the op as a non-blocking prefetch and returns it.
func (o Op) Prefetched() Op { o.Mem.Prefetch = true; return o }

// LaneAddrs returns the effective address of every active lane.
func (m MemOp) LaneAddrs() []uint64 {
	if m.Addrs != nil {
		return m.Addrs
	}
	lanes := m.Lanes
	if lanes <= 0 {
		lanes = 1
	}
	out := make([]uint64, lanes)
	for i := range out {
		out[i] = m.Base + uint64(int64(i)*m.Stride)
	}
	return out
}

// Transactions coalesces the access into the set of distinct
// segment-aligned transactions of segBytes bytes, the job the SM's
// load-store unit coalescer performs before the request reaches L1. The
// result is sorted and deduplicated.
func (m MemOp) Transactions(segBytes int) []uint64 {
	return m.AppendTransactions(nil, segBytes)
}

// AppendTransactions is Transactions for hot paths: it appends the
// sorted, deduplicated segment bases to dst and returns the extended
// slice, allocating only when dst lacks capacity. A caller reusing one
// scratch buffer per lane (the engine does) coalesces with zero
// steady-state allocations. The output bytes are identical to
// Transactions — the simulator's determinism contract rides on that.
//
// A regular access (Addrs == nil) whose lane addresses cannot wrap is
// coalesced without sorting: its lane addresses are monotone in the
// lane index, so the segments come out in order (DESIGN.md §11).
// Gathers and wrapping accesses take the sort-and-compact path.
func (m *MemOp) AppendTransactions(dst []uint64, segBytes int) []uint64 {
	if segBytes <= 0 {
		panic("kernel: non-positive segment size")
	}
	size := uint64(4)
	if m.Size > 0 {
		size = uint64(m.Size)
	}
	seg := uint64(segBytes)
	if m.Addrs == nil {
		if out, ok := m.appendRegular(dst, seg, size); ok {
			return out
		}
	}
	start := len(dst)
	if m.Addrs != nil {
		for _, a := range m.Addrs {
			dst = appendSegs(dst, a, seg, size)
		}
	} else {
		lanes := m.Lanes
		if lanes <= 0 {
			lanes = 1
		}
		for i := 0; i < lanes; i++ {
			dst = appendSegs(dst, m.Base+uint64(int64(i)*m.Stride), seg, size)
		}
	}
	// Sort and compact in place.
	sub := dst[start:]
	slices.Sort(sub)
	j := 0
	for i := range sub {
		if i == 0 || sub[i] != sub[j-1] {
			sub[j] = sub[i]
			j++
		}
	}
	return dst[:start+j]
}

// appendSegs appends the bases of the segments covering [a, a+size).
// An access whose last byte wraps past 2^64 covers no segment.
func appendSegs(dst []uint64, a, seg, size uint64) []uint64 {
	last := (a + size - 1) / seg
	for s := a / seg; s <= last; s++ {
		dst = append(dst, s*seg)
	}
	return dst
}

// appendRegular is the sort-free coalescer for a regular access. It
// reports false, appending nothing, when some lane's address or last
// byte would wrap past 2^64; the caller then sorts.
func (m *MemOp) appendRegular(dst []uint64, seg, size uint64) ([]uint64, bool) {
	lanes := uint64(1)
	if m.Lanes > 1 {
		lanes = uint64(m.Lanes)
	}
	// d is the distance between adjacent lanes; lo and hi the lowest
	// and highest lane address.
	d := uint64(m.Stride)
	if m.Stride < 0 {
		d = -d
	}
	over, span := bits.Mul64(lanes-1, d)
	if over != 0 {
		return dst, false
	}
	lo, hi := m.Base, m.Base+span
	if m.Stride < 0 {
		if span > m.Base {
			return dst, false
		}
		lo, hi = m.Base-span, m.Base
	}
	if hi < lo || hi+size-1 < hi {
		return dst, false
	}
	if d < size || d-size < seg {
		// No gap between adjacent lanes can skip a whole segment, so
		// the union is every segment from lo's to the last byte's.
		return appendSegs(dst, lo, seg, hi-lo+size), true
	}
	// Adjacent lanes are at least a segment apart: each lane's first
	// segment lies past the previous lane's last, so walking the lanes
	// in address order emits them sorted and distinct.
	for a, i := lo, uint64(0); i < lanes; a, i = a+d, i+1 {
		dst = appendSegs(dst, a, seg, size)
	}
	return dst, true
}

// Launch carries the runtime context a CTA observes when it is placed on
// an SM. Ordinary kernels only use CTA; agent-based clustered kernels
// (Section 4.2.3-B) read SM and Slot to bind themselves to a cluster, the
// way the CUDA implementation reads %smid and %warpid / a global atomic.
type Launch struct {
	CTA      int // linear CTA id within the launched kernel's grid
	SM       int // physical SM the CTA was dispatched to
	Slot     int // CTA slot index on that SM
	WarpSlot int // first hardware warp slot occupied by the CTA
}

// CTAWork is everything a dispatched CTA will execute.
//
// A CTA's trace may be streamed in segments. Warps is the first
// segment, and it fixes the CTA's warp count. Next, when non-nil,
// yields each following segment in turn. Warp i's complete trace is
// Warps[i] followed by entry i of every segment. A consumer that needs
// the whole trace at once calls Flatten.
type CTAWork struct {
	// Warps holds one op trace per warp of the CTA.
	Warps [][]Op
	// Next yields the next segment, one []Op per warp, and reports
	// false once the trace is exhausted. A nil or missing entry means
	// that warp has nothing in this segment. Entries past len(Warps)
	// are ignored. Segments may share backing arrays with each other
	// and with the producer, so a consumer must not modify them.
	Next func() (warps [][]Op, ok bool)
	// Skip makes the CTA retire immediately without occupying its slot
	// beyond dispatch; used by agent throttling (agent_id >= ACTIVE_AGENTS).
	Skip bool
}

// Flatten returns w with every segment concatenated onto Warps and a
// nil Next: the complete trace. It drains Next. Without a Next it
// returns w unchanged; otherwise the returned traces are fresh slices
// and never alias w's.
func (w CTAWork) Flatten() CTAWork {
	if w.Next == nil {
		return w
	}
	out := make([][]Op, len(w.Warps))
	for i, ops := range w.Warps {
		out[i] = append([]Op(nil), ops...)
	}
	for {
		seg, ok := w.Next()
		if !ok {
			break
		}
		for i := range out {
			if i < len(seg) {
				out[i] = append(out[i], seg[i]...)
			}
		}
	}
	return CTAWork{Warps: out, Skip: w.Skip}
}

// Prepend streams w behind a one-op prefix segment: every warp first
// runs op, then its own trace from w. w's traces are not copied; the
// transforms use it to charge their per-CTA index recomputation.
func (w CTAWork) Prepend(op Op) CTAWork {
	prefix := []Op{op}
	head := make([][]Op, len(w.Warps))
	for i := range head {
		head[i] = prefix
	}
	body, started := w.Warps, false
	return CTAWork{Warps: head, Skip: w.Skip, Next: func() ([][]Op, bool) {
		if !started {
			started = true
			return body, true
		}
		if w.Next != nil {
			return w.Next()
		}
		return nil, false
	}}
}

// Streamer is implemented by kernels, the clustering and swizzle
// transforms among them, that can hand out a CTA's trace in segments.
// Stream(l).Flatten() must equal Work(l). The engine calls Stream when
// a kernel has it and pulls each segment only when the first warp
// reaches it, so a long trace is never resident at once.
type Streamer interface {
	Stream(l Launch) CTAWork
}

// Kernel is the executable unit the engine dispatches and the clustering
// transforms in internal/core rewrite.
type Kernel interface {
	// Name identifies the kernel in reports.
	Name() string
	// GridDim is the CTA grid extent of the launch.
	GridDim() Dim3
	// BlockDim is the per-CTA thread extent.
	BlockDim() Dim3
	// WarpsPerCTA is ceil(threads-per-CTA / 32).
	WarpsPerCTA() int
	// RegsPerThread is the register cost per thread on a generation
	// (the Table 2 "Registers" column).
	RegsPerThread(g arch.Generation) int
	// SharedMemPerCTA is the static shared-memory cost in bytes.
	SharedMemPerCTA() int
	// Work produces the complete op traces for the CTA described by l.
	// Next is nil. Work must be a pure function of l: the analyses and
	// the transforms may call it more than once for one launch, and
	// the agent transform calls it lazily, mid-run, when a warp first
	// reaches the task.
	Work(l Launch) CTAWork
}

// WarpCount returns ceil(block threads / WarpSize) for a block extent.
func WarpCount(block Dim3) int {
	return (block.Count() + arch.WarpSize - 1) / arch.WarpSize
}

// Coord names a kernel index variable that can appear in an array
// subscript; the framework's dependence analysis (Section 4.2.1-A) only
// cares about which block coordinate occupies the fastest-varying
// dimension of each reference.
type Coord uint8

const (
	CoordNone Coord = iota // no block coordinate (thread-only or constant)
	CoordBX                // blockIdx.x
	CoordBY                // blockIdx.y
	CoordBZ                // blockIdx.z
)

// String returns the CUDA name of the coordinate.
func (c Coord) String() string {
	switch c {
	case CoordNone:
		return "-"
	case CoordBX:
		return "blockIdx.x"
	case CoordBY:
		return "blockIdx.y"
	case CoordBZ:
		return "blockIdx.z"
	default:
		return fmt.Sprintf("Coord(%d)", int(c))
	}
}

// ArrayRef summarises one global-array reference in a kernel body for
// the automatic partition-direction analysis of Section 4.2.1-(A).
// The analysis needs two facts per reference: which block coordinates
// the subscript depends on at all, and which one occupies the last
// (fastest-varying) dimension. A reference depending only on blockIdx.y
// (like matrix A in MM, Figure 8) is fully shared among CTAs that differ
// in X, so row-major clustering (Y-partitioning) preserves its reuse; a
// bx-fastest reference shares cache lines across X-adjacent CTAs with
// the same effect. Kernels list their dominant reused array first — the
// "directional locality intensity" hint of Section 4.2.1.
type ArrayRef struct {
	Array     string
	DependsBX bool  // subscript involves blockIdx.x
	DependsBY bool  // subscript involves blockIdx.y
	Fastest   Coord // block coordinate in the last (fastest) dimension
	Write     bool
}

// RefDescriber is implemented by kernels that expose their array
// reference structure to the optimization framework.
type RefDescriber interface {
	ArrayRefs() []ArrayRef
}

// AddressSpace hands out non-overlapping device allocations so workload
// generators can place their arrays like cudaMalloc would.
type AddressSpace struct {
	next uint64
}

// NewAddressSpace returns an allocator starting at a device-like base.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: 0x1000_0000}
}

// Alloc reserves n bytes aligned to 256 bytes and returns the base.
func (s *AddressSpace) Alloc(n int) uint64 {
	if n < 0 {
		panic("kernel: negative allocation")
	}
	const align = 256
	base := s.next
	s.next += (uint64(n) + align - 1) / align * align
	return base
}
