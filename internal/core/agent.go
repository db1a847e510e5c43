package core

import (
	"fmt"
	"slices"

	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
)

// Binding overheads of Section 4.2.3-(B), in cycles. Static binding
// (Fermi/Kepler) reads two special registers and divides; dynamic
// binding (Maxwell/Pascal) additionally performs a global atomic and a
// shared-memory broadcast, modelled as real atomic+barrier ops so the
// cost scales with L2 contention like the real thing.
const (
	staticBindCost  = 6
	dynamicCalcCost = 8
	taskLoopCost    = 2 // loop bookkeeping per task, on top of indexCost
)

// agentCounterBase hosts the global_counters array of Listing 5, far
// above the workload allocator's range.
const agentCounterBase = uint64(0xF000_0000)

// AgentConfig configures the agent-based clustering transform.
type AgentConfig struct {
	// Arch is the target machine: it determines the number of clusters
	// (SMs), the binding flavour and the maximum allowable agents.
	Arch *arch.Arch
	// Indexing selects the CTA order that Partitioning chunks
	// (X-/Y-/tile-wise partitioning per Figure 7).
	Indexing kernel.Indexing
	// Perm is the explicit order for kernel.Arbitrary.
	Perm []int
	// ActiveAgents throttles concurrent agents per SM (Section 4.3-I).
	// 0 means all MaxAgents are active (no throttling).
	ActiveAgents int
	// Bypass rewrites streaming-hinted accesses to skip L1 (Section 4.3-II).
	Bypass bool
	// Prefetch makes each task preload the first loads of its successor
	// task under the reshaped order (Section 4.3-III).
	Prefetch bool
	// PrefetchDepth bounds how many loads are prefetched per task
	// (default 4).
	PrefetchDepth int
}

// AgentKernel is the agent-based clustering transform of Section
// 4.2.4-(2) / Listing 5: the launched grid holds SMs×MAX_AGENTS
// persistent CTAs ("agents"); each agent binds itself to the cluster of
// the SM it lands on and serves that cluster's tasks in a loop,
// completely circumventing the hardware CTA scheduler.
type AgentKernel struct {
	orig      kernel.Kernel
	cfg       AgentConfig
	part      Partition
	maxAgents int
	active    int
	counters  []int // per-SM dynamic agent-id counters (%smid-indexed)
	// loopSeg is the per-task loop-overhead segment every task of every
	// agent shares; it is read-only.
	loopSeg [][]kernel.Op
}

// NewAgent builds the agent-based clustering transform of orig for the
// architecture in cfg.
func NewAgent(orig kernel.Kernel, cfg AgentConfig) (*AgentKernel, error) {
	if cfg.Arch == nil {
		return nil, fmt.Errorf("core: agent clustering needs a target architecture")
	}
	total := orig.GridDim().Count()
	part, err := NewPartition(total, cfg.Arch.SMs)
	if err != nil {
		return nil, err
	}
	if cfg.Indexing == kernel.Arbitrary && len(cfg.Perm) != total {
		return nil, fmt.Errorf("core: arbitrary indexing needs a permutation of length %d, got %d", total, len(cfg.Perm))
	}
	occ := cfg.Arch.OccupancyFor(orig.WarpsPerCTA(), orig.RegsPerThread(cfg.Arch.Gen), orig.SharedMemPerCTA())
	if occ.CTAsPerSM <= 0 {
		return nil, fmt.Errorf("core: kernel %s does not fit on %s", orig.Name(), cfg.Arch.Name)
	}
	active := cfg.ActiveAgents
	if active <= 0 || active > occ.CTAsPerSM {
		active = occ.CTAsPerSM
	}
	if cfg.PrefetchDepth <= 0 {
		cfg.PrefetchDepth = 4
	}
	loop := []kernel.Op{kernel.Compute(indexCost(cfg.Indexing) + taskLoopCost)}
	loopSeg := make([][]kernel.Op, orig.WarpsPerCTA())
	for i := range loopSeg {
		loopSeg[i] = loop
	}
	return &AgentKernel{
		orig:      orig,
		cfg:       cfg,
		part:      part,
		maxAgents: occ.CTAsPerSM,
		active:    active,
		counters:  make([]int, cfg.Arch.SMs),
		loopSeg:   loopSeg,
	}, nil
}

// Name labels the transformed kernel with its scheme.
func (k *AgentKernel) Name() string {
	n := k.orig.Name() + "+CLU"
	if k.active < k.maxAgents {
		n += "+TOT"
	}
	if k.cfg.Bypass {
		n += "+BPS"
	}
	if k.cfg.Prefetch {
		n += "+PFH"
	}
	return n
}

// MaxAgents is the MAX_AGENTS of Listing 5: the maximum allowable agents
// per SM, always launched in full to force balanced distribution.
func (k *AgentKernel) MaxAgents() int { return k.maxAgents }

// ActiveAgents is the ACTIVE_AGENTS throttling degree.
func (k *AgentKernel) ActiveAgents() int { return k.active }

// GridDim launches SMs×MAX_AGENTS agents.
func (k *AgentKernel) GridDim() kernel.Dim3 {
	return kernel.Dim1(k.cfg.Arch.SMs * k.maxAgents)
}

// BlockDim matches the original.
func (k *AgentKernel) BlockDim() kernel.Dim3 { return k.orig.BlockDim() }

// WarpsPerCTA matches the original.
func (k *AgentKernel) WarpsPerCTA() int { return k.orig.WarpsPerCTA() }

// RegsPerThread matches the original (__launch_bounds__ may raise usage
// when throttled, which only relaxes an already-satisfied limit).
func (k *AgentKernel) RegsPerThread(g arch.Generation) int { return k.orig.RegsPerThread(g) }

// SharedMemPerCTA matches the original plus the agent-id broadcast slot
// on dynamically-binding architectures.
func (k *AgentKernel) SharedMemPerCTA() int {
	s := k.orig.SharedMemPerCTA()
	if !k.cfg.Arch.StaticWarpSlotBinding {
		s += 4
	}
	return s
}

// ArrayRefs exposes the original kernel's reference structure.
func (k *AgentKernel) ArrayRefs() []kernel.ArrayRef {
	if rd, ok := k.orig.(kernel.RefDescriber); ok {
		return rd.ArrayRefs()
	}
	return nil
}

// Reset clears the dynamic binding counters so the kernel can be
// re-launched (each engine.Run is one launch).
func (k *AgentKernel) Reset() {
	for i := range k.counters {
		k.counters[i] = 0
	}
}

// Tasks returns the original CTA ids agent (sm, agentID) will execute,
// in order (exported for property tests).
func (k *AgentKernel) Tasks(sm, agentID int) []int {
	if sm < 0 || sm >= k.part.M || agentID >= k.active {
		return nil
	}
	base := k.part.ClusterBase(sm)
	jobs := k.part.ClusterSize(sm)
	g := k.orig.GridDim()
	var out []int
	for t := agentID; t < jobs; t += k.active {
		v := base + t
		out = append(out, origCTA(k.cfg.Indexing, k.cfg.Perm, v, g.X, g.Y))
	}
	return out
}

// Work binds the agent to its SM's cluster and returns the complete
// task-loop trace.
func (k *AgentKernel) Work(l kernel.Launch) kernel.CTAWork {
	return k.Stream(l).Flatten()
}

// Stream binds the agent to its SM's cluster and streams its task loop:
// the binding preamble as Warps, then, per task, the loop-overhead
// compute, the task's trace and, under Prefetch, warp 0's preload of
// the successor's first reads. Each task's trace is generated when its
// segment is pulled, once per task.
func (k *AgentKernel) Stream(l kernel.Launch) kernel.CTAWork {
	sm := l.SM
	if sm < 0 || sm >= k.part.M {
		sm = 0
	}

	// SM-based binding: obtain agent_id.
	var agentID int
	warps := k.orig.WarpsPerCTA()
	bind := make([][]kernel.Op, warps) // per-warp binding preamble
	if k.cfg.Arch.StaticWarpSlotBinding {
		// Fermi/Kepler: agent_id = %warpid / WARPS_PER_CTA.
		agentID = l.Slot
		for i := range bind {
			bind[i] = []kernel.Op{kernel.Compute(staticBindCost)}
		}
	} else {
		// Maxwell/Pascal: primary thread bids via a global atomic and
		// broadcasts through shared memory; everyone else waits.
		agentID = k.counters[sm]
		k.counters[sm]++
		ctr := agentCounterBase + uint64(sm)*4
		for i := range bind {
			if i == 0 {
				bind[i] = []kernel.Op{
					kernel.Compute(dynamicCalcCost),
					kernel.AtomicAdd(ctr, 4),
					kernel.Barrier(),
				}
			} else {
				bind[i] = []kernel.Op{kernel.Barrier()}
			}
		}
	}

	if agentID >= k.active {
		// CTA throttling: surplus agents retire immediately.
		return kernel.CTAWork{Skip: true}
	}
	ts := &taskStream{k: k, l: l, tasks: k.Tasks(sm, agentID)}
	return kernel.CTAWork{Warps: bind, Next: ts.next}
}

// taskStream yields one agent's task loop segment by segment.
type taskStream struct {
	k     *AgentKernel
	l     kernel.Launch
	tasks []int
	ti    int   // current task
	phase uint8 // next segment of task ti: 0 overhead, 1 trace, 2 prefetch
	// succ is task ti+1's trace, generated for ti's prefetch and kept
	// as that task's trace.
	succ [][]kernel.Op
}

func (t *taskStream) next() ([][]kernel.Op, bool) {
	k := t.k
	for t.ti < len(t.tasks) {
		switch t.phase {
		case 0:
			t.phase = 1
			return k.loopSeg, true
		case 1:
			t.phase = 2
			tw := t.succ
			if tw == nil {
				tw = k.taskWork(t.l, t.tasks[t.ti])
			}
			t.succ = nil
			if k.cfg.Prefetch && t.ti+1 < len(t.tasks) {
				t.succ = k.taskWork(t.l, t.tasks[t.ti+1])
			}
			if k.cfg.Bypass {
				tw = bypassStreaming(tw)
			}
			return tw, true
		default:
			t.phase = 0
			t.ti++
			// Preload the successor task's first lines before the
			// current task expires (Section 4.3-III).
			if pre := k.prefetchOps(t.succ); len(pre) > 0 {
				return [][]kernel.Op{pre}, true
			}
		}
	}
	return nil, false
}

// taskWork generates the original CTA target's trace as run by the
// agent launched at l.
func (k *AgentKernel) taskWork(l kernel.Launch, target int) [][]kernel.Op {
	inner := l
	inner.CTA = target
	tw := k.orig.Work(inner)
	if len(tw.Warps) != k.orig.WarpsPerCTA() {
		panic(fmt.Sprintf("core: kernel %s produced %d warps, want %d", k.orig.Name(), len(tw.Warps), k.orig.WarpsPerCTA()))
	}
	return tw.Warps
}

// bypassStreaming rewrites streaming-hinted loads to skip L1, copying
// only the warps that hold one.
func bypassStreaming(warps [][]kernel.Op) [][]kernel.Op {
	var out [][]kernel.Op
	for i, ops := range warps {
		first := slices.IndexFunc(ops, isStreamingLoad)
		if first < 0 {
			continue
		}
		if out == nil {
			out = slices.Clone(warps)
		}
		cp := slices.Clone(ops)
		for j := first; j < len(cp); j++ {
			if isStreamingLoad(cp[j]) {
				cp[j].Mem.Bypass = true
			}
		}
		out[i] = cp
	}
	if out == nil {
		return warps
	}
	return out
}

func isStreamingLoad(op kernel.Op) bool {
	return op.Kind == kernel.OpMem && op.Mem.Streaming && !op.Mem.Write
}

// prefetchOps derives the prefetch preamble from the successor task's
// trace: recompute its addresses and issue non-blocking loads for its
// first PrefetchDepth reads. It returns nil for a trace without reads.
func (k *AgentKernel) prefetchOps(succ [][]kernel.Op) []kernel.Op {
	var ops []kernel.Op
	for _, wops := range succ {
		for _, op := range wops {
			if op.Kind == kernel.OpMem && !op.Mem.Write {
				if ops == nil {
					ops = []kernel.Op{kernel.Compute(idxCostArbitrary)} // address recalculation
				}
				ops = append(ops, op.Prefetched())
				if len(ops) > k.cfg.PrefetchDepth {
					return ops
				}
			}
		}
	}
	return ops
}
