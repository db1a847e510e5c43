package core

import "ctacluster/internal/kernel"

// Reference implementations for stream_test.go (package core_test,
// which can import internal/workloads): the materializing Work each
// transform had before its trace was streamed.

// AgentLaunches and OriginalLaunches expose conservation_test.go's
// launch helpers.
var (
	AgentLaunches    = agentLaunches
	OriginalLaunches = originalLaunches
)

// RefAgentWork is the materializing agent Work: bind, then per task the
// loop overhead, the task's trace (streaming loads bypassed under
// Bypass) and, under Prefetch, warp 0's preload of the successor.
func RefAgentWork(k *AgentKernel, l kernel.Launch) kernel.CTAWork {
	sm := l.SM
	if sm < 0 || sm >= k.part.M {
		sm = 0
	}
	var agentID int
	warps := k.orig.WarpsPerCTA()
	bind := make([][]kernel.Op, warps)
	if k.cfg.Arch.StaticWarpSlotBinding {
		agentID = l.Slot
		for i := range bind {
			bind[i] = []kernel.Op{kernel.Compute(staticBindCost)}
		}
	} else {
		agentID = k.counters[sm]
		k.counters[sm]++
		ctr := agentCounterBase + uint64(sm)*4
		for i := range bind {
			if i == 0 {
				bind[i] = []kernel.Op{kernel.Compute(dynamicCalcCost), kernel.AtomicAdd(ctr, 4), kernel.Barrier()}
			} else {
				bind[i] = []kernel.Op{kernel.Barrier()}
			}
		}
	}
	if agentID >= k.active {
		return kernel.CTAWork{Skip: true}
	}
	tasks := k.Tasks(sm, agentID)
	out := make([][]kernel.Op, warps)
	for i := range out {
		out[i] = append(out[i], bind[i]...)
	}
	idxc := indexCost(k.cfg.Indexing) + taskLoopCost
	for ti, target := range tasks {
		inner := l
		inner.CTA = target
		tw := k.orig.Work(inner)
		var pre []kernel.Op
		if k.cfg.Prefetch && ti+1 < len(tasks) {
			pre = refPrefetchOps(k, l, tasks[ti+1])
		}
		for i := range out {
			out[i] = append(out[i], kernel.Compute(idxc))
			for _, op := range tw.Warps[i] {
				if k.cfg.Bypass && op.Kind == kernel.OpMem && op.Mem.Streaming && !op.Mem.Write {
					op.Mem.Bypass = true
				}
				out[i] = append(out[i], op)
			}
			if i == 0 && len(pre) > 0 {
				out[i] = append(out[i], pre...)
			}
		}
	}
	return kernel.CTAWork{Warps: out}
}

// refPrefetchOps regenerates the successor task's trace and preloads
// its first PrefetchDepth reads.
func refPrefetchOps(k *AgentKernel, l kernel.Launch, nextTarget int) []kernel.Op {
	inner := l
	inner.CTA = nextTarget
	tw := k.orig.Work(inner)
	ops := []kernel.Op{kernel.Compute(idxCostArbitrary)}
	n := 0
	for _, wops := range tw.Warps {
		for _, op := range wops {
			if op.Kind == kernel.OpMem && !op.Mem.Write {
				ops = append(ops, op.Prefetched())
				n++
				if n >= k.cfg.PrefetchDepth {
					return ops
				}
			}
		}
	}
	if n == 0 {
		return nil
	}
	return ops
}

// refPrependCompute inserts a compute op of c cycles at the head of
// every warp trace, copying the traces.
func refPrependCompute(warps [][]kernel.Op, c int) [][]kernel.Op {
	out := make([][]kernel.Op, len(warps))
	for i, ops := range warps {
		w := make([]kernel.Op, 0, len(ops)+1)
		w = append(w, kernel.Compute(c))
		w = append(w, ops...)
		out[i] = w
	}
	return out
}

// RefRedirectWork is the materializing redirection Work.
func RefRedirectWork(k *RedirectKernel, l kernel.Launch) kernel.CTAWork {
	inner := l
	inner.CTA = k.Target(l.CTA)
	work := k.orig.Work(inner)
	work.Warps = refPrependCompute(work.Warps, indexCost(k.ix))
	return work
}
