package main

import (
	"fmt"

	"ctacluster/internal/api"
	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/rescache"
	"ctacluster/internal/workloads"
)

// cell is one engine run of an application under a scheme: the unit
// ctad's /v1/simulate serves and the evaluation sweep fans out.
type cell struct {
	ar       *arch.Arch
	app      *workloads.App
	scheme   string // BSL, RD or CLU
	agents   int    // CLU active agents (0 = all allowable)
	bypass   bool
	prefetch bool
}

// kernelID names the cell the way ctad keys a simulate request.
func (c cell) kernelID() string {
	return fmt.Sprintf("%s/%s/agents=%d/bypass=%t/prefetch=%t",
		c.app.Name(), c.scheme, c.agents, c.bypass, c.prefetch)
}

func (c cell) String() string { return c.ar.Name + "/" + c.kernelID() }

// config is the engine configuration every workload runs at: the
// default seeded one (engine seed 1), which the calibration reference
// was generated under.
func (c cell) config() engine.Config { return engine.DefaultConfig(c.ar) }

// cacheKey is the key ctad would store the cell's response under.
func (c cell) cacheKey() string { return rescache.ConfigKey(c.kernelID(), "", c.config()) }

// build applies the cell's scheme to base, which is the app itself or
// the app wrapped by the benchmark.
func (c cell) build(base kernel.Kernel) (kernel.Kernel, error) {
	switch c.scheme {
	case "BSL":
		return base, nil
	case "RD":
		return core.Redirect(base, c.ar.SMs, c.app.Partition(), nil)
	case "CLU":
		return core.NewAgent(base, core.AgentConfig{
			Arch: c.ar, Indexing: c.app.Partition(),
			ActiveAgents: c.agents, Bypass: c.bypass, Prefetch: c.prefetch,
		})
	}
	return nil, fmt.Errorf("unknown scheme %q", c.scheme)
}

// run simulates the cell without instrumentation.
func (c cell) run() (*engine.Result, error) {
	k, err := c.build(c.app)
	if err != nil {
		return nil, err
	}
	return engine.Run(c.config(), k)
}

// body renders a result as ctad's canonical /v1/simulate response.
func (c cell) body(res *engine.Result) ([]byte, error) {
	return api.Marshal(api.SimulateResponseFrom(c.app.Name(), c.ar.Name, c.scheme, "", res))
}

// wrapped forwards a kernel, optionally timing each Work call as a span
// and collecting the memory ops of each returned trace. It forwards the
// optional methods callers type-assert: Reset (the engine re-arms
// stateful kernels with it) and ArrayRefs (the transforms read it).
type wrapped struct {
	kernel.Kernel
	rec  *recorder
	name string
	ops  *[]kernel.MemOp
}

func (w *wrapped) Work(l kernel.Launch) kernel.CTAWork {
	id := -1
	if w.rec != nil {
		id = w.rec.begin(w.name)
	}
	cw := w.Kernel.Work(l)
	if id >= 0 {
		w.rec.end(id)
		w.rec.spans[id].MemOps = countMemOps(cw)
	}
	if w.ops != nil {
		*w.ops = appendMemOps(*w.ops, cw)
	}
	return cw
}

func (w *wrapped) Reset() {
	if r, ok := w.Kernel.(interface{ Reset() }); ok {
		r.Reset()
	}
}

func (w *wrapped) ArrayRefs() []kernel.ArrayRef {
	if rd, ok := w.Kernel.(kernel.RefDescriber); ok {
		return rd.ArrayRefs()
	}
	return nil
}

// countMemOps is appendMemOps' count without its allocation, which
// would land inside the measured spans.
func countMemOps(cw kernel.CTAWork) int {
	n := 0
	for _, warp := range cw.Warps {
		for _, op := range warp {
			if op.Kind == kernel.OpMem {
				n++
			}
		}
	}
	return n
}

// appendMemOps appends the memory ops of a CTA trace: the operations
// the engine coalesces (atomics go to L2 uncoalesced).
func appendMemOps(dst []kernel.MemOp, cw kernel.CTAWork) []kernel.MemOp {
	for _, warp := range cw.Warps {
		for _, op := range warp {
			if op.Kind == kernel.OpMem {
				dst = append(dst, op.Mem)
			}
		}
	}
	return dst
}

// throttleCandidates mirrors the agent counts eval's voting sweep tries
// besides the maximum.
func throttleCandidates(maxAgents int) []int {
	var out []int
	seen := map[int]bool{maxAgents: true}
	for _, v := range []int{1, 2, 3, 4, maxAgents / 2} {
		if v >= 1 && v <= maxAgents && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
