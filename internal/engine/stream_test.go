package engine_test

// Streamed CTA traces (kernel.CTAWork.Next) against their flattened
// twins: a warp pulling its trace segment by segment must execute
// exactly the ops of the complete trace, so every Result and every
// profiler event is identical.

import (
	"fmt"
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/prof"
	"ctacluster/internal/workloads"
)

// hide exposes only the kernel.Kernel methods of the kernel it wraps,
// so the engine cannot see a Stream method and runs Work's complete
// trace.
type hide struct{ kernel.Kernel }

func TestStreamedTransformsMatchFlattened(t *testing.T) {
	apps := []string{"MM", "KMN", "SGM", "NW", "BFS"}
	if raceEnabled || testing.Short() {
		apps = []string{"SGM"}
	}
	schemes := map[string]func(*workloads.App, *arch.Arch) (kernel.Kernel, error){
		"RD": func(app *workloads.App, ar *arch.Arch) (kernel.Kernel, error) {
			return core.Redirect(app, ar.SMs, app.Partition(), nil)
		},
		"CLU": func(app *workloads.App, ar *arch.Arch) (kernel.Kernel, error) {
			return core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: app.Partition()})
		},
		"CLU+PFH": func(app *workloads.App, ar *arch.Arch) (kernel.Kernel, error) {
			return core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: app.Partition(), Prefetch: true})
		},
	}
	for _, ar := range []*arch.Arch{arch.TeslaK40(), arch.GTX980()} {
		for _, name := range apps {
			app, err := workloads.New(name)
			if err != nil {
				t.Fatal(err)
			}
			for scheme, build := range schemes {
				for _, shards := range []int{1, 2} {
					cfg := engine.DefaultConfig(ar)
					cfg.Shards = shards
					run := func(wrap func(kernel.Kernel) kernel.Kernel) *engine.Result {
						k, err := build(app, ar)
						if err != nil {
							t.Fatal(err)
						}
						res, err := engine.Run(cfg, wrap(k))
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					streamed := run(func(k kernel.Kernel) kernel.Kernel { return k })
					flat := run(func(k kernel.Kernel) kernel.Kernel { return hide{k} })
					if !reflect.DeepEqual(streamed, flat) {
						t.Errorf("%s/%s/%s shards=%d: streamed run differs from flattened (cycles %d vs %d)",
							ar.Name, name, scheme, shards, streamed.Cycles, flat.Cycles)
					}
				}
			}
		}
	}
}

// segKernel streams synthetic CTA traces that exercise every segment
// shape: nil warp entries, empty and short segments, a barrier as a
// segment's first op, and barrier-free stretches in which fast warps
// run several segments ahead of a slow peer.
type segKernel struct {
	ctas, warps, segs int
}

func (k *segKernel) Name() string                      { return "segments" }
func (k *segKernel) GridDim() kernel.Dim3              { return kernel.Dim1(k.ctas) }
func (k *segKernel) BlockDim() kernel.Dim3             { return kernel.Dim1(k.warps * 32) }
func (k *segKernel) WarpsPerCTA() int                  { return k.warps }
func (k *segKernel) RegsPerThread(arch.Generation) int { return 16 }
func (k *segKernel) SharedMemPerCTA() int              { return 0 }
func (k *segKernel) Work(l kernel.Launch) kernel.CTAWork {
	return k.Stream(l).Flatten()
}

func (k *segKernel) Stream(l kernel.Launch) kernel.CTAWork {
	s := 0
	return kernel.CTAWork{Warps: k.segment(l.CTA, 2), Next: func() ([][]kernel.Op, bool) {
		if s == k.segs {
			return nil, false
		}
		s++
		return k.segment(l.CTA, s-1), true
	}}
}

func (k *segKernel) segment(cta, s int) [][]kernel.Op {
	addr := func(w, i int) uint64 { return uint64(0x100000 + (cta*7+s)%23*4096 + w*128 + i*32) }
	out := make([][]kernel.Op, k.warps)
	switch s % 6 {
	case 0: // barrier first
		for w := range out {
			out[w] = []kernel.Op{kernel.Barrier(), kernel.Load(addr(w, 0), 4, 32, 4), kernel.Compute(3)}
		}
	case 1: // empty
		return nil
	case 2: // odd warps have nothing
		for w := 0; w < k.warps; w += 2 {
			out[w] = []kernel.Op{kernel.Load(addr(w, 0), 4, 32, 4), kernel.Load(addr(w, 1), 4, 32, 4), kernel.Store(addr(w, 2), 4, 32, 4)}
		}
	case 3: // the last warp is slow; the others run ahead until the next barrier
		for w := range out {
			out[w] = []kernel.Op{kernel.Load(addr(w, 0), 4, 32, 4), kernel.Compute(2)}
		}
		out[k.warps-1] = []kernel.Op{kernel.Compute(900), kernel.Load(addr(k.warps-1, 3), 8, 32, 8)}
	case 4: // shorter than the CTA: only warp 0
		return [][]kernel.Op{{kernel.Load(addr(0, 0), 128, 32, 4), kernel.Compute(5)}}
	case 5: // zero-length entries
		for w := range out {
			out[w] = []kernel.Op{}
		}
		out[0] = append(out[0], kernel.Compute(1))
	}
	return out
}

func TestSyntheticStreamMatchesFlattened(t *testing.T) {
	for _, ar := range []*arch.Arch{arch.TeslaK40(), arch.GTX980()} {
		for _, shards := range []int{1, 2} {
			run := func(k kernel.Kernel) (*engine.Result, *prof.Trace) {
				tr := prof.NewTrace(prof.TraceConfig{
					Kernel: k.Name(), Arch: ar.Name, SMs: ar.SMs,
					Events: prof.MaskAll, SampleInterval: 500,
				})
				cfg := engine.DefaultConfig(ar)
				cfg.Shards = shards
				cfg.Profiler = tr
				res, err := engine.Run(cfg, k)
				if err != nil {
					t.Fatal(err)
				}
				return res, tr
			}
			name := fmt.Sprintf("%s/shards=%d", ar.Name, shards)
			k := &segKernel{ctas: 3 * ar.SMs, warps: 4, segs: 20}
			res, tr := run(k)
			flatRes, flatTr := run(hide{k})
			if !reflect.DeepEqual(res, flatRes) {
				t.Errorf("%s: streamed Result differs from flattened (cycles %d vs %d)", name, res.Cycles, flatRes.Cycles)
			}
			if !reflect.DeepEqual(tr.Events(), flatTr.Events()) {
				t.Errorf("%s: streamed event stream differs from flattened (%d vs %d events)", name, len(tr.Events()), len(flatTr.Events()))
			}
			if !reflect.DeepEqual(tr.Snapshots(), flatTr.Snapshots()) {
				t.Errorf("%s: streamed counter snapshots differ from flattened", name)
			}
		}
	}
}
