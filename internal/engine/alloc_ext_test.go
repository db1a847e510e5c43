package engine_test

// The allocation budget table: the enforcement half of the hot-path
// allocation diet. Each cell pins the whole-run allocation count of a
// real workload, mostly on TeslaK40, bare and profiled, to a budget 5%
// above the measured value. A change that
// reintroduces per-event allocations (queue boxing, per-access
// transaction slices, per-object warp/CTA allocation) blows these
// budgets by orders of magnitude, not percent, so the 5% headroom
// tolerates runtime noise without tolerating regressions.

import (
	"runtime"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/prof"
	"ctacluster/internal/workloads"
)

// allocBudgets is the table. Budgets are whole-run allocation counts
// (testing.AllocsPerRun averages over 2 runs); profiled rows include
// the Trace's own event-buffer growth, which amortized doubling keeps
// to a few dozen allocations.
var allocBudgets = []struct {
	app      string
	scheme   string // "" = the plain app; CLU or CLU+PFH = agent clustering
	arch     string // "" = TeslaK40
	chiplets int    // 0 = monolithic; N = WithChiplets variant
	profiled bool
	budget   float64
	// mb, when set, caps the bytes allocated per run (MB), measured as
	// the runtime.MemStats.TotalAlloc delta: AllocsPerRun counts
	// allocations, not their size.
	mb float64
}{
	{"MM", "", "", 0, false, 8290, 0},
	{"MM", "", "", 0, true, 8340, 0},
	{"SGM", "", "", 0, false, 3550, 0},
	{"SGM", "", "", 0, true, 3590, 0},
	// The chiplet path: per-die slices replace the monolithic L2, and
	// everything else must stay on the diet — the slice array and link
	// table are setup-time allocations, not per-event ones.
	{"MM", "", "", 2, false, 8100, 0},
	// The agent path streams each task's trace (kernel.CTAWork.Next);
	// the byte ceilings fail a change that materializes it again.
	{"MM", "CLU", "", 0, false, 9300, 37.7},
	{"MM", "CLU+PFH", "", 0, false, 9910, 37.9},
	// MM on GTX980 leaves the largest MSHR tables of any cell, up to
	// 27,648 entries per SM, so the byte ceiling fails a table that
	// costs more memory per entry (the Go map it replaced: 60.8 MB).
	{"MM", "", "GTX980", 0, false, 8140, 59.2},
}

func TestAllocationBudgets(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation counts are only meaningful uninstrumented")
	}
	for _, c := range allocBudgets {
		ar := arch.TeslaK40()
		name := c.app
		if c.scheme != "" {
			name += "+" + c.scheme
		}
		if c.arch != "" {
			var err error
			if ar, err = arch.ByName(c.arch); err != nil {
				t.Fatal(err)
			}
			name += "/" + c.arch
		}
		if c.chiplets > 0 {
			var err error
			if ar, err = arch.WithChiplets(ar, c.chiplets); err != nil {
				t.Fatal(err)
			}
			name += "/2die"
		}
		name += "/serial"
		if c.profiled {
			name += "/profiled"
		} else {
			name += "/bare"
		}
		t.Run(name, func(t *testing.T) {
			app, err := workloads.New(c.app)
			if err != nil {
				t.Fatal(err)
			}
			var k kernel.Kernel = app
			if c.scheme != "" {
				cfg := core.AgentConfig{Arch: ar, Indexing: app.Partition(), Prefetch: c.scheme == "CLU+PFH"}
				if k, err = core.NewAgent(app, cfg); err != nil {
					t.Fatal(err)
				}
			}
			run := func() {
				cfg := engine.DefaultConfig(ar)
				if c.profiled {
					cfg.Profiler = prof.NewTrace(prof.TraceConfig{
						Kernel: c.app, Arch: ar.Name, SMs: ar.SMs,
						Events: prof.MaskAll, SampleInterval: 5000,
					})
				}
				if _, err := engine.Run(cfg, k); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(2, run)
			t.Logf("%s: %.0f allocs/run (budget %.0f)", name, got, c.budget)
			if got > c.budget {
				t.Errorf("%s allocates %.0f times per run, budget %.0f (+5%% over the post-diet measurement) — the allocation diet regressed",
					name, got, c.budget)
			}
			if c.mb > 0 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				run()
				run()
				runtime.ReadMemStats(&after)
				mb := float64(after.TotalAlloc-before.TotalAlloc) / 2 / 1e6
				t.Logf("%s: %.2f MB allocated/run (ceiling %.1f)", name, mb, c.mb)
				if mb > c.mb {
					t.Errorf("%s allocates %.1f MB per run, ceiling %.1f (+5%% over the measurement) — a CTA trace is materialized again, or the MSHR table costs more per entry",
						name, mb, c.mb)
				}
			}
		})
	}
}
