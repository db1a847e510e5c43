package main

import (
	"fmt"
	"time"

	"ctacluster/internal/arch"
	"ctacluster/internal/calib"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/eval"
	"ctacluster/internal/workloads"
)

// The sweep-k40 workload: the paper's main experiment (Figures 12 and
// 13) on TeslaK40, full throttle sweep, fanned out over every CPU.

// MM on TeslaK40 is the README's quickstart: baseline and CLU cycles.
const mmBaseline, mmClustered = 55579, 48667

type sweepJob struct {
	par  int
	ar   *arch.Arch
	apps []*workloads.App
	ref  *calib.Reference
	res  []*eval.AppResult
	err  error
}

func setupSweep(b *bench) (job, error) {
	ar, err := arch.ByName("TeslaK40")
	if err != nil {
		return nil, err
	}
	ref, err := calib.Load()
	if err != nil {
		return nil, err
	}
	return &sweepJob{par: b.nproc, ar: ar, apps: workloads.Table2(), ref: ref}, nil
}

func (j *sweepJob) run() {
	j.res, j.err = eval.Evaluate(j.ar, j.apps, eval.Options{Parallelism: j.par}, nil)
}

// check counts one operation per application row: its BSL cycles and
// CLU speedup must equal the calibration reference, and MM must match
// the quickstart's cycle counts.
func (j *sweepJob) check(b *bench) {
	for i, app := range j.apps {
		if j.err != nil {
			b.check(false, fmt.Sprintf("sweep-k40 %s: %v", app.Name(), j.err))
			continue
		}
		t, err := j.ref.TargetFor(j.ar.Name, app.Name())
		if err != nil {
			b.check(false, err.Error())
			continue
		}
		bsl, clu := j.res[i].Cells[eval.BSL], j.res[i].Cells[eval.CLU]
		cycErr := relErr(float64(bsl.Cycles), float64(t.Cycles))
		spdErr := relErr(clu.Speedup, t.Speedup)
		b.noteSimErr(cycErr)
		b.noteSimErr(spdErr)
		ok := cycErr == 0 && spdErr == 0
		if app.Name() == "MM" {
			ok = ok && bsl.Cycles == mmBaseline && clu.Cycles == mmClustered
		}
		b.check(ok, fmt.Sprintf("sweep-k40 %s: BSL %d cycles (ref %d), CLU speedup %v (ref %v)",
			app.Name(), bsl.Cycles, t.Cycles, clu.Speedup, t.Speedup))
	}
}

func (j *sweepJob) requests() int        { return 1 }
func (j *sweepJob) latencies() []float64 { return nil }
func (j *sweepJob) close() error         { return nil }

// sweepCells lists the engine runs eval.EvaluateApp makes for one
// application, with the cycles the untraced sweep reported for each
// (0 for a throttle candidate, which only the CLU+TOT minimum shows).
func sweepCells(ar *arch.Arch, r *eval.AppResult) ([]cell, []int64, error) {
	app := r.App
	clu, err := core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: app.Partition()})
	if err != nil {
		return nil, nil, err
	}
	cells := []cell{
		{ar: ar, app: app, scheme: "BSL"},
		{ar: ar, app: app, scheme: "RD"},
		{ar: ar, app: app, scheme: "CLU"},
	}
	want := []int64{r.Cells[eval.BSL].Cycles, r.Cells[eval.RD].Cycles, r.Cells[eval.CLU].Cycles}
	for _, a := range throttleCandidates(clu.MaxAgents()) {
		cells = append(cells, cell{ar: ar, app: app, scheme: "CLU", agents: a})
		want = append(want, 0)
	}
	bps, pfh := r.Cells[eval.CLUTOTBPS], r.Cells[eval.PFHTOT]
	cells = append(cells,
		cell{ar: ar, app: app, scheme: "CLU", agents: bps.Agents, bypass: true},
		cell{ar: ar, app: app, scheme: "CLU", agents: pfh.Agents, prefetch: true})
	want = append(want, bps.Cycles, pfh.Cycles)
	return cells, want, nil
}

func traceSweep(b *bench) error {
	jb, err := setupSweep(b)
	if err != nil {
		return err
	}
	j := jb.(*sweepJob)
	t0 := time.Now()
	j.run()
	wall := time.Since(t0).Seconds()
	j.check(b)
	if j.err != nil {
		return j.err
	}

	in := traceInput{wall: wall, platforms: []*arch.Arch{j.ar}}
	var want []int64
	for i, app := range j.apps {
		in.units = append(in.units, unit{name: app.Name(), fn: func() error {
			_, err := eval.EvaluateApp(j.ar, app, eval.Options{Parallelism: 1})
			return err
		}})
		cells, w, err := sweepCells(j.ar, j.res[i])
		if err != nil {
			return err
		}
		in.cells, want = append(in.cells, cells...), append(want, w...)
	}
	in.verify = func(i int, res *engine.Result, _ []byte) bool {
		return want[i] == 0 || res.Cycles == want[i]
	}
	in.capture = pick(in.cells, "TeslaK40/MM/BSL", "TeslaK40/MM/CLU", "TeslaK40/BFS/BSL", "TeslaK40/KMN/CLU")
	return traceLayers(b, in)
}

// pick returns the cells named "ARCH/APP/SCHEME" (all agents, no
// bypass or prefetch) from cells, in the order named.
func pick(cells []cell, names ...string) []cell {
	var out []cell
	for _, n := range names {
		for _, c := range cells {
			if c.ar.Name+"/"+c.app.Name()+"/"+c.scheme == n && c.agents == 0 && !c.bypass && !c.prefetch {
				out = append(out, c)
				break
			}
		}
	}
	return out
}
