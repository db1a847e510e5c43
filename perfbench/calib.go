package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"ctacluster/internal/arch"
	"ctacluster/internal/calib"
	"ctacluster/internal/engine"
	"ctacluster/internal/workloads"
)

// The calib-all workload: the correlation report over the four Table 1
// platforms and the Table 2 apps, Figure 2 microbenchmark included,
// whose JSON is committed as BENCH_calib.json.

// calibGolden is the committed report, read from the root of the tree
// the benchmark runs in.
const calibGolden = "BENCH_calib.json"

type calibJob struct {
	par       int
	platforms []*arch.Arch
	apps      []*workloads.App
	ref       *calib.Reference
	golden    []byte
	rep       *calib.Report
	out       []byte
	err       error
}

func setupCalib(b *bench) (job, error) {
	ref, err := calib.Load()
	if err != nil {
		return nil, err
	}
	golden, err := os.ReadFile(calibGolden)
	if err != nil {
		return nil, err
	}
	return &calibJob{par: b.nproc, platforms: arch.All(), apps: workloads.Table2(), ref: ref, golden: golden}, nil
}

func (j *calibJob) run() {
	j.rep, j.err = calib.BuildReport(j.platforms, j.apps, j.ref, calib.ReportOptions{Parallelism: j.par})
	if j.err != nil {
		return
	}
	var buf bytes.Buffer
	j.err = j.rep.WriteJSON(&buf)
	j.out = buf.Bytes()
}

// check counts one operation per report cell and per platform curve,
// each compared with its entry in the committed report, and one for the
// whole document, which must be byte-equal to it.
func (j *calibJob) check(b *bench) {
	var want calib.Report
	if err := json.Unmarshal(j.golden, &want); err != nil {
		b.check(false, calibGolden+": "+err.Error())
		return
	}
	if j.err != nil {
		b.check(false, "calib-all: "+j.err.Error())
		return
	}
	for pi, a := range j.rep.Arches {
		var w calib.ArchReport
		if pi < len(want.Arches) {
			w = want.Arches[pi]
		}
		b.noteSimErr(a.CurveRMS)
		b.check(a.Arch == w.Arch && a.CurveRMS == w.CurveRMS,
			fmt.Sprintf("calib-all %s: curve RMS %v, committed %v", a.Arch, a.CurveRMS, w.CurveRMS))
		for ci, c := range a.Cells {
			b.noteSimErr(c.CycleErr)
			b.noteSimErr(c.SpeedupErr)
			ok := ci < len(w.Cells) && reflect.DeepEqual(c, w.Cells[ci])
			b.check(ok, fmt.Sprintf("calib-all %s/%s differs from %s", a.Arch, c.App, calibGolden))
		}
	}
	b.check(bytes.Equal(j.out, j.golden), "calib-all: report JSON is not byte-equal to "+calibGolden)
}

func (j *calibJob) requests() int        { return 1 }
func (j *calibJob) latencies() []float64 { return nil }
func (j *calibJob) close() error         { return nil }

func traceCalib(b *bench) error {
	jb, err := setupCalib(b)
	if err != nil {
		return err
	}
	j := jb.(*calibJob)
	t0 := time.Now()
	j.run()
	wall := time.Since(t0).Seconds()
	j.check(b)
	if j.err != nil {
		return j.err
	}

	in := traceInput{wall: wall, platforms: j.platforms, microbenchInJob: true}
	var want []calib.AppCell
	for pi, ar := range j.platforms {
		for ai, app := range j.apps {
			bsl := cell{ar: ar, app: app, scheme: "BSL"}
			clu := cell{ar: ar, app: app, scheme: "CLU"}
			in.units = append(in.units, unit{name: ar.Name + "/" + app.Name(), fn: func() error {
				if _, err := bsl.run(); err != nil {
					return err
				}
				_, err := clu.run()
				return err
			}})
			in.cells = append(in.cells, bsl, clu)
			c := j.rep.Arches[pi].Cells[ai]
			want = append(want, c, c)
		}
	}
	// A BSL run must reproduce the report's cycles; the CLU run that
	// follows it, the report's speedup.
	var lastBSL int64
	in.verify = func(i int, res *engine.Result, _ []byte) bool {
		if i%2 == 0 {
			lastBSL = res.Cycles
			return res.Cycles == want[i].SimCycles
		}
		return res.Cycles > 0 && float64(lastBSL)/float64(res.Cycles) == want[i].SimSpeedup
	}
	in.capture = pick(in.cells, "GTX570/MM/BSL", "GTX980/MM/CLU", "GTX1080/BFS/BSL", "TeslaK40/KMN/CLU")
	return traceLayers(b, in)
}
