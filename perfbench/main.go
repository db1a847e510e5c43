// Command perfbench is the repository benchmark: it runs one workload,
// checks the program's outputs and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload sweep-k40 --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it repeats the workload's fixed job for --seconds and
// reports the end-to-end metrics. With --trace 1 it runs the job once
// untraced, then measures each layer from outside (spans around calls
// into the layers' public functions, and replays of a captured event
// stream) and reports the per-layer metrics. The last line of standard
// output is the result object; the line before it is the full record,
// host included. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// engineSeed is the engine seed every workload simulates at: the
// calibration reference was generated under it.
const engineSeed = 1

// setupPrelude is how many extra set-ups each job's process times
// before the one its job uses, so setup_s is a median of several.
const setupPrelude = 4

// maxReportedFailures bounds the failed-check lines on standard error.
const maxReportedFailures = 20

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// job is one repetition of a workload's fixed job.
type job interface {
	// run does the timed work; failures are kept for check.
	run()
	// check verifies the outputs, counting each operation into b.
	check(b *bench)
	// requests is how many requests the job served; a batch job is one.
	requests() int
	// latencies returns per-request latencies in milliseconds, or nil
	// for a batch job, whose one request is the whole job.
	latencies() []float64
	close() error
}

type workload struct {
	name  string
	setup func(b *bench) (job, error)
	trace func(b *bench) error
}

var workloadList = []workload{
	{name: "sweep-k40", setup: setupSweep, trace: traceSweep},
	{name: "calib-all", setup: setupCalib, trace: traceCalib},
	{name: "serve-zipf", setup: setupServe, trace: traceServe},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	job      int // >= 0: run only that repetition and report it (see measure)
}

// bench carries one run's settings and what it has measured.
type bench struct {
	opts      options
	nproc     int
	tmp       string // scratch directory for cache directories
	attempted int
	failed    int
	simErr    float64
	metrics   map[string]metric
	record    map[string]any
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed (drives serve-zipf's request sequence)")
	fs.IntVar(&o.seconds, "seconds", 35, "how long to repeat the job with --trace 0")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the timed one")
	fs.IntVar(&o.job, "job", -1, "internal: run repetition N of the job in this process and print its report")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench", "out"), "directory for spans, CPU profiles and scratch files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be positive, got %d", o.seconds)
	}
	o.trace = trace == 1
	var w *workload
	for i := range workloadList {
		if workloadList[i].name == o.workload {
			w = &workloadList[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		opts:    o,
		nproc:   runtime.NumCPU(),
		tmp:     tmp,
		metrics: map[string]metric{},
		record: map[string]any{
			"workload":    o.workload,
			"seed":        o.seed,
			"engine_seed": engineSeed,
			"trace":       trace,
			"seconds":     o.seconds,
			"host":        hostRecord(),
		},
	}
	switch {
	case o.job >= 0:
		return runJob(b, w, stdout)
	case o.trace:
		err = w.trace(b)
	default:
		err = measure(b, w)
	}
	if err != nil {
		return err
	}
	return b.finish(stdout)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadList {
		out = append(out, w.name)
	}
	return out
}

// check counts one operation and whether its output was right.
func (b *bench) check(ok bool, what string) {
	b.attempted++
	if ok {
		return
	}
	b.failed++
	if b.failed <= maxReportedFailures {
		fmt.Fprintln(os.Stderr, "check failed:", what)
	}
}

// noteSimErr folds one signed relative error of a simulated number
// against its reference into sim_err_max.
func (b *bench) noteSimErr(e float64) { b.simErr = math.Max(b.simErr, math.Abs(e)) }

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// relErr is the signed relative error of sim against ref, or sim itself
// against a zero reference.
func relErr(sim, ref float64) float64 {
	if ref == 0 {
		return sim
	}
	return (sim - ref) / ref
}

// finish prints the record line and the result line.
func (b *bench) finish(stdout io.Writer) error {
	if b.attempted == 0 {
		return errors.New("no operation was checked")
	}
	b.record["attempted"] = b.attempted
	b.record["failed"] = b.failed
	b.record["failed_frac"] = float64(b.failed) / float64(b.attempted)
	b.record["sim_err_max"] = b.simErr

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": b.record}); err != nil {
		return err
	}
	return enc.Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, b.metrics})
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is the process's resident-memory high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
