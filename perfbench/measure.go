package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// jobReport is what one repetition's process measured.
type jobReport struct {
	Setups    []float64 `json:"setups_s"`
	Wall      float64   `json:"wall_s"`
	CPU       float64   `json:"cpu_s"`
	RSS       float64   `json:"rss_mib"`
	Requests  int       `json:"requests"`
	Latencies []float64 `json:"latencies_ms"` // nil for a batch job
	Hits      []float64 `json:"hits_ms"`
	Misses    []float64 `json:"misses_ms"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	SimErr    float64   `json:"sim_err"`
}

// measure repeats the workload's job for the run's duration, each
// repetition in a fresh process of this program (--job N), as a user
// runs the CLI or starts the daemon: memory and CPU are then per job,
// and no job inherits another's heap. It sets the end-to-end metrics.
func measure(b *bench, w *workload) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var setups, walls, cpus, rss, rates, lat, hits, misses []float64
	start := time.Now()
	for i := 0; len(walls) == 0 || time.Since(start) < time.Duration(b.opts.seconds)*time.Second; i++ {
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(b.opts.seed, 10),
			"--job", strconv.Itoa(i), "--out", b.opts.out)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
		var r jobReport
		if err := json.Unmarshal(out.Bytes(), &r); err != nil {
			return fmt.Errorf("job %d report: %w", i, err)
		}
		b.attempted += r.Attempted
		b.failed += r.Failed
		b.noteSimErr(r.SimErr)
		setups = append(setups, r.Setups...)
		walls, cpus, rss = append(walls, r.Wall), append(cpus, r.CPU), append(rss, r.RSS)
		rates = append(rates, float64(r.Requests)/r.Wall)
		hits, misses = append(hits, r.Hits...), append(misses, r.Misses...)
		if r.Latencies != nil {
			lat = append(lat, r.Latencies...)
		} else {
			lat = append(lat, r.Wall*1e3)
		}
	}
	p99, used := tail(lat, 0.99)
	b.set("wall_s", median(walls), "s")
	b.set("cpu_s", median(cpus), "s")
	b.set("setup_s", median(setups), "s")
	b.set("peak_rss_mb", median(rss), "MiB")
	b.set("req_per_s", median(rates), "1/s")
	b.set("req_p50_ms", median(lat), "ms")
	b.set("req_p99_ms", p99, "ms")
	if hits != nil || misses != nil {
		missP90, mused := tail(misses, 0.9)
		b.record["hits"], b.record["misses"] = len(hits), len(misses)
		b.record["hit_p50_ms"], b.record["miss_p50_ms"] = median(hits), median(misses)
		b.record["miss_p90_ms"], b.record["miss_p90_percentile_used"] = missP90, mused
	}
	b.record["jobs"] = len(walls)
	b.record["job_walls_s"] = walls
	b.record["job_cpu_s"] = cpus
	b.record["job_rss_mib"] = rss
	b.record["setups"] = len(setups)
	b.record["request_samples"] = len(lat)
	b.record["req_p99_percentile_used"] = used
	return nil
}

// runJob is one repetition: set-ups, the timed job, and its checks,
// reported as one JSON line.
func runJob(b *bench, w *workload, stdout io.Writer) error {
	var r jobReport
	var j job
	for i := 0; i <= setupPrelude; i++ {
		t0 := time.Now()
		next, err := w.setup(b)
		if err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		r.Setups = append(r.Setups, time.Since(t0).Seconds())
		if j != nil {
			if err := j.close(); err != nil {
				return err
			}
		}
		j = next
	}
	c0, t0 := cpuSeconds(), time.Now()
	j.run()
	r.Wall, r.CPU = time.Since(t0).Seconds(), cpuSeconds()-c0
	j.check(b)
	r.Requests, r.Latencies = j.requests(), j.latencies()
	if s, ok := j.(interface{ split(string) []float64 }); ok {
		r.Hits, r.Misses = s.split("hit"), s.split("miss")
	}
	if err := j.close(); err != nil {
		return err
	}
	r.RSS = peakRSSMiB()
	r.Attempted, r.Failed, r.SimErr = b.attempted, b.failed, b.simErr
	return json.NewEncoder(stdout).Encode(r)
}
