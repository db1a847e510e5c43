package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"time"

	"ctacluster/internal/api"
	"ctacluster/internal/arch"
	"ctacluster/internal/cache"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/mem"
	"ctacluster/internal/prof"
	"ctacluster/internal/rescache"
	"ctacluster/internal/workloads"
)

// unit is one piece of a workload's fan-out (an EvaluateApp call, a
// calibration cell pair, a simulate request's engine run), timed alone
// at one worker.
type unit struct {
	name string
	fn   func() error
}

// traceInput is what a workload hands the traced run after its one
// untraced job.
type traceInput struct {
	wall  float64 // the untraced job's wall time, seconds
	units []unit
	// cells are simulated once more under spans, serially; verify checks
	// each traced result against the untraced job's output.
	cells  []cell
	verify func(i int, res *engine.Result, body []byte) bool
	// capture is the small fixed cell set whose event stream the layer
	// replays consume; every capture cell is also one of cells.
	capture []cell
	// platforms are microbenchmarked once each for calib.microbench_ms;
	// microbenchInJob says the job itself runs those microbenchmarks.
	platforms       []*arch.Arch
	microbenchInJob bool
	// metrics is ctad's /metrics after the job; nil for a batch
	// workload, whose job does not run ctad.
	metrics *api.MetricsResponse
}

// traceLayers runs the serial, span, capture and probe passes and sets
// every per-layer metric.
func traceLayers(b *bench, in traceInput) error {
	// Serial pass: the fan-out units alone, untraced.
	var serial []float64
	for _, u := range in.units {
		t0 := time.Now()
		err := u.fn()
		serial = append(serial, time.Since(t0).Seconds())
		b.check(err == nil, fmt.Sprintf("serial %s: %v", u.name, err))
	}
	serialSum := sum(serial)

	// Span pass, under a CPU profile saved beside the spans.
	base := filepath.Join(b.opts.out, fmt.Sprintf("%s-seed%d", b.opts.workload, b.opts.seed))
	pf, err := os.Create(base + "-cpu.pprof")
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	sp, err := spanPass(b, in)
	pprof.StopCPUProfile()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := sp.rec.write(base + "-spans.json"); err != nil {
		return err
	}

	cp, err := capturePass(b, in.capture, sp)
	if err != nil {
		return err
	}

	mbMs, err := microbenchMs(in.platforms)
	if err != nil {
		return err
	}
	getUs, putUs, err := rescacheProbe(b.tmp, sp.keys, sp.bodies)
	if err != nil {
		return err
	}

	lt := layerTotals(sp.rec.spans)
	get := func(n string) *layerTotal {
		if t := lt[n]; t != nil {
			return t
		}
		return &layerTotal{}
	}
	runs, work, coreWork, build := get("engine.Run"), get("workloads.Work"), get("core.Work"), get("core.build")
	n := float64(max(runs.n, 1))
	p90, p90used := tail(runs.durs, 0.9)

	b.set("workloads.trace_ms", float64(work.dur)/1e6, "ms")
	b.set("workloads.trace_share", ratio(float64(work.dur), float64(runs.dur)), "ratio")
	b.set("workloads.alloc_share", ratio(float64(work.allocBytes), float64(runs.allocBytes)), "ratio")
	b.set("core.transform_ms", float64(coreWork.self+build.dur)/1e6, "ms")
	b.set("kernel.coalesce_ns_per_memop", cp.coalesceNsPerMemOp, "ns")
	b.set("kernel.txn_per_memop", cp.txnPerMemOp, "count")
	b.set("cache.l1_ns_per_access", cp.l1NsPerAccess, "ns")
	b.set("cache.l1_hit_rate", cp.l1HitRate, "ratio")
	b.set("mem.ns_per_txn", cp.memNsPerTxn, "ns")
	b.set("mem.l2_hit_rate", cp.l2HitRate, "ratio")
	b.set("mem.dram_reads", float64(cp.dramReads), "count")
	b.set("engine.run_ms_p50", median(runs.durs), "ms")
	b.set("engine.run_ms_p90", p90, "ms")
	b.set("engine.self_ms", float64(runs.self)/1e6, "ms")
	b.set("engine.ns_per_access", ratio(float64(runs.dur), float64(sp.accesses)), "ns")
	b.set("engine.alloc_mb_per_run", float64(runs.allocBytes)/n/(1<<20), "MiB")
	b.set("engine.allocs_per_run", float64(runs.allocObjs)/n, "count")
	b.set("eval.app_s_max", slices.Max(serial), "s")
	fanned := serialSum
	if in.microbenchInJob {
		fanned += mbMs * float64(len(in.platforms)) / 1e3
	}
	b.set("eval.parallel_eff", ratio(fanned, in.wall*float64(b.nproc)), "ratio")
	b.set("calib.microbench_ms", mbMs, "ms")
	b.set("rescache.get_us", getUs, "us")
	b.set("rescache.put_us", putUs, "us")
	b.set("api.encode_us", median(sp.encodeUs), "us")
	var hitRatio float64
	var diskWrites, executions, dedup, rejected uint64
	if m := in.metrics; m != nil {
		hitRatio = ratio(float64(m.Cache.Hits), float64(m.Cache.Hits+m.Cache.Misses))
		if m.DiskCache != nil {
			diskWrites = m.DiskCache.Writes
		}
		executions, dedup, rejected = m.Queue.Executions, m.Singleflight.Joined, m.Queue.Rejected
	}
	b.set("rescache.hit_ratio", hitRatio, "ratio")
	b.set("rescache.disk_writes", float64(diskWrites), "count")
	b.set("server.executions", float64(executions), "count")
	b.set("server.dedup", float64(dedup), "count")
	b.set("server.rejected", float64(rejected), "count")
	// The serial untraced units cover the same engine runs as the span
	// pass, so the difference is what recording spans costs.
	overhead := sp.wall - serialSum
	b.set("perfbench.trace_overhead_s", overhead, "s")

	b.record["untraced_wall_s"] = in.wall
	b.record["serial_units"] = len(serial)
	b.record["serial_s"] = serialSum
	b.record["traced_s"] = sp.wall
	b.record["trace_overhead_s"] = overhead
	b.record["engine_runs"] = runs.n
	b.record["engine_run_p90_percentile_used"] = p90used
	b.record["spans"] = len(sp.rec.spans)
	b.record["spans_file"] = base + "-spans.json"
	b.record["cpu_profile"] = base + "-cpu.pprof"
	b.record["capture"] = cp.record
	return nil
}

// spanOut is what the span pass measured.
type spanOut struct {
	rec      *recorder
	wall     float64
	accesses uint64 // L1 accesses over all runs
	keys     []string
	bodies   [][]byte
	encodeUs []float64
	// topMemOps maps a cell to the memory ops its outermost kernel's
	// Work calls returned: the ops the engine executed.
	topMemOps map[string]int
}

// spanPass simulates each cell serially with its app and its transform
// wrapped, recording a span per op, construction, engine run and Work
// call.
func spanPass(b *bench, in traceInput) (*spanOut, error) {
	out := &spanOut{rec: newRecorder(), topMemOps: map[string]int{}}
	rec := out.rec
	t0 := time.Now()
	for i, c := range in.cells {
		op := rec.beginOp(c.String())
		app := &wrapped{Kernel: c.app, rec: rec, name: "workloads.Work"}
		var k kernel.Kernel = app
		top := "workloads.Work"
		if c.scheme != "BSL" {
			bs := rec.begin("core.build")
			t, err := c.build(app)
			rec.end(bs)
			if err != nil {
				return nil, fmt.Errorf("span pass %s: %w", c, err)
			}
			k, top = &wrapped{Kernel: t, rec: rec, name: "core.Work"}, "core.Work"
		}
		es := rec.begin("engine.Run")
		res, err := engine.Run(c.config(), k)
		rec.end(es)
		rec.end(op)
		if err != nil {
			return nil, fmt.Errorf("span pass %s: %w", c, err)
		}
		for _, s := range rec.spans[op:] {
			if s.Name == top {
				out.topMemOps[c.String()] += s.MemOps
			}
		}
		out.accesses += res.L1.Accesses()

		e0 := time.Now()
		body, err := c.body(res)
		out.encodeUs = append(out.encodeUs, float64(time.Since(e0).Nanoseconds())/1e3)
		if err != nil {
			return nil, err
		}
		b.check(in.verify(i, res, body), "traced result differs from the untraced one: "+c.String())
		out.keys = append(out.keys, c.cacheKey())
		out.bodies = append(out.bodies, body)
	}
	out.wall = time.Since(t0).Seconds()
	return out, nil
}

// l1Access and l2Txn are the captured event fields the replays need.
type l1Access struct {
	addr   uint64
	sm     int32
	sector int8
	write  bool
	result cache.Result
}

type l2Txn struct {
	cycle int64
	addr  uint64
	sm    int32
	kind  mem.TxnKind
}

// capture is a prof.Profiler keeping the L1 and L2 streams and counting
// executed memory ops.
type capture struct {
	sectored bool
	l1       []l1Access
	l2       []l2Txn
	memOps   int
}

func (c *capture) Emit(e prof.Event) {
	switch e.Kind {
	case prof.EvCacheAccess:
		var sector int8
		if c.sectored {
			sector = int8(e.Slot & 1) // the engine's slot-parity sector mapping
		}
		c.l1 = append(c.l1, l1Access{addr: e.Addr, sm: e.SM, sector: sector, write: e.Write, result: cache.Result(e.Tag)})
	case prof.EvL2Transaction:
		c.l2 = append(c.l2, l2Txn{cycle: e.Cycle, addr: e.Addr, sm: e.SM, kind: mem.TxnKind(e.Tag)})
	case prof.EvMemOp:
		if prof.MemClass(e.Tag) != prof.MemAtomic {
			c.memOps++
		}
	}
}

func (c *capture) Snapshot(prof.Snapshot) {}
func (c *capture) SampleInterval() int64  { return 0 }

// captureOut holds the replay measurements over the capture cells.
type captureOut struct {
	coalesceNsPerMemOp float64
	txnPerMemOp        float64
	l1NsPerAccess      float64
	l1HitRate          float64
	memNsPerTxn        float64
	l2HitRate          float64
	dramReads          uint64
	record             []map[string]any
}

// capturePass simulates each capture cell under a recording profiler,
// then replays the recorded streams through the coalescer, fresh per-SM
// L1 caches and a fresh memory system, checking each replay against the
// run's own counters.
func capturePass(b *bench, cells []cell, sp *spanOut) (*captureOut, error) {
	out := &captureOut{}
	var memOps, txns, l1Acc, l1Hits, l1Reads, l2Txns, l2Hits, l2Reads uint64
	var coalesceNs, l1Ns, memNs int64
	for _, c := range cells {
		var ops []kernel.MemOp
		app := &wrapped{Kernel: c.app}
		k, err := c.build(app)
		if err != nil {
			return nil, err
		}
		cap := &capture{sectored: c.ar.L1Sectored}
		cfg := c.config()
		cfg.Profiler = cap
		res, err := engine.Run(cfg, &wrapped{Kernel: k, ops: &ops})
		if err != nil {
			return nil, fmt.Errorf("capture %s: %w", c, err)
		}

		// Coalescing: each op at the segment size its first access uses.
		var segs []uint64
		var n uint64
		t0 := time.Now()
		for _, m := range ops {
			seg := c.ar.L1Line
			if m.Bypass {
				seg = c.ar.L2Line
			}
			segs = m.AppendTransactions(segs[:0], seg)
			n += uint64(len(segs))
		}
		coalesceNs += time.Since(t0).Nanoseconds()
		memOps += uint64(len(ops))
		txns += n

		l1 := replayL1(c.ar, cap.l1)
		l1Ns += l1.ns
		l1Acc += l1.stats.Accesses()
		l1Hits += l1.stats.ReadHits
		l1Reads += l1.stats.Reads

		ms := replayMem(c.ar, cap.l2)
		memNs += ms.ns
		l2Txns += uint64(len(cap.l2))
		l2Hits += ms.l2.ReadHits
		l2Reads += ms.l2.Reads
		out.dramReads += ms.stats.DRAMReads

		name := c.String()
		b.check(l1.stats.Accesses() == res.L1.Accesses(),
			fmt.Sprintf("%s: replayed L1 accesses %d, run counted %d", name, l1.stats.Accesses(), res.L1.Accesses()))
		b.check(ms.stats.ReadTransactions == res.Mem.ReadTransactions,
			fmt.Sprintf("%s: replayed L2 reads %d, run counted %d", name, ms.stats.ReadTransactions, res.Mem.ReadTransactions))
		spanOps, inSpans := sp.topMemOps[name]
		b.check(inSpans && spanOps == len(ops) && cap.memOps == len(ops),
			fmt.Sprintf("%s: coalesced %d memops, Work spans counted %d, engine issued %d", name, len(ops), spanOps, cap.memOps))
		out.record = append(out.record, map[string]any{
			"cell": name, "memops": len(ops), "coalesced_txns": n,
			"l1_accesses": l1.stats.Accesses(), "run_l1_hit_rate": res.L1.HitRate(), "replay_l1_hit_rate": l1.stats.HitRate(),
			"l2_read_txns": ms.stats.ReadTransactions, "run_dram_reads": res.Mem.DRAMReads, "replay_dram_reads": ms.stats.DRAMReads,
		})
	}
	out.coalesceNsPerMemOp = ratio(float64(coalesceNs), float64(memOps))
	out.txnPerMemOp = ratio(float64(txns), float64(memOps))
	out.l1NsPerAccess = ratio(float64(l1Ns), float64(l1Acc))
	out.l1HitRate = ratio(float64(l1Hits), float64(l1Reads))
	out.memNsPerTxn = ratio(float64(memNs), float64(l2Txns))
	out.l2HitRate = ratio(float64(l2Hits), float64(l2Reads))
	return out, nil
}

type l1Replay struct {
	stats cache.Stats
	ns    int64
}

// replayL1 feeds the access stream into one fresh L1 per SM. The stream
// does not carry fill times, so a fill lands when the run saw a hit on
// a line the replay still has in flight.
func replayL1(ar *arch.Arch, accs []l1Access) l1Replay {
	sectors := 1
	if ar.L1Sectored {
		sectors = 2
	}
	l1s := make([]*cache.Cache, ar.SMs)
	for i := range l1s {
		l1s[i] = cache.New(cache.Config{Size: ar.L1Size, Line: ar.L1Line, Assoc: ar.L1Assoc, Sectors: sectors, Policy: cache.WriteEvict})
	}
	t0 := time.Now()
	for _, a := range accs {
		c, s := l1s[a.sm], int(a.sector)
		switch {
		case a.result == cache.Bypassed:
			c.BypassRead()
		case a.write:
			c.Write(a.addr, s)
		default:
			if a.result == cache.Hit && c.Pending(a.addr, s) {
				c.Fill(a.addr, s)
			}
			c.Read(a.addr, s)
		}
	}
	out := l1Replay{ns: time.Since(t0).Nanoseconds()}
	for _, c := range l1s {
		out.stats.Add(c.Stats())
	}
	return out
}

type memReplay struct {
	stats mem.Stats
	l2    cache.Stats
	ns    int64
}

// replayMem feeds the L2 transaction stream, one 32B transaction at its
// service cycle, into a fresh memory system.
func replayMem(ar *arch.Arch, txns []l2Txn) memReplay {
	sys := mem.New(ar)
	line := ar.L2Line
	t0 := time.Now()
	for _, t := range txns {
		switch t.kind {
		case mem.TxnRead:
			sys.Read(t.cycle, int(t.sm), t.addr, line)
		case mem.TxnWrite:
			sys.Write(t.cycle, int(t.sm), t.addr, line)
		case mem.TxnAtomic:
			sys.Atomic(t.cycle, int(t.sm), t.addr)
		}
	}
	sys.Drain()
	return memReplay{stats: sys.Stats(), l2: sys.L2Stats(), ns: time.Since(t0).Nanoseconds()}
}

// microbenchMs is the mean time of workloads.RunMicrobench per platform.
func microbenchMs(platforms []*arch.Arch) (float64, error) {
	t0 := time.Now()
	for _, ar := range platforms {
		if _, _, err := workloads.RunMicrobench(ar); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(max(len(platforms), 1)), nil
}

// rescacheProbe times rescache.Tiered Put (memory plus fsynced disk
// write) and Get (memory hit) of the recorded bodies, as ctad's cache
// would store them; it returns the median microseconds per call.
func rescacheProbe(tmp string, keys []string, bodies [][]byte) (getUs, putUs float64, err error) {
	dir, err := os.MkdirTemp(tmp, "rescache-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	disk, err := rescache.OpenDisk(dir)
	if err != nil {
		return 0, 0, err
	}
	t := rescache.NewTiered(rescache.New(0, 0), disk)
	var gets, puts []float64
	for i, k := range keys {
		t0 := time.Now()
		t.Put(k, bodies[i])
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	for i, k := range keys {
		t0 := time.Now()
		v, ok := t.Get(k)
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		if !ok || !bytes.Equal(v, bodies[i]) {
			return 0, 0, fmt.Errorf("rescache probe: entry %d did not round-trip", i)
		}
	}
	if ds := disk.Stats(); ds.WriteErrors > 0 {
		return 0, 0, fmt.Errorf("rescache probe: %d disk write errors", ds.WriteErrors)
	}
	return median(gets), median(puts), nil
}
