GO ?= go

.PHONY: build test race fuzz bench bench-smoke bench-alloc vet prof prof-golden server fleet-smoke swizzle-smoke chiplet-smoke calib-smoke cover docs-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build
	$(GO) test ./...

# The race gate the CI enforces: vet plus the full suite under the race
# detector. The expensive determinism sweeps shrink themselves to a
# representative app subset when they detect race instrumentation (see
# internal/eval/race_test.go), so this stays tractable.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# Short fuzz smoke of the partition bijection, the swizzle bijectivity,
# the sharded-engine quantum equivalence, the event-queue pop order,
# the disk-cache entry codec and the coalescer against its
# sort-and-compact reference; CI runs these bounded, `make fuzz
# FUZZTIME=10m` digs deeper locally. (go test accepts one -fuzz pattern
# per run, so each target is its own invocation.)
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzPartitionRoundTrip -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzSwizzleBijective -fuzztime=$(FUZZTIME) ./internal/swizzle
	$(GO) test -run='^$$' -fuzz=FuzzEpochQuantum -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzEventQueueOrder -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzDiskCacheEntry -fuzztime=$(FUZZTIME) ./internal/rescache
	$(GO) test -run='^$$' -fuzz=FuzzDieBlockBijective -fuzztime=$(FUZZTIME) ./internal/swizzle
	$(GO) test -run='^$$' -fuzz=FuzzCalibReference -fuzztime=$(FUZZTIME) ./internal/calib
	$(GO) test -run='^$$' -fuzz=FuzzAppendTransactions -fuzztime=$(FUZZTIME) ./internal/kernel

bench:
	$(GO) test -bench=. -benchmem ./...

# The scaling-benchmark gate the CI enforces: one iteration of every
# cores=1 BenchmarkRunSharded cell (shards x epoch quantum) under the
# race detector, so the windowed coordinator, the provisional-seq merge
# and the token path are exercised on every PR even when no test sweep
# happens to hit a given (shards, quantum) combination. cores=1 only:
# the cores=4 cells exist to measure real parallel hardware, and on an
# oversubscribed CI runner their spin-waits make race timings useless
# at added minutes of cost. Timings from this target are meaningless
# anyway (race overhead); BENCH_shard.json records the real curve
# measured without instrumentation.
bench-smoke:
	$(GO) test -race -run='^$$' -bench='BenchmarkRunSharded/cores=1' -benchtime=1x ./internal/engine

# The allocation gate the CI enforces: the pinned allocation budget
# table (alloc_ext_test.go — every cell within 5% of the post-diet
# measurement), the zero-alloc queue and coalescing contracts, and a
# short allocation-reporting pass of the scaling benchmark for the
# log. Uninstrumented on purpose: race builds change allocation counts,
# so this gate is the one place the CI runs the engine without -race.
# Pipe two runs through `benchstat` locally if you want significance
# on the ns/op column; the alloc columns are deterministic.
bench-alloc:
	$(GO) test -run='TestAllocationBudgets|TestEventQueueSchedulePopZeroAlloc|TestAppendTransactionsZeroAlloc|TestAnalyzerZeroAlloc|TestAnalyzerAllocationBudgets' -count=1 -v ./internal/engine ./internal/kernel ./internal/swizzle | grep -v '^=== RUN'
	$(GO) test -run='^$$' -bench='BenchmarkRunSharded/cores=1/shards=1' -benchtime=3x -benchmem ./internal/engine

# The daemon gate the CI enforces: the ctad end-to-end suite (cold/warm
# byte-identity, 16-way request dedup, client-disconnect cancellation,
# queue shedding) plus the result-cache/key units and the
# engine/eval cancellation tests, all under the race detector.
server:
	$(GO) test -race ./internal/server/... ./internal/rescache ./internal/api
	$(GO) test -race -run 'Cancel|Deadline|Context' ./internal/engine ./internal/eval

# The fleet gate the CI enforces: the distributed-sweep determinism
# suite (3 backends with one failing mid-sweep and one dead, merged
# bytes identical to serial `evaluate -json`), the disk-cache
# crash/corruption recovery scenarios, and the daemon restart
# persistence e2e, all under the race detector.
fleet-smoke:
	$(GO) test -race ./internal/fleet ./internal/rescache ./internal/cli
	$(GO) test -race -run 'DiskCache' ./internal/server

# The swizzle gate the CI enforces: the transform-family unit wall
# (conservation, fuzz-seeded bijectivity, analyzer goldens, zero-alloc
# contract), the swizzled serial≡sharded byte-identity sweep, and a
# 2-app x 2-arch three-way clustering-vs-swizzling-vs-both comparison
# smoke through the real evaluate binary, all under the race detector.
swizzle-smoke:
	$(GO) test -race ./internal/swizzle ./internal/eval -run 'Swizzle'
	$(GO) run -race ./cmd/evaluate -swizzle-compare -apps MM,SGM -arch TeslaK40 -quick > /dev/null
	$(GO) run -race ./cmd/evaluate -swizzle-compare -apps MM,SGM -arch GTX980 -quick -json > /dev/null

# The chiplet gate the CI enforces: the monolithic-equivalence matrix
# (Chiplets=0 byte-identical to the seed descriptor at shards 1/2/4/7),
# the die-aware swizzle and slice/interposer unit walls, and a real
# 2-die clustering-vs-dieblock comparison smoke through the evaluate
# binary, all under the race detector.
chiplet-smoke:
	$(GO) test -race -run 'Chiplet|DieBlock|DieOf' ./internal/arch ./internal/mem ./internal/swizzle ./internal/engine
	$(GO) run -race ./cmd/evaluate -chiplet 2 -chiplet-compare -apps MM,NW -arch TeslaK40 > /dev/null
	$(GO) run -race ./cmd/evaluate -chiplet 2 -chiplet-compare -apps MM -arch GTX980 -json > /dev/null

# The calibration gate the CI enforces: the calib package wall (codec
# canonical-form goldens, fitter determinism and recovery, fitted-arch
# shard/quantum byte-identity) under the race detector, a fit smoke
# through the real ctacalib binary, a serial-vs-parallel/sharded
# byte-identity check of the rendered report, and a byte-exact
# regeneration of the committed BENCH_calib.json accuracy ledger (the
# file is dateless on purpose so cmp can gate it).
calib-smoke:
	$(GO) test -race ./internal/calib
	$(GO) run -race ./cmd/ctacalib fit -arch TeslaK40 > /dev/null
	$(GO) run ./cmd/ctacalib report -arch GTX570 -apps MM,SGM,NW -parallel 1 > /tmp/ctacalib-serial.txt
	$(GO) run ./cmd/ctacalib report -arch GTX570 -apps MM,SGM,NW -parallel 4 -shards 2 -quantum 1 > /tmp/ctacalib-knobs.txt
	cmp /tmp/ctacalib-serial.txt /tmp/ctacalib-knobs.txt
	$(GO) run ./cmd/ctacalib report -json > /tmp/ctacalib-bench.json
	cmp /tmp/ctacalib-bench.json BENCH_calib.json

# The coverage gate the CI enforces: per-package statement coverage from
# the full suite, with a hard 70% floor on internal/calib (the accuracy
# ledger; a coverage hole there un-pins BENCH numbers silently) and
# report-only visibility everywhere else (tools/covercheck).
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./tools/covercheck -profile cover.out

# The docs gate the CI enforces: every internal/* and cmd/* package must
# carry a package-level doc comment, and every flag that README.md or
# EXPERIMENTS.md passes to one of this repo's commands must actually be
# registered by that command (tools/docscheck).
docs-check:
	$(GO) run ./tools/docscheck

# Regenerate the profiling exporter goldens (internal/prof/testdata)
# after a deliberate format or simulation change; review the diff before
# committing.
prof:
	$(GO) test -run 'Golden' -update ./internal/prof

# The profiling gate the CI enforces: exporter goldens, snapshot
# conservation and the serial-vs-parallel profile determinism sweep,
# all under the race detector.
prof-golden:
	$(GO) test -race -run 'Golden|Snapshot|Profile' ./internal/prof ./internal/eval
