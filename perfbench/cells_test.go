package main

import (
	"bytes"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/workloads"
)

type resetCounter struct {
	kernel.Kernel
	resets int
}

func (r *resetCounter) Reset() { r.resets++ }

func TestWrappedForwardsReset(t *testing.T) {
	app, err := workloads.New("NW")
	if err != nil {
		t.Fatal(err)
	}
	inner := &resetCounter{Kernel: app}
	w := &wrapped{Kernel: inner}
	w.Reset()
	if inner.resets != 1 {
		t.Fatalf("Reset reached the wrapped kernel %d times, want 1", inner.resets)
	}
	if w.Name() != app.Name() {
		t.Fatalf("Name() = %q, want %q", w.Name(), app.Name())
	}
	if refs := (&wrapped{Kernel: app}).ArrayRefs(); len(refs) == 0 || len(refs) != len(app.ArrayRefs()) {
		t.Fatal("ArrayRefs not forwarded")
	}
}

// An agent kernel on Maxwell binds agents through per-SM counters that
// only Reset clears, so reusing it across runs shows whether the
// wrapper forwards Reset; the results must equal an unwrapped run's.
func TestWrappedLeavesResultsUnchanged(t *testing.T) {
	ar := arch.GTX980()
	app, err := workloads.New("NW")
	if err != nil {
		t.Fatal(err)
	}
	c := cell{ar: ar, app: app, scheme: "CLU", agents: 2}
	want, err := c.run()
	if err != nil {
		t.Fatal(err)
	}
	wantBody, err := c.body(want)
	if err != nil {
		t.Fatal(err)
	}

	rec := newRecorder()
	var ops []kernel.MemOp
	k, err := c.build(&wrapped{Kernel: app, rec: rec, name: "workloads.Work"})
	if err != nil {
		t.Fatal(err)
	}
	top := &wrapped{Kernel: k, rec: rec, name: "core.Work", ops: &ops}
	for run := 0; run < 2; run++ {
		ops = ops[:0]
		res, err := engine.Run(c.config(), top)
		if err != nil {
			t.Fatal(err)
		}
		body, err := c.body(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, wantBody) {
			t.Fatalf("run %d through the wrapper differs from the unwrapped run", run)
		}
	}
	memOps := 0
	for _, s := range rec.spans {
		if s.Name == "core.Work" {
			memOps += s.MemOps
		}
	}
	if memOps != 2*len(ops) || len(ops) == 0 {
		t.Errorf("Work spans counted %d memops over two runs, the last run collected %d", memOps, len(ops))
	}

	// Control: without Reset the reused kernel's second run differs, so
	// the comparison above can see a wrapper that drops it.
	bare, err := c.build(app)
	if err != nil {
		t.Fatal(err)
	}
	noReset := struct{ kernel.Kernel }{bare}
	if _, err := engine.Run(c.config(), noReset); err != nil {
		t.Fatal(err)
	}
	again, err := engine.Run(c.config(), noReset)
	if err == nil && again.Cycles == want.Cycles {
		t.Error("control: a kernel reused without Reset reproduced the result")
	}
}
