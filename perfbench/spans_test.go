package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a: counted once
		{Name: "leaf", Parent: 2, Start: 25, End: 45},
		{Name: "c", Parent: 0, Start: 60, End: 70},
		{Name: "d", Parent: 0, Start: 90, End: 120}, // clipped to the parent
	}
	want := []int64{100 - 40 - 10 - 10, 20, 30 - 20, 20, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	op := r.beginOp("cell")
	run := r.begin("engine.Run")
	w1 := r.begin("workloads.Work")
	r.end(w1)
	w2 := r.begin("workloads.Work")
	r.end(w2)
	r.end(run)
	r.end(op)
	next := r.beginOp("cell2")
	r.end(next)

	parents := []int{-1, op, run, run, -1}
	ops := []int{1, 1, 1, 1, 2}
	for i, s := range r.spans {
		if s.Parent != parents[i] || s.Op != ops[i] {
			t.Errorf("span %d (%s): parent %d op %d, want %d and %d", i, s.Name, s.Parent, s.Op, parents[i], ops[i])
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	lt := layerTotals(r.spans)
	if lt["workloads.Work"].n != 2 || lt["op"].n != 2 {
		t.Errorf("layer counts: %+v", lt)
	}
	self := selfTimes(r.spans)
	if want := r.spans[run].dur() - r.spans[w1].dur() - r.spans[w2].dur(); self[run] != want {
		t.Errorf("engine.Run self = %d, want %d", self[run], want)
	}
}
