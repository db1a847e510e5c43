package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Times are nanoseconds since the recorder started; Parent is the index
// of the enclosing span (-1 for an op's root) and Op numbers the
// operation (cell or request) the span belongs to.
type span struct {
	Name       string `json:"name"`
	Op         int    `json:"op"`
	Parent     int    `json:"parent"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	MemOps     int    `json:"memops,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	AllocObjs  uint64 `json:"alloc_objects,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is used from
// one goroutine: the span pass is serial, so per-span allocation deltas
// read from runtime/metrics belong to that span alone.
type recorder struct {
	epoch   time.Time
	spans   []span
	stack   []int
	op      int
	opNames []string
	samples []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{
		epoch: time.Now(),
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
		},
	}
}

func (r *recorder) allocs() (bytes, objs uint64) {
	metrics.Read(r.samples)
	return r.samples[0].Value.Uint64(), r.samples[1].Value.Uint64()
}

// beginOp starts the root span, named "op", of a new operation.
func (r *recorder) beginOp(name string) int {
	r.op++
	r.opNames = append(r.opNames, name)
	return r.begin("op")
}

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	b, o := r.allocs()
	r.spans = append(r.spans, span{
		Name: name, Op: r.op, Parent: parent,
		AllocBytes: b, AllocObjs: o,
		Start: time.Since(r.epoch).Nanoseconds(),
	})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (r *recorder) end(id int) {
	end := time.Since(r.epoch).Nanoseconds()
	b, o := r.allocs()
	s := &r.spans[id]
	s.End = end
	s.AllocBytes = b - s.AllocBytes
	s.AllocObjs = o - s.AllocObjs
	r.stack = r.stack[:len(r.stack)-1]
}

// write saves the spans as JSON, with the name of operation i+1 at
// ops[i].
func (r *recorder) write(path string) error {
	b, err := json.Marshal(map[string]any{"ops": r.opNames, "spans": r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Overlapping children count once, and
// a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
			}
			reach = max(reach, v.hi)
		}
		out[i] = s.dur() - covered
	}
	return out
}

// layerTotal sums one span name's durations, self times and
// allocations.
type layerTotal struct {
	n          int
	dur, self  int64
	allocBytes uint64
	allocObjs  uint64
	durs       []float64 // milliseconds, one per span
}

// layerTotals groups spans by name.
func layerTotals(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := map[string]*layerTotal{}
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &layerTotal{}
			out[s.Name] = t
		}
		t.n++
		t.dur += s.dur()
		t.self += self[i]
		t.allocBytes += s.AllocBytes
		t.allocObjs += s.AllocObjs
		t.durs = append(t.durs, float64(s.dur())/1e6)
	}
	return out
}
