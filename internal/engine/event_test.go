package engine

// Unit wall for the event queue itself (event.go): the zero-allocation
// contract of the steady-state schedule/pop pair, a fuzz target that
// drives randomized legal schedule sequences against a sort-based
// reference model, and a microbenchmark of the schedule/pop pair.

import "testing"

// TestEventQueueSchedulePopZeroAlloc pins the queue's core claim: once
// the bucket ring and far heap have grown to their steady-state
// capacities, a schedule/pop pair allocates nothing (no event is boxed).
func TestEventQueueSchedulePopZeroAlloc(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		s := newScheduler()
		w := &warpState{}
		var now int64
		// Warm to steady state: mixed near/far deltas grow every bucket
		// and the far heap past what the measured loop needs.
		for i := 0; i < 4096; i++ {
			s.schedule(now+1+int64(i%300), w)
			if i%2 == 0 {
				e, _ := s.next()
				now = e.at
			}
		}
		for !s.empty() {
			e, _ := s.next()
			now = e.at
		}
		i := int64(0)
		n := testing.AllocsPerRun(1000, func() {
			// The same near/far delta mix as the warmup, so the pair
			// exercises bucket appends, far pushes and rebases.
			s.schedule(now+1+i%300, w)
			e, _ := s.next()
			now = e.at
			i++
		})
		if n != 0 {
			t.Errorf("steady-state schedule/pop pair allocates %.1f times, want 0", n)
		}
	})
}

// FuzzEventQueueOrder drives the scheduler with randomized legal
// schedule sequences — no push before the last pop's cycle,
// sequence numbers monotone in push order, hostile cycle deltas that
// straddle the bucket horizon — interleaved with pops, and
// checks every pop against a sort-based reference model. The per-bucket
// seq-sortedness argument in event.go is what this target keeps honest.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 1, 4, 10, 0, 200, 6, 0, 1, 3, 6, 0, 6, 0})
	f.Add([]byte{2, 255, 2, 254, 6, 1, 0, 1, 5, 9, 6, 2, 7, 7})
	f.Add([]byte{0, 10, 0, 200, 6, 0, 0, 1, 6, 0, 4, 3, 6, 0, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newScheduler()
		var model []event
		w := &warpState{}
		var now int64 // cycle of the last pop: the legality floor
		checkPop := func() {
			got, ok := s.next()
			if len(model) == 0 {
				if ok {
					t.Fatalf("queue popped (%d,%d) but the model is empty", got.at, got.seq)
				}
				return
			}
			if !ok {
				t.Fatalf("queue empty but the model holds %d events", len(model))
			}
			min := 0
			for i := 1; i < len(model); i++ {
				if model[i].at < model[min].at ||
					(model[i].at == model[min].at && model[i].seq < model[min].seq) {
					min = i
				}
			}
			want := model[min]
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("pop order diverges: got (%d,%d), want (%d,%d)", got.at, got.seq, want.at, want.seq)
			}
			model = append(model[:min], model[min+1:]...)
			now = got.at
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 8 {
			case 0: // near push: inside the bucket span
				s.schedule(now+1+int64(arg), w)
				model = append(model, event{at: now + 1 + int64(arg), seq: s.seq})
			case 1: // near push that may land on the last pop's cycle
				s.schedule(now+int64(arg%4), w)
				model = append(model, event{at: now + int64(arg%4), seq: s.seq})
			case 2, 3: // far push: usually past the horizon
				at := now + 1 + int64(arg)*37
				s.schedule(at, w)
				model = append(model, event{at: at, seq: s.seq})
			case 4: // horizon-straddling push
				at := now + int64(bucketCount) - 4 + int64(arg%9)
				s.schedule(at, w)
				model = append(model, event{at: at, seq: s.seq})
			default: // pop
				checkPop()
			}
		}
		for len(model) > 0 {
			checkPop()
		}
		if !s.empty() {
			t.Fatal("model drained but the queue reports non-empty")
		}
	})
}

// BenchmarkEventQueuePair measures the steady-state schedule/pop pair;
// the calendar queue's O(1) fast path is the half of the allocation
// diet that is pure speed rather than GC relief.
func BenchmarkEventQueuePair(b *testing.B) {
	s := newScheduler()
	w := &warpState{}
	var now int64
	for i := 0; i < 1024; i++ {
		s.schedule(now+1+int64(i%300), w)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.schedule(now+1+int64(i%300), w)
		e, _ := s.next()
		now = e.at
	}
}
