package pe

import (
	"fmt"
	"sync"
	"testing"

	"sstore/internal/stream"
)

func TestSchedulerFIFOOrder(t *testing.T) {
	s := newScheduler()
	for i := 0; i < 5; i++ {
		if !s.PushBack(&task{in: stream.Batch{ID: int64(i)}}) {
			t.Fatal("push failed")
		}
	}
	for i := 0; i < 5; i++ {
		tk, ok := s.Pop()
		if !ok || tk.in.ID != int64(i) {
			t.Fatalf("pop %d = %+v, %v", i, tk, ok)
		}
	}
}

func TestSchedulerFrontPreemptsBack(t *testing.T) {
	s := newScheduler()
	s.PushBack(&task{sp: "oltp1"})
	s.PushBack(&task{sp: "oltp2"})
	// A committing TE front-pushes its triggered children; they must
	// run before the queued OLTP work, in the given order.
	s.PushFrontBatch([]*task{{sp: "child1"}, {sp: "child2"}})
	want := []string{"child1", "child2", "oltp1", "oltp2"}
	for _, w := range want {
		tk, ok := s.Pop()
		if !ok || tk.sp != w {
			t.Fatalf("pop = %v (%v), want %s", tk.sp, ok, w)
		}
	}
}

func TestSchedulerNestedFrontBatches(t *testing.T) {
	s := newScheduler()
	s.PushFrontBatch([]*task{{sp: "a"}, {sp: "b"}})
	// A second front batch (deeper trigger cascade) goes ahead of the
	// first's remainder.
	s.PushFrontBatch([]*task{{sp: "x"}})
	want := []string{"x", "a", "b"}
	for _, w := range want {
		tk, _ := s.Pop()
		if tk.sp != w {
			t.Fatalf("pop = %s, want %s", tk.sp, w)
		}
	}
}

func TestSchedulerCloseDrains(t *testing.T) {
	s := newScheduler()
	s.PushBack(&task{sp: "pending"})
	s.Close()
	if s.PushBack(&task{sp: "late"}) {
		t.Error("push after close should fail")
	}
	tk, ok := s.Pop()
	if !ok || tk.sp != "pending" {
		t.Fatalf("queued task lost on close: %+v, %v", tk, ok)
	}
	if _, ok := s.Pop(); ok {
		t.Error("pop after drain should report closed")
	}
}

func TestSchedulerConcurrentProducers(t *testing.T) {
	s := newScheduler()
	const producers, each = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.PushBack(&task{})
			}
		}()
	}
	got := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := s.Pop(); !ok {
				return
			}
			got++
		}
	}()
	wg.Wait()
	s.Close()
	<-done
	if got != producers*each {
		t.Errorf("consumed %d, want %d", got, producers*each)
	}
}

func TestSchedulerLen(t *testing.T) {
	s := newScheduler()
	if s.Len() != 0 {
		t.Error("fresh scheduler not empty")
	}
	s.PushBack(&task{})
	s.PushFrontBatch([]*task{{}, {}})
	if s.Len() != 3 {
		t.Errorf("len = %d", s.Len())
	}
}

// TestDequeWrapAround exercises the ring buffer across many
// grow/shrink cycles so head wraps past the capacity boundary in both
// directions.
func TestDequeWrapAround(t *testing.T) {
	var d deque
	next := int64(0)
	expect := int64(0)
	for cycle := 0; cycle < 50; cycle++ {
		for i := 0; i < 7; i++ {
			d.pushBack(&task{in: stream.Batch{ID: next}})
			next++
		}
		for i := 0; i < 5; i++ {
			got := d.popFront()
			if got.in.ID != expect {
				t.Fatalf("cycle %d: popped %d, want %d", cycle, got.in.ID, expect)
			}
			expect++
		}
	}
	for d.len() > 0 {
		got := d.popFront()
		if got.in.ID != expect {
			t.Fatalf("drain: popped %d, want %d", got.in.ID, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d items, want %d", expect, next)
	}
}

// TestDequePushFrontOrder pins pushFront semantics under wrap: fronts
// come back LIFO relative to each other, before any back item.
func TestDequePushFrontOrder(t *testing.T) {
	var d deque
	d.pushBack(&task{sp: "back"})
	for i := 0; i < 20; i++ { // force several grows
		d.pushFront(&task{in: stream.Batch{ID: int64(i)}})
	}
	for i := 19; i >= 0; i-- {
		if got := d.popFront(); got.in.ID != int64(i) {
			t.Fatalf("popped %d, want %d", got.in.ID, i)
		}
	}
	if got := d.popFront(); got.sp != "back" {
		t.Fatalf("popped %q, want back", got.sp)
	}
}

// TestSchedulerForEachQueuedOrder pins the visit order the checkpoint
// barrier relies on: front queue first, both in pop order — across
// ring wrap.
func TestSchedulerForEachQueuedOrder(t *testing.T) {
	s := newScheduler()
	for i := 0; i < 3; i++ {
		s.PushBack(&task{in: stream.Batch{ID: int64(100 + i)}})
	}
	s.Pop() // move head so the ring has wrapped state
	s.PushBack(&task{in: stream.Batch{ID: 103}})
	s.PushFrontBatch([]*task{{in: stream.Batch{ID: 1}}, {in: stream.Batch{ID: 2}}})
	var got []int64
	s.ForEachQueued(func(t *task) { got = append(got, t.in.ID) })
	want := []int64{1, 2, 101, 102, 103}
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v", got, want)
		}
	}
}

// TestSchedulerBoundedPush pins the border bound: full-queue
// rejections report full (not closed), interior pushes ignore the
// bound, and a drained queue admits again.
func TestSchedulerBoundedPush(t *testing.T) {
	s := newScheduler()
	s.bound = 2
	for i := 0; i < 2; i++ {
		if ok, full, _ := s.PushBackBounded(&task{}); !ok || full {
			t.Fatalf("push %d rejected below bound", i)
		}
	}
	ok, full, depth := s.PushBackBounded(&task{})
	if ok || !full || depth != 2 {
		t.Fatalf("push at bound: ok=%v full=%v depth=%d, want rejection at depth 2", ok, full, depth)
	}
	// Interior pushes are exempt.
	if !s.PushBack(&task{}) {
		t.Fatal("unbounded PushBack rejected")
	}
	if !s.PushBackBatch([]*task{{}, {}}) {
		t.Fatal("PushBackBatch rejected")
	}
	s.PushFrontBatch([]*task{{}})
	if s.Len() != 6 {
		t.Fatalf("len = %d, want 6", s.Len())
	}
	for i := 0; i < 5; i++ {
		s.Pop()
	}
	if ok, full, _ := s.PushBackBounded(&task{}); !ok || full {
		t.Fatal("drained queue still rejects border pushes")
	}
	s.Close()
	if ok, full, _ := s.PushBackBounded(&task{}); ok || full {
		t.Fatal("closed scheduler should reject as closed, not full")
	}
}

// BenchmarkPushFrontBatchDeepQueue is the satellite-2 fix's receipt:
// a committing TE front-pushes its triggered children while the back
// queue is deep. With the old slice pair every push re-allocated and
// copied the whole front queue — O(depth); the ring deque makes it
// O(children).
func BenchmarkPushFrontBatchDeepQueue(b *testing.B) {
	for _, depth := range []int{16, 1024, 65536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := newScheduler()
			for i := 0; i < depth; i++ {
				s.PushBack(&task{})
			}
			children := []*task{{}, {}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.PushFrontBatch(children)
				s.Pop()
				s.Pop()
			}
		})
	}
}
