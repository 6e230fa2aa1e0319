package schedule

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// Property-based coverage for Queue: the example-based tests in
// queue_test.go pin individual behaviours; these generate hundreds of
// random workloads and check the invariants that a streaming build
// actually depends on — no item is ever lost or duplicated under any
// Push/Pop/Close interleaving, and delivery order follows the declared
// discipline (largest-first with arrival tiebreak, or FIFO).

// popAll drains a closed queue from one goroutine.
func popAll[T any](q *Queue[T]) []T {
	var out []T
	for {
		v, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// TestQueuePropertyLargestFirstPopsInSizeOrder: for random push
// sequences, draining afterwards must yield exactly the (size desc,
// arrival asc) order — the streaming generalization of the paper's
// decreasing priority queue, checked against a reference sort.
func TestQueuePropertyLargestFirstPopsInSizeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC2))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(120)
		type item struct{ id, size int }
		items := make([]item, n)
		q := NewQueue[int](false)
		for i := range items {
			// A narrow size range forces plenty of ties.
			items[i] = item{id: i, size: rng.Intn(8)}
			q.Push(items[i].id, items[i].size)
		}
		q.Close()
		want := append([]item(nil), items...)
		sort.SliceStable(want, func(a, b int) bool { return want[a].size > want[b].size })
		got := popAll(q)
		if len(got) != n {
			t.Fatalf("trial %d: popped %d of %d items", trial, len(got), n)
		}
		for i, id := range got {
			if id != want[i].id {
				t.Fatalf("trial %d: pop %d returned item %d (size %d), want item %d (size %d)",
					trial, i, id, items[id].size, want[i].id, want[i].size)
			}
		}
	}
}

// TestQueuePropertyFIFOOrder: in FIFO mode, any push sequence drains in
// exact arrival order.
func TestQueuePropertyFIFOOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(0xF1F0))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(120)
		q := NewQueue[int](true)
		for i := 0; i < n; i++ {
			q.Push(i, rng.Intn(1000)) // size must be irrelevant in FIFO mode
		}
		q.Close()
		got := popAll(q)
		if len(got) != n {
			t.Fatalf("trial %d: popped %d of %d items", trial, len(got), n)
		}
		for i, id := range got {
			if id != i {
				t.Fatalf("trial %d: pop %d returned item %d, want %d", trial, i, id, i)
			}
		}
	}
}

// TestQueuePropertyInterleavedPopsReturnCurrentMax: a single goroutine
// interleaves pushes and pops at random; every pop must return the
// largest (earliest on ties) of the items pushed-but-not-yet-popped,
// tracked by a reference model.
func TestQueuePropertyInterleavedPopsReturnCurrentMax(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		type item struct{ seq, size int }
		var model []item // items pushed and not yet popped
		q := NewQueue[int](false)
		pushed := 0
		for op := 0; op < 200; op++ {
			if len(model) == 0 || rng.Intn(2) == 0 {
				it := item{seq: pushed, size: rng.Intn(10)}
				q.Push(it.seq, it.size)
				model = append(model, it)
				pushed++
				continue
			}
			best := 0
			for i, it := range model {
				if it.size > model[best].size {
					best = i
				}
			}
			v, ok := q.Pop()
			if !ok {
				t.Fatalf("trial %d: Pop reported closed with %d items outstanding", trial, len(model))
			}
			if want := model[best].seq; v != want {
				t.Fatalf("trial %d op %d: Pop = item %d, want current max item %d", trial, op, v, want)
			}
			model = append(model[:best], model[best+1:]...)
		}
		if q.Len() != len(model) {
			t.Fatalf("trial %d: Len = %d, model holds %d", trial, q.Len(), len(model))
		}
		if q.Pushed() != pushed {
			t.Fatalf("trial %d: Pushed = %d, want %d", trial, q.Pushed(), pushed)
		}
		q.Close()
		if got := popAll(q); len(got) != len(model) {
			t.Fatalf("trial %d: drain returned %d items, model holds %d", trial, len(got), len(model))
		}
	}
}

// TestQueuePropertyNoLossNoDupUnderConcurrency: random producer/
// consumer/mode combinations with Close racing the consumers. Every
// pushed item must be popped exactly once, across both modes, with
// Pushed/Len/MaxDepth staying consistent.
func TestQueuePropertyNoLossNoDupUnderConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		producers := 1 + rng.Intn(4)
		consumers := 1 + rng.Intn(4)
		perProducer := rng.Intn(150)
		fifo := rng.Intn(2) == 1
		total := producers * perProducer
		q := NewQueue[int](fifo)

		var wgProd sync.WaitGroup
		for p := 0; p < producers; p++ {
			wgProd.Add(1)
			go func(p int, seed int64) {
				defer wgProd.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < perProducer; i++ {
					q.Push(p*perProducer+i, r.Intn(64))
					if r.Intn(8) == 0 {
						runtime.Gosched()
					}
				}
			}(p, rng.Int63())
		}

		results := make([][]int, consumers)
		var wgCons sync.WaitGroup
		for c := 0; c < consumers; c++ {
			wgCons.Add(1)
			go func(c int) {
				defer wgCons.Done()
				for {
					v, ok := q.Pop()
					if !ok {
						return
					}
					results[c] = append(results[c], v)
				}
			}(c)
		}

		wgProd.Wait()
		q.Close()
		wgCons.Wait()

		seen := make([]int, total)
		popped := 0
		for _, rs := range results {
			for _, v := range rs {
				if v < 0 || v >= total {
					t.Fatalf("trial %d: popped out-of-range item %d", trial, v)
				}
				seen[v]++
				popped++
			}
		}
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("trial %d (fifo=%v, %dp/%dc): item %d popped %d times, want exactly once",
					trial, fifo, producers, consumers, v, n)
			}
		}
		if popped != total {
			t.Fatalf("trial %d: popped %d of %d items", trial, popped, total)
		}
		if q.Pushed() != total {
			t.Fatalf("trial %d: Pushed = %d, want %d", trial, q.Pushed(), total)
		}
		if q.Len() != 0 {
			t.Fatalf("trial %d: Len = %d after full drain", trial, q.Len())
		}
		if d := q.MaxDepth(); d < 0 || d > total {
			t.Fatalf("trial %d: MaxDepth = %d outside [0, %d]", trial, d, total)
		}
		// Post-close pops must keep reporting done without blocking.
		if _, ok := q.Pop(); ok {
			t.Fatalf("trial %d: Pop returned an item after drain", trial)
		}
	}
}

// TestQueuePropertyCloseWakesAllBlockedConsumers: consumers block on an
// empty queue; Close must release every one of them exactly once, with
// any concurrently pushed items delivered exactly once.
func TestQueuePropertyCloseWakesAllBlockedConsumers(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		consumers := 2 + rng.Intn(6)
		late := rng.Intn(5) // items pushed while consumers are blocked
		q := NewQueue[int](rng.Intn(2) == 1)
		var wg sync.WaitGroup
		got := make(chan int, consumers*4)
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					v, ok := q.Pop()
					if !ok {
						return
					}
					got <- v
				}
			}()
		}
		runtime.Gosched()
		for i := 0; i < late; i++ {
			q.Push(i, i)
		}
		q.Close()
		wg.Wait()
		close(got)
		seen := make(map[int]int)
		for v := range got {
			seen[v]++
		}
		if len(seen) != late {
			t.Fatalf("trial %d: %d distinct items delivered, want %d", trial, len(seen), late)
		}
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("trial %d: item %d delivered %d times", trial, v, n)
			}
		}
	}
}
