package schedule

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestQueueLargestFirstWhenPrefilled(t *testing.T) {
	q := NewQueue[int](false)
	sizes := []int{3, 9, 1, 9, 5}
	for i, s := range sizes {
		q.Push(i, s)
	}
	q.Close()
	want := []int{1, 3, 4, 0, 2} // 9(first pushed), 9, 5, 3, 1
	for _, w := range want {
		v, ok := q.Pop()
		if !ok || v != w {
			t.Fatalf("Pop = (%d, %v), want (%d, true)", v, ok, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on drained closed queue must report ok=false")
	}
}

func TestQueueFIFOMode(t *testing.T) {
	q := NewQueue[int](true)
	for i := 0; i < 10; i++ {
		q.Push(i, 10-i) // sizes decreasing: FIFO must ignore them
	}
	q.Close()
	for i := 0; i < 10; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("FIFO Pop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
}

func TestQueuePrioritizesAmongAvailable(t *testing.T) {
	// A small item pushed first is popped only after a larger one that
	// arrived before the consumer looked.
	q := NewQueue[string](false)
	q.Push("small", 1)
	q.Push("large", 100)
	v, _ := q.Pop()
	if v != "large" {
		t.Errorf("Pop = %q, want the larger available item", v)
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	q := NewQueue[int](false)
	got := make(chan int)
	go func() {
		v, ok := q.Pop()
		if !ok {
			t.Error("Pop returned ok=false before Close")
		}
		got <- v
	}()
	time.Sleep(5 * time.Millisecond) // let the consumer block
	q.Push(42, 1)
	select {
	case v := <-got:
		if v != 42 {
			t.Errorf("Pop = %d, want 42", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop did not wake on Push")
	}
	q.Close()
}

// TestQueueCloseWhilePop: consumers blocked inside Pop must all wake and
// report ok=false once the queue closes empty.
func TestQueueCloseWhilePop(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		q := NewQueue[int](fifo)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, ok := q.Pop(); ok {
					t.Error("Pop returned an item from an empty closed queue")
				}
			}()
		}
		time.Sleep(5 * time.Millisecond) // let consumers block
		q.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("consumers did not wake on Close")
		}
	}
}

// TestQueueConcurrentProducersConsumers is the streaming shape under
// -race: several producers stream items while consumers drain, Close
// fires after the last push, and every item is delivered exactly once.
func TestQueueConcurrentProducersConsumers(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		const producers, consumers, perProducer = 4, 6, 500
		q := NewQueue[int](fifo)
		var prodWG sync.WaitGroup
		for p := 0; p < producers; p++ {
			prodWG.Add(1)
			go func(p int) {
				defer prodWG.Done()
				for i := 0; i < perProducer; i++ {
					id := p*perProducer + i
					q.Push(id, id%97)
				}
			}(p)
		}
		go func() { prodWG.Wait(); q.Close() }()

		seen := make([]atomic.Int32, producers*perProducer)
		var consWG sync.WaitGroup
		for c := 0; c < consumers; c++ {
			consWG.Add(1)
			go func() {
				defer consWG.Done()
				for {
					v, ok := q.Pop()
					if !ok {
						return
					}
					seen[v].Add(1)
				}
			}()
		}
		consWG.Wait()
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Fatalf("fifo=%v: item %d delivered %d times", fifo, i, n)
			}
		}
		if q.Pushed() != producers*perProducer {
			t.Errorf("Pushed = %d, want %d", q.Pushed(), producers*perProducer)
		}
		if q.MaxDepth() < 1 || q.MaxDepth() > producers*perProducer {
			t.Errorf("MaxDepth = %d out of range", q.MaxDepth())
		}
		if q.Len() != 0 {
			t.Errorf("Len = %d after drain, want 0", q.Len())
		}
	}
}

func TestQueuePushAfterClosePanics(t *testing.T) {
	q := NewQueue[int](false)
	q.Close()
	defer func() {
		if recover() == nil {
			t.Error("Push after Close should panic")
		}
	}()
	q.Push(1, 1)
}
