package schedule

import "sync"

// Queue is a concurrent cluster queue for streaming producers:
// clustering configurations push finalized clusters as they discover
// them while a solver pool pops concurrently. Pop hands out the largest
// currently-available item (the streaming generalization of the
// paper's "synchronized, decreasing priority queue", §II-F); a FIFO
// mode preserves arrival order. core.Build does not stream — it orders
// the complete cluster list with LargestFirst and drains it with Run —
// but perfbench's traced build replay still drives this queue.
//
// All methods are safe for concurrent use by any number of producers
// and consumers.
type Queue[T any] struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	items    []queueItem[T] // largest-first heap, or FIFO backlog from head
	head     int            // FIFO read cursor (heap mode keeps it 0)
	fifo     bool
	closed   bool
	seq      int64 // total items ever pushed; also the arrival tiebreak
	maxDepth int
}

type queueItem[T any] struct {
	v    T
	size int
	seq  int64
}

// NewQueue returns an empty queue. fifo selects arrival-order delivery
// instead of largest-first.
func NewQueue[T any](fifo bool) *Queue[T] {
	q := &Queue[T]{fifo: fifo}
	q.notEmpty.L = &q.mu
	return q
}

// Push makes (v, size) available to consumers. Pushing to a closed
// queue panics: it indicates a producer outliving Close.
func (q *Queue[T]) Push(v T, size int) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		panic("schedule: Push on closed Queue")
	}
	q.items = append(q.items, queueItem[T]{v: v, size: size, seq: q.seq})
	q.seq++
	if !q.fifo {
		q.up(len(q.items) - 1)
	}
	if d := len(q.items) - q.head; d > q.maxDepth {
		q.maxDepth = d
	}
	q.mu.Unlock()
	q.notEmpty.Signal()
}

// Close marks the end of production: consumers drain the backlog, then
// Pop reports ok=false. Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
}

// Pop blocks until an item is available or the queue is closed and
// drained, in which case it returns ok=false. In the default mode the
// returned item is the largest among those currently available (ties
// broken by arrival order); in FIFO mode it is the oldest.
func (q *Queue[T]) Pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items)-q.head == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if len(q.items)-q.head == 0 {
		return v, false
	}
	if q.fifo {
		v = q.items[q.head].v
		q.items[q.head] = queueItem[T]{} // release the payload
		q.head++
		if q.head > len(q.items)/2 {
			n := copy(q.items, q.items[q.head:])
			clear(q.items[n:])
			q.items = q.items[:n]
			q.head = 0
		}
		return v, true
	}
	v = q.items[0].v
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = queueItem[T]{}
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return v, true
}

// Len returns the number of items currently waiting.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// Pushed returns the total number of items ever pushed.
func (q *Queue[T]) Pushed() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int(q.seq)
}

// MaxDepth returns the high-water mark of waiting items — how far
// production ran ahead of consumption.
func (q *Queue[T]) MaxDepth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.maxDepth
}

// before orders the heap: larger sizes first, earlier arrivals on ties
// (mirroring LargestFirst's tie-by-index determinism).
func (q *Queue[T]) before(a, b queueItem[T]) bool {
	if a.size != b.size {
		return a.size > b.size
	}
	return a.seq < b.seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.before(q.items[i], q.items[p]) {
			return
		}
		q.items[p], q.items[i] = q.items[i], q.items[p]
		i = p
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		best := i
		if c := 2*i + 1; c < n && q.before(q.items[c], q.items[best]) {
			best = c
		}
		if c := 2*i + 2; c < n && q.before(q.items[c], q.items[best]) {
			best = c
		}
		if best == i {
			return
		}
		q.items[i], q.items[best] = q.items[best], q.items[i]
		i = best
	}
}
