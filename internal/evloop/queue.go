package evloop

import (
	"sync"
	"time"
)

// keepCap is the largest backlog slice GetAll keeps for reuse, in items: a
// burst must not pin its high-water mark for the life of the queue.
const keepCap = 4096

// Queue is an unbounded FIFO. Unboundedness matters: protocol handlers send
// while handling, so a bounded inbox could deadlock two processes sending
// to each other under backpressure.
//
// Any number of goroutines may Put. Get and GetAll are for one consumer at
// a time: each Put posts at most one wake-up, so of several blocked consumers
// only one is sure to see it before the next Put or its own deadline. TryGet
// never blocks, so it has no such limit; the wake-up it leaves unread costs
// the next blocking call one extra look at the queue.
type Queue[T any] struct {
	mu     sync.Mutex
	items  []T
	signal chan struct{}
	closed bool
}

// NewQueue returns an empty open queue.
func NewQueue[T any]() *Queue[T] {
	return &Queue[T]{signal: make(chan struct{}, 1)}
}

// Put enqueues v; after Close or Discard it is a quiet no-op.
func (q *Queue[T]) Put(v T) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, v)
	q.mu.Unlock()
	q.wake()
}

// Get dequeues the next item, blocking until one is available, the queue
// is closed and drained, or deadline fires (a nil deadline never does). It
// reports false in the last two cases.
func (q *Queue[T]) Get(deadline <-chan time.Time) (T, bool) {
	if !q.await(deadline) {
		var zero T
		return zero, false
	}
	return q.pop(), true
}

// TryGet is Get for a consumer that will not wait: it dequeues the next
// item if one is queued and reports false otherwise — open or closed, so a
// closed queue's backlog stays readable through it too.
func (q *Queue[T]) TryGet() (T, bool) {
	q.mu.Lock()
	if len(q.items) == 0 {
		q.mu.Unlock()
		var zero T
		return zero, false
	}
	return q.pop(), true
}

// pop dequeues the head of a non-empty queue and releases q.mu, which the
// caller holds.
func (q *Queue[T]) pop() T {
	var zero T
	v := q.items[0]
	q.items[0] = zero
	q.items = q.items[1:]
	q.mu.Unlock()
	return v
}

// GetAll is Get for a consumer that pays one lock and one wake-up per
// backlog rather than per item: it returns everything queued, in order, and
// parks buf — the slice the previous call returned, which the consumer is
// done with — as the next backlog, so that two slices swap for good.
func (q *Queue[T]) GetAll(buf []T, deadline <-chan time.Time) ([]T, bool) {
	if cap(buf) > keepCap {
		buf = nil
	}
	clear(buf) // drop the consumed items' references before they are parked
	if !q.await(deadline) {
		return nil, false
	}
	batch := q.items
	q.items = buf[:0]
	q.mu.Unlock()
	return batch, true
}

// await blocks until an item is queued and returns true holding q.mu, or
// false, unlocked, when the queue is closed and drained or deadline fired.
func (q *Queue[T]) await(deadline <-chan time.Time) bool {
	for {
		q.mu.Lock()
		if len(q.items) > 0 {
			return true
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			q.wake() // pass the close on to any other blocked consumer
			return false
		}
		select {
		case <-q.signal:
		case <-deadline:
			return false
		}
	}
}

// Close rejects later Puts. What is already queued stays readable; Get
// reports false once it is drained.
func (q *Queue[T]) Close() { q.shut(false) }

// Discard is Close for a consumer that must stop now rather than after the
// backlog: it also drops what is queued.
func (q *Queue[T]) Discard() { q.shut(true) }

func (q *Queue[T]) shut(discard bool) {
	q.mu.Lock()
	q.closed = true
	if discard {
		q.items = nil
	}
	q.mu.Unlock()
	q.wake()
}

func (q *Queue[T]) wake() {
	select {
	case q.signal <- struct{}{}:
	default:
	}
}
