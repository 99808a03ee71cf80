package evloop

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 10; i++ {
		q.Put(i)
	}
	for i := 0; i < 10; i++ {
		if v, ok := q.Get(nil); !ok || v != i {
			t.Fatalf("get %d = %d, %v", i, v, ok)
		}
	}
}

// TestQueueGetAll: one call takes the whole backlog in order, the slice
// handed back is reused for later Puts, and shutdown reads as with Get.
func TestQueueGetAll(t *testing.T) {
	q := NewQueue[*int]()
	vals := []int{0, 1, 2, 3, 4}
	for i := range vals[:3] {
		q.Put(&vals[i])
	}
	first, ok := q.GetAll(nil, nil)
	if !ok || len(first) != 3 || *first[0] != 0 || *first[2] != 2 {
		t.Fatalf("first batch = %v, %v", first, ok)
	}
	q.Put(&vals[3])
	second, ok := q.GetAll(nil, nil)
	if !ok || len(second) != 1 || *second[0] != 3 {
		t.Fatalf("second batch = %v, %v", second, ok)
	}
	// Handing the first batch back parks it, cleared, as the next backlog.
	q.Put(&vals[4])
	third, ok := q.GetAll(first, nil)
	if !ok || len(third) != 1 || *third[0] != 4 {
		t.Fatalf("third batch = %v, %v", third, ok)
	}
	if first[0] != nil || first[2] != nil {
		t.Fatal("returned batch still references its items")
	}
	q.Put(&vals[0])
	if &first[0] != &q.items[0] {
		t.Fatal("returned batch was not reused for the backlog")
	}
	// A burst does not pin its high-water mark.
	big := make([]*int, keepCap+1)
	q.GetAll(big, nil)
	if cap(q.items) > keepCap {
		t.Fatalf("kept a spare of %d items", cap(q.items))
	}

	expired := make(chan time.Time)
	close(expired)
	if batch, ok := q.GetAll(nil, expired); ok {
		t.Fatalf("poll of an empty queue returned %v", batch)
	}
	q.Put(&vals[1])
	q.Close()
	if batch, ok := q.GetAll(nil, nil); !ok || len(batch) != 1 {
		t.Fatalf("closed queue lost its backlog: %v, %v", batch, ok)
	}
	if batch, ok := q.GetAll(nil, nil); ok {
		t.Fatalf("closed, drained queue returned %v", batch)
	}
}

// blockedGet starts a Get on its own goroutine and checks that it does not
// return before the caller acts.
func blockedGet(t *testing.T, q *Queue[int], deadline <-chan time.Time) <-chan int {
	t.Helper()
	done := make(chan int, 1)
	go func() {
		v, ok := q.Get(deadline)
		if !ok {
			v = -1
		}
		done <- v
	}()
	select {
	case v := <-done:
		t.Fatalf("get returned %d from an empty open queue", v)
	case <-time.After(20 * time.Millisecond):
	}
	return done
}

func wantGet(t *testing.T, done <-chan int, want int) {
	t.Helper()
	select {
	case v := <-done:
		if v != want {
			t.Fatalf("blocked get returned %d, want %d (-1 = not ok)", v, want)
		}
	case <-time.After(time.Second):
		t.Fatal("get stayed blocked")
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	q := NewQueue[int]()
	done := blockedGet(t, q, nil)
	q.Put(7)
	wantGet(t, done, 7)
}

func TestQueueGetUnblocksOnCloseAndDiscard(t *testing.T) {
	for name, shut := range map[string]func(*Queue[int]){"close": (*Queue[int]).Close, "discard": (*Queue[int]).Discard} {
		t.Run(name, func(t *testing.T) {
			q := NewQueue[int]()
			a, b := blockedGet(t, q, nil), blockedGet(t, q, nil)
			shut(q)
			wantGet(t, a, -1) // one shutdown wakes every blocked consumer
			wantGet(t, b, -1)
		})
	}
}

func TestQueueGetDeadline(t *testing.T) {
	q := NewQueue[int]()
	timer := time.NewTimer(40 * time.Millisecond)
	defer timer.Stop()
	done := blockedGet(t, q, timer.C)
	wantGet(t, done, -1)

	// An expired deadline still hands out what is queued: Get polls.
	q.Put(3)
	expired := make(chan time.Time)
	close(expired)
	if v, ok := q.Get(expired); !ok || v != 3 {
		t.Fatalf("poll of a non-empty queue = %d, %v", v, ok)
	}
	if _, ok := q.Get(expired); ok {
		t.Fatal("poll of an empty queue returned an item")
	}
}

func TestQueueCloseKeepsBacklogDiscardDropsIt(t *testing.T) {
	q := NewQueue[int]()
	q.Put(1)
	q.Put(2)
	q.Close()
	q.Close() // idempotent
	q.Put(3)  // rejected
	for want := 1; want <= 2; want++ {
		if v, ok := q.Get(nil); !ok || v != want {
			t.Fatalf("after Close: get = %d, %v, want %d", v, ok, want)
		}
	}
	if v, ok := q.Get(nil); ok {
		t.Fatalf("closed queue accepted %d", v)
	}

	q = NewQueue[int]()
	q.Put(1)
	q.Discard()
	q.Put(2) // rejected
	if v, ok := q.Get(nil); ok {
		t.Fatalf("after Discard: get = %d", v)
	}
}

// TestQueueTryGet: TryGet hands out what is queued, in order, and reports
// false instead of waiting — on an open queue and on a shut one alike.
func TestQueueTryGet(t *testing.T) {
	for _, tc := range []struct {
		name string
		prep func(q *Queue[int])
		want []int // what successive TryGets return before the first false
	}{
		{"empty", func(*Queue[int]) {}, nil},
		{"one item", func(q *Queue[int]) { q.Put(1) }, []int{1}},
		{"closed with a backlog", func(q *Queue[int]) { q.Put(1); q.Put(2); q.Close(); q.Put(3) }, []int{1, 2}},
		{"discarded", func(q *Queue[int]) { q.Put(1); q.Discard() }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQueue[int]()
			tc.prep(q)
			for _, want := range tc.want {
				if v, ok := q.TryGet(); !ok || v != want {
					t.Fatalf("TryGet = %d, %v, want %d", v, ok, want)
				}
			}
			if v, ok := q.TryGet(); ok {
				t.Fatalf("TryGet of a drained queue returned %d", v)
			}
		})
	}
	// The wake-up of an item TryGet took must not satisfy a later Get.
	q := NewQueue[int]()
	q.Put(1)
	q.TryGet()
	done := blockedGet(t, q, nil)
	q.Put(2)
	wantGet(t, done, 2)
}

// TestQueueConcurrent hammers one queue from several producers and
// consumers, then closes it while the consumers are still polling: every
// item must be consumed exactly once, and nobody may hang or race.
func TestQueueConcurrent(t *testing.T) {
	type item struct{ producer, seq int }
	q := NewQueue[item]()
	const producers, perProducer, consumers = 4, 250, 3
	var pwg, cwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for i := 0; i < perProducer; i++ {
				q.Put(item{p, i})
			}
		}()
	}
	var mu sync.Mutex
	seen := make(map[item]bool)
	var consumed atomic.Int64
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				timer := time.NewTimer(500 * time.Millisecond)
				it, ok := q.Get(timer.C)
				timer.Stop()
				if !ok {
					return // closed and drained
				}
				mu.Lock()
				if seen[it] {
					t.Errorf("item %v consumed twice", it)
				}
				seen[it] = true
				mu.Unlock()
				consumed.Add(1)
			}
		}()
	}
	pwg.Wait()
	for consumed.Load() < producers*perProducer {
		time.Sleep(time.Millisecond)
	}
	q.Close()
	cwg.Wait()
	q.Put(item{0, -1}) // a quiet no-op
	if it, ok := q.Get(nil); ok {
		t.Fatalf("item %v accepted after close", it)
	}
}
