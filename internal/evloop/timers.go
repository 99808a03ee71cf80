package evloop

import (
	"sync"
	"time"
)

// Timers tracks outstanding time.Timers so a runtime can stop them all on
// shutdown. Timers are created while holding the lock, which orders a
// firing callback's self-deregistration after its registration. The zero
// value is ready to use.
type Timers struct {
	mu     sync.Mutex
	timers map[uint64]*time.Timer
	nextID uint64
}

// Schedule arms fn to run on its own goroutine after d. The returned
// function cancels the timer (idempotent, best effort: a concurrently
// firing callback may still run).
func (ts *Timers) Schedule(d time.Duration, fn func()) (cancel func()) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.timers == nil {
		ts.timers = make(map[uint64]*time.Timer)
	}
	id := ts.nextID
	ts.nextID++
	ts.timers[id] = time.AfterFunc(d, func() {
		ts.take(id)
		fn()
	})
	return func() {
		if t := ts.take(id); t != nil {
			t.Stop()
		}
	}
}

// take deregisters timer id and returns it, or nil if it is already gone.
func (ts *Timers) take(id uint64) *time.Timer {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := ts.timers[id]
	delete(ts.timers, id)
	return t
}

// StopAll stops every outstanding timer. Scheduling afterwards still works.
func (ts *Timers) StopAll() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, t := range ts.timers {
		t.Stop()
	}
	ts.timers = nil
}
