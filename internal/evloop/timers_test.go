package evloop

import (
	"testing"
	"time"
)

func (ts *Timers) outstanding() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.timers)
}

func TestTimersFireAndDeregister(t *testing.T) {
	var ts Timers
	fired := make(chan struct{})
	ts.Schedule(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("scheduled timer never fired")
	}
	// The callback deregisters itself before running fn.
	if n := ts.outstanding(); n != 0 {
		t.Fatalf("%d timers still registered after firing", n)
	}
}

func TestTimersCancel(t *testing.T) {
	var ts Timers
	cancel := ts.Schedule(10*time.Millisecond, func() { t.Error("cancelled timer fired") })
	cancel()
	cancel() // idempotent
	if n := ts.outstanding(); n != 0 {
		t.Fatalf("%d timers registered after cancel", n)
	}
	time.Sleep(30 * time.Millisecond)
}

func TestTimersStopAll(t *testing.T) {
	var ts Timers
	for i := 0; i < 3; i++ {
		ts.Schedule(10*time.Millisecond, func() { t.Error("stopped timer fired") })
	}
	ts.StopAll()
	time.Sleep(30 * time.Millisecond)
	// StopAll resets the set; scheduling afterwards still works.
	fired := make(chan struct{})
	ts.Schedule(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("timer scheduled after StopAll never fired")
	}
}
