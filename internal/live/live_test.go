package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abcast/internal/stack"
)

type pingMsg struct{ v int }

func (pingMsg) WireSize() int { return 4 }

// capture installs a handler collecting (from, msg) pairs under a lock.
type capture struct {
	mu  sync.Mutex
	got []int
}

func (c *capture) handler() stack.Handler {
	return stack.HandlerFunc(func(_ stack.ProcessID, _ uint64, m stack.Message) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if p, ok := m.(pingMsg); ok {
			c.got = append(c.got, p.v)
		}
	})
}

func (c *capture) snapshot() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.got...)
}

// The behaviour both wall-clock runtimes share is pinned by the conformance
// table in internal/evloop; these are the live transport's own.

func TestCrashStopsDelivery(t *testing.T) {
	net := NewNetwork(2, WithLatency(50*time.Millisecond))
	defer net.Close()
	var c capture
	net.Node(2).Register(stack.ProtoApp, c.handler())
	net.Do(1, func() {
		net.Proc(1).Send(2, stack.Envelope{Proto: stack.ProtoApp, Msg: pingMsg{v: 1}})
	})
	// Crash the *sender* while the message is in flight: live semantics
	// drop in-flight messages of crashed senders.
	time.Sleep(10 * time.Millisecond)
	net.Crash(1)
	time.Sleep(100 * time.Millisecond)
	if len(c.snapshot()) != 0 {
		t.Fatal("in-flight message from crashed sender delivered")
	}
}

// TestRestartIsAFreshIncarnation: the old incarnation's timers die with it,
// while a message in flight across the restart reaches the new node.
func TestRestartIsAFreshIncarnation(t *testing.T) {
	net := NewNetwork(2, WithLatency(30*time.Millisecond))
	defer net.Close()
	var old, fresh capture
	var stale atomic.Bool
	net.Node(2).Register(stack.ProtoApp, old.handler())
	armed := make(chan struct{})
	net.Do(2, func() {
		net.Proc(2).SetTimer(60*time.Millisecond, func() { stale.Store(true) })
		close(armed)
	})
	<-armed
	net.Do(1, func() {
		net.Proc(1).Send(2, stack.Envelope{Proto: stack.ProtoApp, Msg: pingMsg{v: 7}})
	})
	net.Crash(2)
	node := net.Restart(2)
	net.Do(2, func() { node.Register(stack.ProtoApp, fresh.handler()) })
	for deadline := time.Now().Add(5 * time.Second); len(fresh.snapshot()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("in-flight message never reached the new incarnation")
		}
	}
	time.Sleep(100 * time.Millisecond)
	if stale.Load() {
		t.Fatal("the dead incarnation's timer fired")
	}
	if got := old.snapshot(); len(got) != 0 {
		t.Fatalf("the dead incarnation's node received %v", got)
	}
}

func TestContextBasics(t *testing.T) {
	net := NewNetwork(2, WithSeed(9))
	defer net.Close()
	p := net.Proc(1)
	if p.ID() != 1 || p.N() != 2 {
		t.Fatal("identity wrong")
	}
	if p.Crashed() {
		t.Fatal("fresh process crashed")
	}
	p.Work(time.Hour) // must be a no-op, not a sleep
	if p.Rand() == nil {
		t.Fatal("nil rng")
	}
	if time.Since(p.Now()) > time.Minute {
		t.Fatal("Now() not wall clock")
	}
}
