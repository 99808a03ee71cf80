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

// stampMsg carries its position in the stream and the instant it was sent.
type stampMsg struct {
	seq  int
	sent time.Time
}

func (*stampMsg) WireSize() int { return 4 }

// TestLinkFIFOAndLatencyFloor streams envelopes over one link in bursts: they
// arrive in send order, none sooner than the configured latency. 50 µs mostly
// finds a parcel already due when the link gets to it and 2 ms mostly finds
// it still owing time, so both branches of the batch drain run.
func TestLinkFIFOAndLatencyFloor(t *testing.T) {
	for _, latency := range []time.Duration{50 * time.Microsecond, 2 * time.Millisecond} {
		t.Run(latency.String(), func(t *testing.T) {
			const total, burst = 10000, 100
			net := NewNetwork(2, WithLatency(latency))
			defer net.Close()
			var (
				got   int
				early time.Duration
				done  = make(chan struct{})
			)
			net.Node(2).Register(stack.ProtoApp, stack.HandlerFunc(func(_ stack.ProcessID, _ uint64, m stack.Message) {
				sm := m.(*stampMsg)
				if sm.seq != got {
					t.Errorf("envelope %d arrived in position %d", sm.seq, got)
				}
				if age := time.Since(sm.sent); age < latency && latency-age > early {
					early = latency - age
				}
				if got++; got == total {
					close(done)
				}
			}))
			for b := 0; b < total/burst; b++ {
				net.Do(1, func() {
					for i := 0; i < burst; i++ {
						net.Proc(1).Send(2, stack.Envelope{Proto: stack.ProtoApp, Msg: &stampMsg{seq: b*burst + i, sent: time.Now()}})
					}
				})
				time.Sleep(latency / 4)
			}
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("the stream did not arrive")
			}
			if early > 0 {
				t.Fatalf("an envelope arrived %v before its latency had passed", early)
			}
		})
	}
}

// TestCrashDropsQueuedParcels: whether the sender has crashed is asked per
// parcel at delivery time, so of two batches on one link the one due before
// the crash arrives and the one still queued behind it is lost.
func TestCrashDropsQueuedParcels(t *testing.T) {
	const latency, batch = 200 * time.Millisecond, 100
	net := NewNetwork(2, WithLatency(latency))
	defer net.Close()
	var c capture
	net.Node(2).Register(stack.ProtoApp, c.handler())
	send := func(base int) {
		net.Do(1, func() {
			for i := 0; i < batch; i++ {
				net.Proc(1).Send(2, stack.Envelope{Proto: stack.ProtoApp, Msg: pingMsg{v: base + i}})
			}
		})
	}
	send(0)
	time.Sleep(latency / 2)
	send(batch) // queued while the link sleeps towards the first batch
	for deadline := time.Now().Add(5 * time.Second); len(c.snapshot()) < batch; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first batch never arrived")
		}
	}
	net.Crash(1) // the second batch is due half a latency from now
	time.Sleep(latency)
	got := c.snapshot()
	if len(got) != batch {
		t.Fatalf("%d envelopes arrived, want the %d sent a full latency before the crash", len(got), batch)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d holds envelope %d", i, v)
		}
	}
}

// TestCloseAbortsSleepingLinks: Close does not wait out the latency of
// parcels still in flight.
func TestCloseAbortsSleepingLinks(t *testing.T) {
	net := NewNetwork(2, WithLatency(10*time.Second))
	sent := make(chan struct{})
	net.Do(1, func() {
		for i := 0; i < 10; i++ {
			net.Proc(1).Send(2, stack.Envelope{Proto: stack.ProtoApp, Msg: pingMsg{v: i}})
		}
		close(sent)
	})
	<-sent
	time.Sleep(10 * time.Millisecond) // let the link goroutine start its sleep
	start := time.Now()
	net.Close()
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Close took %v with parcels sleeping towards a 10 s deadline", took)
	}
}

// TestHopAllocatesNothing pins the cost of a hop — send on one loop, the
// link's hand-over, dispatch on the other loop — at zero objects: the parcel
// and the inbox event are values on queues whose slices are reused. Amortised
// over bursts of 1000, so a queue slice still growing rounds to nothing while
// one object per envelope would read 1000.
func TestHopAllocatesNothing(t *testing.T) {
	const burst = 1000
	net := NewNetwork(2, WithLatency(time.Nanosecond))
	defer net.Close()
	got := 0
	arrived := make(chan struct{}, 1)
	net.Node(2).Register(stack.ProtoApp, stack.HandlerFunc(func(stack.ProcessID, uint64, stack.Message) {
		if got++; got%burst == 0 {
			arrived <- struct{}{}
		}
	}))
	env := stack.Envelope{Proto: stack.ProtoApp, Msg: pingMsg{}} // boxed once, here
	send := func() {
		for i := 0; i < burst; i++ {
			net.Proc(1).Send(2, env)
		}
	}
	perBurst := testing.AllocsPerRun(20, func() {
		net.Do(1, send)
		<-arrived
	})
	if perBurst > burst/100 {
		t.Fatalf("%v allocations per %d hops", perBurst, burst)
	}
}
