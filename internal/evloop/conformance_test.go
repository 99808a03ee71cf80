package evloop_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"abcast/internal/live"
	"abcast/internal/msg"
	"abcast/internal/rbcast"
	"abcast/internal/stack"
	"abcast/internal/tcpnet"
)

// group is what the conformance table needs of a wall-clock runtime: n
// processes whose nodes are wired before start.
type group interface {
	node(p stack.ProcessID) *stack.Node
	start(t *testing.T)
	do(p stack.ProcessID, fn func())
	crash(p stack.ProcessID)
	close()
}

type liveGroup struct{ net *live.Network }

func (g liveGroup) node(p stack.ProcessID) *stack.Node { return g.net.Node(p) }
func (g liveGroup) start(*testing.T)                   {} // loops run from NewNetwork; nothing is sent before start
func (g liveGroup) do(p stack.ProcessID, fn func())    { g.net.Do(p, fn) }
func (g liveGroup) crash(p stack.ProcessID)            { g.net.Crash(p) }
func (g liveGroup) close()                             { g.net.Close() }

type tcpGroup struct{ peers []*tcpnet.Peer } // index 0 unused

func (g tcpGroup) node(p stack.ProcessID) *stack.Node { return g.peers[p].Node() }
func (g tcpGroup) do(p stack.ProcessID, fn func())    { g.peers[p].Do(fn) }
func (g tcpGroup) crash(p stack.ProcessID)            { g.peers[p].Crash() }

func (g tcpGroup) start(t *testing.T) {
	addrs := make(map[stack.ProcessID]string)
	for i, p := range g.peers[1:] {
		addrs[stack.ProcessID(i+1)] = p.Addr()
	}
	for _, p := range g.peers[1:] {
		if err := p.Start(addrs); err != nil {
			t.Fatal(err)
		}
	}
}

func (g tcpGroup) close() {
	for _, p := range g.peers[1:] {
		_ = p.Close() // only the listener's close error
	}
}

var runtimes = []struct {
	name string
	open func(t *testing.T, n int) group
}{
	{"live", func(_ *testing.T, n int) group {
		return liveGroup{live.NewNetwork(n, live.WithLatency(100*time.Microsecond))}
	}},
	{"tcpnet", func(t *testing.T, n int) group {
		g := tcpGroup{make([]*tcpnet.Peer, n+1)}
		for i := 1; i <= n; i++ {
			p, err := tcpnet.Listen(stack.ProcessID(i), n, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			g.peers[i] = p
		}
		return g
	}},
}

// numbered is a message both runtimes can carry (tcpnet needs a wire type).
func numbered(seq int) stack.Message {
	return rbcast.DataMsg{App: &msg.App{ID: msg.ID{Sender: 1, Seq: uint64(seq)}}}
}

// log collects what the handlers and callbacks of one test observed.
type log struct {
	mu  sync.Mutex
	got []int
}

func (l *log) add(v int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.got = append(l.got, v)
}

func (l *log) snapshot() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.got...)
}

// receiver registers a ProtoApp handler on p logging each message's number.
func (l *log) receiver(g group, p stack.ProcessID) {
	g.node(p).Register(stack.ProtoApp, stack.HandlerFunc(func(_ stack.ProcessID, _ uint64, m stack.Message) {
		l.add(int(m.(rbcast.DataMsg).App.ID.Seq))
	}))
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

const (
	doEnd     = -1 // logged at the end of the injected action
	fired     = -2 // logged by a timer that must fire
	cancelled = -3 // logged by a timer that must not
)

// conformance is the contract protocol code relies on from any wall-clock
// runtime, beyond the stack.Context signatures.
var conformance = []struct {
	name string
	n    int
	run  func(t *testing.T, g group)
}{
	{"self-send is served on the loop", 1, func(t *testing.T, g group) {
		var l log
		l.receiver(g, 1)
		g.start(t)
		g.do(1, func() {
			g.node(1).Proto(stack.ProtoApp).Send(1, 0, numbered(42))
			l.add(doEnd) // the dispatch is a later event, not a nested call
		})
		waitFor(t, "self-delivery", func() bool { return len(l.snapshot()) == 2 })
		if got := l.snapshot(); got[0] != doEnd || got[1] != 42 {
			t.Fatalf("events %v, want [%d 42]", got, doEnd)
		}
	}},
	{"per-sender FIFO", 2, func(t *testing.T, g group) {
		var l log
		l.receiver(g, 2)
		g.start(t)
		const count = 200
		g.do(1, func() {
			for i := 0; i < count; i++ {
				g.node(1).Proto(stack.ProtoApp).Send(2, 0, numbered(i))
			}
		})
		waitFor(t, "all messages", func() bool { return len(l.snapshot()) == count })
		for i, v := range l.snapshot() {
			if v != i {
				t.Fatalf("order broken at %d: got %d", i, v)
			}
		}
	}},
	{"timer fires, cancelled timer does not", 1, func(t *testing.T, g group) {
		var l log
		g.start(t)
		g.do(1, func() {
			ctx := g.node(1).Context()
			ctx.SetTimer(5*time.Millisecond, func() { l.add(fired) })
			cancel := ctx.SetTimer(5*time.Millisecond, func() { l.add(cancelled) })
			cancel()
			cancel() // idempotent
		})
		waitFor(t, "the timer", func() bool { return len(l.snapshot()) > 0 })
		time.Sleep(20 * time.Millisecond)
		if got := l.snapshot(); len(got) != 1 || got[0] != fired {
			t.Fatalf("events %v, want [%d]", got, fired)
		}
	}},
	{"crash stops delivery and drops armed timers", 2, func(t *testing.T, g group) {
		var l log
		l.receiver(g, 2)
		g.start(t)
		armed := make(chan struct{})
		g.do(2, func() {
			g.node(2).Context().SetTimer(20*time.Millisecond, func() { l.add(fired) })
			close(armed)
		})
		<-armed
		g.crash(2)
		if !g.node(2).Context().Crashed() {
			t.Fatal("Crashed() false after crash")
		}
		g.do(1, func() { g.node(1).Proto(stack.ProtoApp).Send(2, 0, numbered(1)) })
		g.do(2, func() { l.add(doEnd) })
		time.Sleep(100 * time.Millisecond)
		if got := l.snapshot(); len(got) != 0 {
			t.Fatalf("crashed process handled events %v", got)
		}
	}},
	{"a timer due after close fires into nothing", 1, func(t *testing.T, g group) {
		var l log
		g.start(t)
		armed := make(chan struct{})
		g.do(1, func() {
			g.node(1).Context().SetTimer(10*time.Millisecond, func() { l.add(fired) })
			close(armed)
		})
		<-armed
		g.close() // nothing tracks the timer: it fires, and finds the inbox shut
		time.Sleep(50 * time.Millisecond)
		if got := l.snapshot(); len(got) != 0 {
			t.Fatalf("closed process handled events %v", got)
		}
	}},
	{"close is idempotent, joins every goroutine, and silences Do", 3, func(t *testing.T, g group) {
		var l log
		g.start(t)
		// Give every pair a connection and every process an armed timer.
		for p := stack.ProcessID(1); p <= 3; p++ {
			g.do(p, func() {
				g.node(p).Proto(stack.ProtoApp).BroadcastOthers(0, numbered(1))
				g.node(p).Context().SetTimer(time.Hour, func() {})
				l.add(doEnd)
			})
		}
		waitFor(t, "the three actions", func() bool { return len(l.snapshot()) == 3 })
		g.close()
		g.close()
		g.do(1, func() { l.add(doEnd) })
		time.Sleep(20 * time.Millisecond)
		if got := len(l.snapshot()); got != 3 {
			t.Fatalf("Do ran after close (%d events)", got)
		}
	}},
}

// TestRuntimeConformance runs the table against both runtimes. Every case
// also checks that close leaves no goroutine behind.
func TestRuntimeConformance(t *testing.T) {
	for _, rt := range runtimes {
		for _, tc := range conformance {
			t.Run(rt.name+"/"+tc.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				g := rt.open(t, tc.n)
				t.Cleanup(g.close) // a failed case must not leak into the next one's count
				tc.run(t, g)
				g.close()
				waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
			})
		}
	}
}
