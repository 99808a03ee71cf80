package relink

// The send path's allocation and sharing contract: one SeqMsg per envelope
// is both what the link retains and what it sends, stamped with the
// watermark after the send's own evictions and never written once it has
// left — so a receiver on another goroutine may read it while the sender
// still holds it, and a retransmission is a fresh SeqMsg.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"abcast/internal/live"
	"abcast/internal/stack"
)

// stubCtx is process 1 of two with a hand-driven clock, whose transport
// records what it is given (when record is set) and whose timers never fire.
type stubCtx struct {
	now    time.Time
	record bool
	sent   []stack.Envelope
}

func (c *stubCtx) ID() stack.ProcessID { return 1 }
func (c *stubCtx) N() int              { return 2 }
func (c *stubCtx) Now() time.Time      { return c.now }
func (c *stubCtx) Send(_ stack.ProcessID, env stack.Envelope) {
	if c.record {
		c.sent = append(c.sent, env)
	}
}
func (c *stubCtx) SetTimer(time.Duration, func()) func() { return func() {} }
func (c *stubCtx) Work(time.Duration)                    {}
func (c *stubCtx) Rand() *rand.Rand                      { return nil }
func (c *stubCtx) Crashed() bool                         { return false }
func (c *stubCtx) Logf(string, ...any)                   {}

// lastSeq is the SeqMsg of the last envelope the stub transport was given.
func (c *stubCtx) lastSeq(t *testing.T) *SeqMsg {
	t.Helper()
	m, ok := c.sent[len(c.sent)-1].Msg.(*SeqMsg)
	if !ok {
		t.Fatalf("last send carried %T, want *SeqMsg", c.sent[len(c.sent)-1].Msg)
	}
	return m
}

// TestSendAllocatesOncePerEnvelope: Link.Send's own cost, over a transport
// that allocates nothing, is the one SeqMsg (the parent paid two: a retained
// entry and the boxed message). The retention slice's amortized growth
// truncates away.
func TestSendAllocatesOncePerEnvelope(t *testing.T) {
	ctx := &stubCtx{now: time.Unix(0, 0)}
	l := New(stack.NewNode(ctx), Config{})
	env := stack.Envelope{Proto: stack.ProtoApp, Msg: tmsg{N: 1}}
	if got := testing.AllocsPerRun(1000, func() { l.Send(2, env) }); got > 1 {
		t.Fatalf("Link.Send allocates %v objects per envelope, want ≤ 1", got)
	}
}

// TestSeqMsgWatermark: the watermark a SeqMsg carries is the one after its
// own send's evictions, and a retransmission carries the current one — in a
// fresh SeqMsg, the original left untouched.
func TestSeqMsgWatermark(t *testing.T) {
	ctx := &stubCtx{now: time.Unix(0, 0), record: true}
	l := New(stack.NewNode(ctx), Config{BufferCap: 1})
	env := stack.Envelope{Proto: stack.ProtoApp, Msg: tmsg{N: 1}}
	l.Send(2, env)
	if m := ctx.lastSeq(t); m.Seq != 1 || m.Low != 1 {
		t.Fatalf("first send: Seq %d Low %d, want 1 1", m.Seq, m.Low)
	}
	l.Send(2, env) // evicts seq 1: the buffer holds one envelope
	if m := ctx.lastSeq(t); m.Seq != 2 || m.Low != 2 {
		t.Fatalf("second send: Seq %d Low %d, want 2 2 (the watermark after its eviction)", m.Seq, m.Low)
	}

	ctx = &stubCtx{now: time.Unix(0, 0), record: true}
	l = New(stack.NewNode(ctx), Config{})
	l.Send(2, env)
	l.Send(2, env)
	first := ctx.lastSeq(t)
	ctx.now = ctx.now.Add(time.Second) // past the retransmission guard
	l.receive(2, 0, AckMsg{Cum: 1})    // settles seq 1, so the base moves to 2
	re := ctx.lastSeq(t)
	if re == first || re.Seq != 2 || re.Low != 2 {
		t.Fatalf("retransmission: fresh=%v Seq %d Low %d, want a fresh SeqMsg, Seq 2 Low 2", re != first, re.Seq, re.Low)
	}
	if first.Low != 1 {
		t.Fatalf("the original SeqMsg was written after it left: Low %d, want 1", first.Low)
	}
}

// TestSharedSeqMsgLive floods a two-process live network through a link
// with a tiny buffer and a 1 ms anti-entropy cadence against 2 ms hops, so
// the sender evicts and retransmits while the receiver's goroutine reads the
// very SeqMsgs the sender retains. Under -race any write to a sent SeqMsg
// fails here; every payload must still be dispatched exactly once.
func TestSharedSeqMsgLive(t *testing.T) {
	const total = 2000
	net := live.NewNetwork(2, live.WithLatency(2*time.Millisecond))
	defer net.Close()
	links := make([]*Link, 3)
	var mu sync.Mutex
	seen := make(map[int]int)
	ready := make(chan struct{}, 2)
	for p := stack.ProcessID(1); p <= 2; p++ {
		net.Do(p, func() {
			node := net.Node(p)
			links[p] = New(node, Config{BufferCap: 8})
			links[p].SetInterval(time.Millisecond)
			node.Register(stack.ProtoApp, stack.HandlerFunc(func(_ stack.ProcessID, _ uint64, m stack.Message) {
				mu.Lock()
				seen[m.(tmsg).N]++
				mu.Unlock()
			}))
			ready <- struct{}{}
		})
	}
	<-ready
	<-ready
	// Bursts of 20 every 2 ms keep the stream in flight for the whole run:
	// every digest finds envelopes older than the 1 ms guard still unacked.
	for i := 0; i < total; i += 20 {
		net.Do(1, func() {
			for n := i; n < i+20; n++ {
				net.Node(1).Proto(stack.ProtoApp).Send(2, 0, tmsg{N: n})
			}
		})
		time.Sleep(2 * time.Millisecond)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		done := len(seen) == total
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dispatched %d of %d distinct payloads", len(seen), total)
		}
	}
	stats := make(chan Stats, 1)
	net.Do(1, func() { stats <- links[1].Stats() })
	st := <-stats
	mu.Lock()
	defer mu.Unlock()
	for n, c := range seen {
		if c != 1 {
			t.Fatalf("payload %d dispatched %d times", n, c)
		}
	}
	if st.Evicted == 0 || st.Retransmitted == 0 {
		t.Fatalf("the flood neither evicted nor retransmitted: %+v", st)
	}
}
