package rbcast

import (
	"fmt"
	"testing"
	"time"

	"abcast/internal/fd"
	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// rbHarness wires one broadcaster per process.
type rbHarness struct {
	w         *simnet.World
	bcs       []Broadcaster
	fds       []*fd.Scripted
	delivered []map[msg.ID]int // id -> delivery count per process
	order     [][]msg.ID
}

func newRBHarness(t *testing.T, n int, kind Kind) *rbHarness {
	t.Helper()
	h := &rbHarness{
		w:         simnet.NewWorld(n, netmodel.Setup1(), 5),
		bcs:       make([]Broadcaster, n+1),
		fds:       make([]*fd.Scripted, n+1),
		delivered: make([]map[msg.ID]int, n+1),
		order:     make([][]msg.ID, n+1),
	}
	for i := 1; i <= n; i++ {
		i := i
		h.fds[i] = fd.NewScripted()
		h.delivered[i] = make(map[msg.ID]int)
		h.bcs[i] = New(kind, h.w.Node(stack.ProcessID(i)), h.fds[i], func(a *msg.App) {
			h.delivered[i][a.ID]++
			h.order[i] = append(h.order[i], a.ID)
		})
	}
	return h
}

func (h *rbHarness) broadcast(p stack.ProcessID, d time.Duration, id msg.ID, payload int) {
	h.w.After(p, d, func() {
		h.bcs[p].Broadcast(&msg.App{ID: id, Payload: make([]byte, payload)})
	})
}

func kinds() []Kind { return []Kind{KindEager, KindLazy, KindUniform} }

func TestAllKindsDeliverEverywhereOnce(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			const n = 4
			h := newRBHarness(t, n, k)
			var ids []msg.ID
			for i := 1; i <= n; i++ {
				for s := 1; s <= 3; s++ {
					id := msg.ID{Sender: stack.ProcessID(i), Seq: uint64(s)}
					ids = append(ids, id)
					h.broadcast(stack.ProcessID(i), time.Duration(s)*time.Millisecond, id, 50)
				}
			}
			h.w.RunFor(time.Second)
			for p := 1; p <= n; p++ {
				for _, id := range ids {
					if c := h.delivered[p][id]; c != 1 {
						t.Fatalf("%v: p%d delivered %v %d times, want 1", k, p, id, c)
					}
				}
			}
		})
	}
}

// TestValidity: the sender itself delivers its own message (immediately for
// the reliable variants, after a majority echo for uniform).
func TestValidity(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			h := newRBHarness(t, 3, k)
			id := msg.ID{Sender: 1, Seq: 1}
			h.broadcast(1, 0, id, 1)
			h.w.RunFor(time.Second)
			if h.delivered[1][id] != 1 {
				t.Fatalf("%v: sender did not deliver its own message", k)
			}
		})
	}
}

// TestEagerMessageComplexity verifies the O(n²) cost: every process relays
// every message once.
func TestEagerMessageComplexity(t *testing.T) {
	const n = 5
	h := newRBHarness(t, n, KindEager)
	h.broadcast(1, 0, msg.ID{Sender: 1, Seq: 1}, 1)
	h.w.RunFor(time.Second)
	// Sender: n-1 sends; each of the n-1 receivers relays to n-1 others.
	want := int64((n - 1) * n)
	if got := h.w.MsgsSent(); got != want {
		t.Fatalf("eager rbcast used %d messages, want %d", got, want)
	}
}

// TestLazyMessageComplexity verifies the O(n) good-run cost: without
// suspicion, only the sender transmits.
func TestLazyMessageComplexity(t *testing.T) {
	const n = 5
	h := newRBHarness(t, n, KindLazy)
	h.broadcast(1, 0, msg.ID{Sender: 1, Seq: 1}, 1)
	h.w.RunFor(time.Second)
	if got := h.w.MsgsSent(); got != int64(n-1) {
		t.Fatalf("lazy rbcast used %d messages in a good run, want %d", got, n-1)
	}
}

// TestUniformMessageComplexity: data to n-1, plus an echo from each of the
// n-1 receivers to n-1 others.
func TestUniformMessageComplexity(t *testing.T) {
	const n = 3
	h := newRBHarness(t, n, KindUniform)
	h.broadcast(1, 0, msg.ID{Sender: 1, Seq: 1}, 1)
	h.w.RunFor(time.Second)
	want := int64((n - 1) * n)
	if got := h.w.MsgsSent(); got != want {
		t.Fatalf("uniform rbcast used %d messages, want %d", got, want)
	}
}

// TestUniformSenderPaysExtraStep: with plain reliable broadcast, a sender
// delivers its own message immediately; with uniform reliable broadcast it
// must first learn that a majority holds the message — a full round trip.
// This is the extra communication step the paper's Section 4.4 attributes
// the cost of the URB-based stack to.
func TestUniformSenderPaysExtraStep(t *testing.T) {
	timeOf := func(k Kind) time.Duration {
		w := simnet.NewWorld(3, netmodel.Setup1(), 5)
		var deliveredAt time.Duration = -1
		var bc Broadcaster
		for i := 1; i <= 3; i++ {
			i := i
			det := fd.NewScripted()
			b := New(k, w.Node(stack.ProcessID(i)), det, func(a *msg.App) {
				if i == 1 && deliveredAt < 0 {
					deliveredAt = w.Now().Sub(time.Unix(0, 0))
				}
			})
			if i == 1 {
				bc = b
			}
		}
		w.After(1, 0, func() {
			bc.Broadcast(&msg.App{ID: msg.ID{Sender: 1, Seq: 1}, Payload: make([]byte, 100)})
		})
		w.RunFor(time.Second)
		return deliveredAt
	}
	eager := timeOf(KindEager)
	uniform := timeOf(KindUniform)
	if eager < 0 || uniform < 0 {
		t.Fatalf("sender deliveries not observed: eager=%v uniform=%v", eager, uniform)
	}
	if uniform <= eager {
		t.Fatalf("uniform sender delivered in %v, eager in %v; uniform must pay a round trip", uniform, eager)
	}
}

// TestLazyRelaysOnSuspicion: if the origin is suspected after a partial
// broadcast, holders must relay so every correct process delivers
// (Agreement).
func TestLazyRelaysOnSuspicion(t *testing.T) {
	const n = 3
	params := netmodel.Setup1()
	// Adversarial delay: DATA from p1 to p3 is extremely slow.
	params.LatencyFn = func(from, to stack.ProcessID, env stack.Envelope) time.Duration {
		if from == 1 && to == 3 {
			return time.Hour
		}
		return params.Latency
	}
	h := &rbHarness{
		w:         simnet.NewWorld(n, params, 5),
		bcs:       make([]Broadcaster, n+1),
		fds:       make([]*fd.Scripted, n+1),
		delivered: make([]map[msg.ID]int, n+1),
		order:     make([][]msg.ID, n+1),
	}
	for i := 1; i <= n; i++ {
		i := i
		h.fds[i] = fd.NewScripted()
		h.delivered[i] = make(map[msg.ID]int)
		h.bcs[i] = New(KindLazy, h.w.Node(stack.ProcessID(i)), h.fds[i], func(a *msg.App) {
			h.delivered[i][a.ID]++
		})
	}
	id := msg.ID{Sender: 1, Seq: 1}
	h.broadcast(1, 0, id, 10)
	// p1 crashes; p2 (which holds m) eventually suspects it and relays.
	h.w.After(2, 10*time.Millisecond, func() { h.w.Crash(1, simnet.DropInFlight) })
	h.w.After(2, 50*time.Millisecond, func() { h.fds[2].SetSuspected(1, true) })
	h.w.RunFor(time.Second)
	if h.delivered[2][id] != 1 {
		t.Fatal("p2 missing the message")
	}
	if h.delivered[3][id] != 1 {
		t.Fatal("agreement violated: p3 never delivered despite a correct holder")
	}
}

// TestUniformAgreementUnderCrash: with uniform broadcast, if any process
// delivered, all correct processes deliver — even when the sender crashes
// immediately after its sends.
func TestUniformAgreementUnderCrash(t *testing.T) {
	const n = 5
	h := newRBHarness(t, n, KindUniform)
	id := msg.ID{Sender: 1, Seq: 1}
	h.broadcast(1, 0, id, 10)
	// Crash the sender shortly after; in-flight copies still reach some
	// processes, whose echoes must complete delivery everywhere.
	h.w.After(2, 5*time.Millisecond, func() { h.w.Crash(1, simnet.DeliverInFlight) })
	h.w.RunFor(time.Second)
	deliveredSomewhere := false
	for p := 2; p <= n; p++ {
		if h.delivered[p][id] > 0 {
			deliveredSomewhere = true
		}
	}
	if !deliveredSomewhere {
		t.Skip("no process delivered; uniform agreement vacuous in this schedule")
	}
	for p := 2; p <= n; p++ {
		if h.delivered[p][id] != 1 {
			t.Fatalf("uniform agreement violated: p%d delivered %d times", p, h.delivered[p][id])
		}
	}
}

func TestMajority(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}, {6, 4}, {7, 4}} {
		if got := Majority(c.n); got != c.want {
			t.Errorf("Majority(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	for _, c := range []struct {
		k    Kind
		want string
	}{
		{KindEager, "rbcast-O(n2)"},
		{KindLazy, "rbcast-O(n)"},
		{KindUniform, "uniform-rbcast"},
		{Kind(0), "rbcast-unknown"},
	} {
		if got := c.k.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("New with unknown kind did not panic")
		}
	}()
	w := simnet.NewWorld(1, netmodel.Instant(), 1)
	New(Kind(0), w.Node(1), nil, func(*msg.App) {})
}

func TestDuplicateBroadcastIgnored(t *testing.T) {
	for _, k := range kinds() {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			h := newRBHarness(t, 3, k)
			id := msg.ID{Sender: 1, Seq: 1}
			h.broadcast(1, 0, id, 1)
			h.broadcast(1, time.Millisecond, id, 1) // same id again
			h.w.RunFor(time.Second)
			for p := 1; p <= 3; p++ {
				if h.delivered[p][id] != 1 {
					t.Fatalf("p%d delivered %d times", p, h.delivered[p][id])
				}
			}
		})
	}
}

// TestReleasedMessagesAreNotRetained: what a broadcast keeps is bounded by
// the senders plus the messages not yet released, not by history — and a
// released identifier is still a duplicate: a straggling copy is dropped
// without a delivery, a relay or an echo.
func TestReleasedMessagesAreNotRetained(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			const n, each = 3, 200
			h := newRBHarness(t, n, k)
			for p := 1; p <= n; p++ {
				for s := 1; s <= each; s++ {
					h.broadcast(stack.ProcessID(p), time.Duration(s)*time.Millisecond,
						msg.ID{Sender: stack.ProcessID(p), Seq: uint64(s)}, 16)
				}
			}
			h.w.RunFor(5 * time.Second)
			if k == KindLazy && h.bcs[1].Retained() < (n-1)*each {
				t.Fatalf("lazy holds %d entries before release; it owes a relay for %d messages",
					h.bcs[1].Retained(), (n-1)*each)
			}
			// Release everything everywhere, not quite in arrival order.
			for p := 1; p <= n; p++ {
				for _, parity := range []int{1, 0} {
					for q := 1; q <= n; q++ {
						for s := 1; s <= each; s++ {
							if s%2 == parity {
								h.bcs[p].Release(msg.ID{Sender: stack.ProcessID(q), Seq: uint64(s)})
							}
						}
					}
				}
				if got := h.bcs[p].Retained(); got > 2*n {
					t.Fatalf("p%d retains %d entries after releasing all %d messages; want O(senders)", p, got, n*each)
				}
			}
			// A straggling copy of a released message, and a suspicion of its
			// origin, set nothing off.
			sent := h.w.MsgsSent()
			h.w.After(1, time.Millisecond, func() {
				h.bcs[1].Rebroadcast(&msg.App{ID: msg.ID{Sender: 1, Seq: each / 2}, Payload: make([]byte, 16)})
			})
			h.w.After(2, 10*time.Millisecond, func() { h.fds[2].SetSuspected(1, true) })
			h.w.RunFor(time.Second)
			if got := h.w.MsgsSent() - sent; got != n-1 {
				t.Fatalf("straggler caused %d sends beyond the %d of the rebroadcast itself", got-(n-1), n-1)
			}
			for p := 1; p <= n; p++ {
				if len(h.order[p]) != n*each {
					t.Fatalf("p%d delivered %d, want %d (each message once)", p, len(h.order[p]), n*each)
				}
			}
		})
	}
}
