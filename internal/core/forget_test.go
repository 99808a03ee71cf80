package core

// Tests of what outlives a message. Without a repair plane nobody can ask for
// a delivered payload, so delivery is the record's last transition and the
// table holds only what is in flight; with one (Config.Recover) every payload
// stays servable. Either way the delivered set remembers the identifier: a
// straggler is a duplicate and the rcv predicate still answers true.

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
	"abcast/internal/trace"
)

// quiesce runs a burst of perProc broadcasts from each of n senders to
// quiescence and verifies the run itself: every process delivered every
// message, in one order.
func quiesce(t *testing.T, g *group, n, perProc int) []msg.ID {
	t.Helper()
	want := burst(g, n, perProc, time.Millisecond)
	g.Run(time.Duration(perProc)*time.Millisecond + 10*time.Second)
	all := make([]stack.ProcessID, n)
	for i := range all {
		all[i] = stack.ProcessID(i + 1)
	}
	g.complete(all)
	return want
}

// fetchFrom has p2 ask p1 for id over the recovery fetch protocol and returns
// the payloads p1 supplied. The tap replaces p2's own ProtoSync handler, so
// call it last.
func fetchFrom(g *group, id msg.ID) []*msg.App {
	var supplied []*msg.App
	g.w.Node(2).Register(stack.ProtoSync, stack.HandlerFunc(func(_ stack.ProcessID, _ uint64, m stack.Message) {
		if s, ok := m.(SupplyMsg); ok {
			supplied = append(supplied, s.Apps...)
		}
	}))
	g.w.After(2, 0, func() {
		g.w.Node(2).Proto(stack.ProtoSync).Send(1, 0, FetchMsg{IDs: []msg.ID{id}})
	})
	g.Run(time.Second)
	return supplied
}

// TestDeliveryForgetsWithoutRepairPlane: in the default configuration the
// table is empty at quiescence however many messages went through it, and the
// identifiers are still known as received.
func TestDeliveryForgetsWithoutRepairPlane(t *testing.T) {
	const n, perProc = 3, 1000
	g := newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), 61)
	want := quiesce(t, g, n, perProc)
	for p := 1; p <= n; p++ {
		e := g.engines[p]
		if st := e.Stats(); len(e.msgs.entries) != 0 || st.Received != 0 || st.Delivered != len(want) {
			t.Fatalf("p%d: %d records and %d payloads held after delivering %d of %d",
				p, len(e.msgs.entries), st.Received, st.Delivered, len(want))
		}
		for _, id := range want {
			if !e.HasReceived(id) {
				t.Fatalf("p%d: HasReceived(%v) = false after delivering it", p, id)
			}
		}
	}
	// Nobody can ask: the fetch protocol has no handler here.
	if got := fetchFrom(g, want[0]); len(got) != 0 {
		t.Fatalf("a default-configuration engine answered a fetch: %v", got)
	}
}

// TestRecoverRetainsDeliveredPayloads is the same run with a repair plane:
// every payload is still held, and a fetch for the oldest one is served.
func TestRecoverRetainsDeliveredPayloads(t *testing.T) {
	const n, perProc = 3, 1000
	g := newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), 61, withRecovery(false))
	want := quiesce(t, g, n, perProc)
	for p := 1; p <= n; p++ {
		e := g.engines[p]
		if st := e.Stats(); len(e.msgs.entries) != len(want) || st.Received != len(want) {
			t.Fatalf("p%d: %d records, %d payloads held of %d delivered", p, len(e.msgs.entries), st.Received, len(want))
		}
	}
	first := g.delivered(1)[0]
	got := fetchFrom(g, first)
	if len(got) != 1 || got[0].ID != first || !bytes.Equal(got[0].Payload, g.payloads[first]) {
		t.Fatalf("fetch of %v supplied %v", first, got)
	}
}

// TestStragglersOfForgottenMessages: a late diffusion copy, and a message-set
// decision carrying the payload again, are duplicates of a message delivered
// and forgotten — nothing is redelivered and nothing re-accumulates.
func TestStragglersOfForgottenMessages(t *testing.T) {
	const n, perProc = 3, 40
	g := newGroup(t, n, VariantConsensusMsgs, netmodel.Setup1(), 67)
	want := quiesce(t, g, n, perProc)
	e := g.engines[2]
	old := &msg.App{ID: want[0], Payload: []byte("again")}
	g.w.After(2, 0, func() { e.onRDeliver(old) })
	g.w.After(2, time.Millisecond, func() { e.onDecide(e.kNext, NewMsgSetValue([]*msg.App{old})) })
	g.Run(time.Second)
	if got := len(g.delivered(2)); got != len(want) {
		t.Fatalf("p2 delivered %d messages, want %d: a straggler was redelivered", got, len(want))
	}
	if st := e.Stats(); len(e.msgs.entries) != 0 || st.Received != 0 || st.OrderedQ != 0 || st.Unordered != 0 {
		t.Fatalf("stragglers left residue: %d records, %+v", len(e.msgs.entries), st)
	}
}

// TestRcvHoldsForForgottenIdentifier: Algorithm 1 lines 9-10 for a lagging
// proposer. A value naming a message this process delivered and forgot still
// passes the check and is never put on the fetch list; an identifier it never
// saw still fails it.
func TestRcvHoldsForForgottenIdentifier(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate []func(*Config)
		wanted int // identifiers on the fetch list at the end: the unseen one, under Recover only
	}{
		{"default", nil, 0},
		{"recover", []func(*Config){withRecovery(false)}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, perProc = 3, 20
			g := newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), 71, tc.mutate...)
			want := quiesce(t, g, n, perProc)
			e := g.engines[3]
			var delivered, unseen bool
			g.w.After(3, 0, func() {
				delivered = e.rcv(IDSetValue{Set: msg.NewIDSet(want[0], want[len(want)-1])})
				if !e.msgs.wanted.Empty() {
					t.Errorf("a delivered identifier entered wanted: %v", e.msgs.wanted.RawIDs())
				}
				unseen = e.rcv(IDSetValue{Set: msg.NewIDSet(want[0], msg.ID{Sender: 1, Seq: perProc + 1})})
			})
			g.Run(time.Millisecond)
			if !delivered || unseen {
				t.Fatalf("rcv(delivered ids) = %v, rcv(with an unseen id) = %v; want true, false", delivered, unseen)
			}
			if got := e.msgs.wanted.Len(); got != tc.wanted {
				t.Fatalf("wanted holds %d identifiers, want %d", got, tc.wanted)
			}
		})
	}
}

// TestClaimOutlivesDelivery: pipelined, with every process broadcasting at
// once, another process's batch routinely orders an identifier this process
// still claims for a later instance of its own. That record must survive its
// delivery — payload gone, claim intact — until the instance settles and
// release drops it.
func TestClaimOutlivesDelivery(t *testing.T) {
	const n, perProc = 3, 200
	var (
		g        *group
		next     int
		survived int
	)
	g = newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), 73, pipelined(4, 8),
		func(cfg *Config) {
			next++ // newGroup configures p1..pn in order
			p, deliver := next, cfg.Deliver
			cfg.Deliver = func(app *msg.App) {
				// The upcall runs right after deliverNext: only a claim can
				// have kept a record.
				if en, ok := g.engines[p].msgs.entries[app.ID]; ok {
					if !en.claimed || en.app != nil || en.phase != phaseDelivered {
						t.Errorf("p%d: %v kept record %+v past delivery", p, app.ID, en)
					}
					survived++
				}
				deliver(app)
			}
		})
	quiesce(t, g, n, perProc)
	if survived == 0 {
		t.Fatal("no claimed record was ever delivered: the scenario did not occur")
	}
	for p := 1; p <= n; p++ {
		if tb := &g.engines[p].msgs; len(tb.entries) != 0 || tb.claimed != 0 || tb.held != 0 {
			t.Fatalf("p%d: %d records, claimed=%d, held=%d after every instance settled", p, len(tb.entries), tb.claimed, tb.held)
		}
	}
}

// countingCtx counts the clock readings of the protocol code above it.
type countingCtx struct {
	stack.Context
	nows int
}

func (c *countingCtx) Now() time.Time {
	c.nows++
	return c.Context.Now()
}

// tracedRun broadcasts from three default-configuration engines to
// quiescence and returns what rec recorded and how often the stacks read the
// clock. With counted set the engines sit on nodes whose context counts
// Now(); the world's own nodes forward every envelope to them.
func tracedRun(t *testing.T, rec *trace.Recorder, counted bool) (events []trace.Event, nows int) {
	t.Helper()
	const n, perProc = 3, 30
	w := simnet.NewWorld(n, netmodel.Setup1(), 79)
	engines := make([]*Engine, n+1)
	ctxs := make([]*countingCtx, n+1)
	delivered := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p := stack.ProcessID(i)
		node := w.Node(p)
		if counted {
			ctxs[i] = &countingCtx{Context: w.Proc(p)}
			node = stack.NewNode(ctxs[i])
			for id := stack.ProtoFD; id <= stack.ProtoSnapshot; id++ {
				w.Node(p).Register(id, stack.HandlerFunc(func(from stack.ProcessID, inst uint64, m stack.Message) {
					node.Dispatch(from, stack.Envelope{Proto: id, Inst: inst, Msg: m})
				}))
			}
		}
		eng, err := New(node, Config{Variant: VariantIndirectCT, Trace: rec, Deliver: func(*msg.App) { delivered[i]++ }})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	for i := 1; i <= n; i++ {
		for s := 1; s <= perProc; s++ {
			w.After(stack.ProcessID(i), time.Duration(s)*time.Millisecond, func() { engines[i].ABroadcast([]byte("x")) })
		}
	}
	w.RunFor(5 * time.Second)
	for i := 1; i <= n; i++ {
		if delivered[i] != n*perProc {
			t.Fatalf("p%d delivered %d of %d", i, delivered[i], n*perProc)
		}
		if counted {
			nows += ctxs[i].nows
		}
	}
	return rec.Events(), nows
}

// TestDisabledTraceReadsNoClock holds the trace package's promise — a
// disabled trace costs a pointer test per hook — on the whole abroadcast →
// adeliver path of a default-configuration engine, where the trace stamp was
// the only reason to look at the clock; and with a recorder attached the
// clock is read once per event, for the same events as ever.
func TestDisabledTraceReadsNoClock(t *testing.T) {
	if _, nows := tracedRun(t, nil, true); nows != 0 {
		t.Fatalf("engines without a recorder read the clock %d times", nows)
	}
	plain, _ := tracedRun(t, trace.New(), false)
	events, nows := tracedRun(t, trace.New(), true)
	if len(events) == 0 || !reflect.DeepEqual(events, plain) {
		t.Fatalf("recorded %d events on counted nodes, %d on plain ones; the streams must be equal", len(events), len(plain))
	}
	if nows != len(events) {
		t.Fatalf("%d clock readings for %d recorded events", nows, len(events))
	}
}
