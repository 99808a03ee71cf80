// Package rbcast implements the broadcast primitives beneath atomic
// broadcast:
//
//   - Eager: reliable broadcast with O(n²) messages — every process relays a
//     message on first receipt (the algorithm assumed in Chandra & Toueg's
//     reduction, and the "Reliable broadcast in O(n^2) messages" series of
//     Figures 5 and 7a).
//   - Lazy: reliable broadcast with O(n) messages in good runs — receivers
//     relay a message only if/when the failure detector suspects its sender
//     (the "Reliable broadcast in O(n) messages" series of Figures 6
//     and 7b).
//   - Uniform: uniform reliable broadcast — majority echo, two
//     communication steps, O(n²) messages, tolerating f < n/2 crashes. Used
//     by the alternative correct stack the paper compares against in
//     Section 4.4.
//
// All three satisfy Validity, Uniform integrity and Agreement; Uniform
// additionally satisfies uniform agreement (if *any* process delivers m,
// every correct process eventually delivers m).
//
// All three decide "seen before" through a msg.SeenSet, so duplicate
// suppression costs O(senders) however long the run; what a broadcast holds
// beyond that — Lazy's unrelayed payloads, Uniform's undelivered records —
// it drops at Release.
//
// A transport may lend a received payload for the length of its dispatch
// (stack.Proto.Lent). Each broadcast then copies it once, at first receipt,
// before it relays, echoes, holds or delivers it; a duplicate, most of what
// O(n²) diffusion receives, is dropped uncopied.
package rbcast

import (
	"slices"

	"abcast/internal/fd"
	"abcast/internal/msg"
	"abcast/internal/stack"
)

// Deliver is the upcall invoked exactly once per delivered message.
type Deliver func(*msg.App)

// Broadcaster is the sending interface used by the atomic broadcast engine.
type Broadcaster interface {
	// Broadcast R-broadcasts (or uniform-R-broadcasts) the message to all
	// processes, including the sender.
	Broadcast(app *msg.App)
	// Rebroadcast re-diffuses an already-delivered message to the other
	// processes. The reliable broadcasts relay only on *first* receipt, so
	// their Agreement property is spent once the relays have been sent: if
	// those sends were black-holed (drop-mode partition) and evicted from
	// every retransmission buffer, no layer would ever offer the message
	// again. The recovery subsystem calls this for messages stuck
	// unordered too long; receivers that already hold the message drop the
	// duplicate, so delivery stays at-most-once.
	Rebroadcast(app *msg.App)
	// Release tells the broadcast that every member holds the message
	// durably (the engine calls it where the payload leaves its own table,
	// under persistence): whatever the broadcast retained for it — a payload
	// kept for a suspicion-triggered relay, holder bookkeeping — can go. The
	// identifier stays seen, so a straggling copy is still dropped without a
	// relay or an echo.
	Release(id msg.ID)
	// Retained reports how many per-message and per-sender entries the
	// broadcast currently keeps (for tests and monitoring): bounded by the
	// number of senders plus the unreleased messages.
	Retained() int
}

// Kind selects a broadcast algorithm.
type Kind int

// Available broadcast algorithms.
const (
	KindEager   Kind = iota + 1 // O(n²) reliable broadcast
	KindLazy                    // O(n) good-run reliable broadcast (needs a failure detector)
	KindUniform                 // uniform reliable broadcast (majority echo)
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindEager:
		return "rbcast-O(n2)"
	case KindLazy:
		return "rbcast-O(n)"
	case KindUniform:
		return "uniform-rbcast"
	default:
		return "rbcast-unknown"
	}
}

// DataMsg carries the application message.
type DataMsg struct {
	App *msg.App
}

// WireSize implements stack.Message.
func (d DataMsg) WireSize() int { return 1 + d.App.WireSize() }

// EchoMsg is the uniform-broadcast echo; it carries the full message because
// the echoing process cannot know whether the destination already holds it.
type EchoMsg struct {
	App *msg.App
}

// WireSize implements stack.Message.
func (e EchoMsg) WireSize() int { return 1 + e.App.WireSize() }

// diffusion is what the three broadcasts share: the protocol handle, the
// upcall, and the identifiers already seen — which is all that Eager keeps,
// so its Release and Retained are the defaults here.
type diffusion struct {
	proto   stack.Proto
	deliver Deliver
	seen    msg.SeenSet
}

// Broadcast implements Broadcaster for the reliable broadcasts: send to the
// others, deliver locally.
func (d *diffusion) Broadcast(app *msg.App) {
	if d.seen.Add(app.ID) {
		d.proto.BroadcastOthers(0, DataMsg{App: app})
		d.deliver(app)
	}
}

// Rebroadcast implements Broadcaster: re-send the data message to the other
// processes. No local re-delivery; receivers dedupe (Uniform's re-run their
// holder/echo bookkeeping idempotently).
func (d *diffusion) Rebroadcast(app *msg.App) { d.proto.BroadcastOthers(0, DataMsg{App: app}) }

// Release implements Broadcaster: nothing is held but the seen set, which
// keeps the identifier.
func (d *diffusion) Release(msg.ID) {}

// Retained implements Broadcaster.
func (d *diffusion) Retained() int { return d.seen.Entries() }

// keep gives a first receipt's app a payload of its own before it is
// relayed, echoed, held or delivered. Under a lent dispatch
// (stack.Proto.Lent) the payload is a window on a transport buffer that is
// reused once the dispatch returns, so it is copied into an allocation of
// exactly its length; app itself was decoded for this dispatch alone and is
// updated in place. Duplicates are dropped before this, uncopied.
func (d *diffusion) keep(app *msg.App) *msg.App {
	if d.proto.Lent() {
		app.Payload = append(make([]byte, 0, len(app.Payload)), app.Payload...)
	}
	return app
}

// Eager is the O(n²) reliable broadcast.
type Eager struct{ diffusion }

var _ Broadcaster = (*Eager)(nil)

// NewEager wires an eager reliable broadcast into the node under
// stack.ProtoRB.
func NewEager(node *stack.Node, deliver Deliver) *Eager {
	e := &Eager{diffusion{proto: node.Proto(stack.ProtoRB), deliver: deliver}}
	node.Register(stack.ProtoRB, stack.HandlerFunc(e.receive))
	return e
}

func (e *Eager) receive(_ stack.ProcessID, _ uint64, m stack.Message) {
	d, ok := m.(DataMsg)
	if !ok || !e.seen.Add(d.App.ID) {
		return
	}
	app := e.keep(d.App)
	// Relay on first receipt: this is what makes the broadcast reliable
	// (Agreement) despite sender crashes, at O(n²) message cost.
	e.proto.BroadcastOthers(0, DataMsg{App: app})
	e.deliver(app)
}

// Lazy is the O(n)-messages-in-good-runs reliable broadcast: a receiver
// relays a message only when the failure detector suspects the message's
// original sender, so in failure-free, suspicion-free runs each broadcast
// costs exactly n-1 messages.
type Lazy struct {
	diffusion
	detector fd.Detector
	// unrelayed holds, per origin and in arrival order, the messages this
	// process received and has not relayed: what it owes the group should
	// the origin become suspected. (The origin's own send is its relay.) A
	// message leaves when it is relayed or released.
	unrelayed map[stack.ProcessID][]*msg.App
}

var _ Broadcaster = (*Lazy)(nil)

// NewLazy wires a lazy reliable broadcast into the node under
// stack.ProtoRB. The detector drives crash-triggered relaying.
func NewLazy(node *stack.Node, detector fd.Detector, deliver Deliver) *Lazy {
	l := &Lazy{
		diffusion: diffusion{proto: node.Proto(stack.ProtoRB), deliver: deliver},
		detector:  detector,
		unrelayed: make(map[stack.ProcessID][]*msg.App),
	}
	node.Register(stack.ProtoRB, stack.HandlerFunc(l.receive))
	detector.Subscribe(func(q stack.ProcessID, suspected bool) {
		if suspected {
			l.relaySuspect(q)
		}
	})
	return l
}

// Release implements Broadcaster: every member has the message durably, so
// no suspicion of its origin can make a relay necessary any more.
func (l *Lazy) Release(id msg.ID) {
	apps := l.unrelayed[id.Sender]
	// Releases follow delivery order, which follows arrival order closely:
	// the match is at or near the front, and popping the front moves nothing.
	switch i := slices.IndexFunc(apps, func(a *msg.App) bool { return a.ID == id }); {
	case i < 0:
	case len(apps) == 1:
		delete(l.unrelayed, id.Sender)
	case i == 0:
		apps[0] = nil // the backing array must not pin the payload
		l.unrelayed[id.Sender] = apps[1:]
	default:
		l.unrelayed[id.Sender] = slices.Delete(apps, i, i+1)
	}
}

// Retained implements Broadcaster.
func (l *Lazy) Retained() int {
	n := l.seen.Entries()
	for _, apps := range l.unrelayed {
		n += len(apps)
	}
	return n
}

func (l *Lazy) receive(_ stack.ProcessID, _ uint64, m stack.Message) {
	d, ok := m.(DataMsg)
	if !ok || !l.seen.Add(d.App.ID) {
		return
	}
	app := l.keep(d.App)
	origin := app.ID.Sender
	if l.detector.Suspects(origin) {
		// The sender is already suspected: relay immediately.
		l.proto.BroadcastOthers(0, DataMsg{App: app})
	} else {
		l.unrelayed[origin] = append(l.unrelayed[origin], app)
	}
	l.deliver(app)
}

// relaySuspect relays every message whose origin q is now suspected.
func (l *Lazy) relaySuspect(q stack.ProcessID) {
	apps := l.unrelayed[q]
	delete(l.unrelayed, q)
	for _, app := range apps {
		l.proto.BroadcastOthers(0, DataMsg{App: app})
	}
}

// Uniform is uniform reliable broadcast: deliver only once a majority of
// processes is known to hold the message. Requires f < n/2.
type Uniform struct {
	diffusion // seen: every identifier delivered or released
	// pending has one record per message received and not yet delivered: the
	// payload, and who is known to hold it (distinct, in the order learned).
	pending map[msg.ID]*urbRec
}

type urbRec struct {
	app     *msg.App
	holders []stack.ProcessID
}

var _ Broadcaster = (*Uniform)(nil)

// NewUniform wires a uniform reliable broadcast into the node under
// stack.ProtoURB.
func NewUniform(node *stack.Node, deliver Deliver) *Uniform {
	u := &Uniform{
		diffusion: diffusion{proto: node.Proto(stack.ProtoURB), deliver: deliver},
		pending:   make(map[msg.ID]*urbRec),
	}
	node.Register(stack.ProtoURB, stack.HandlerFunc(u.receive))
	return u
}

// Broadcast implements Broadcaster.
func (u *Uniform) Broadcast(app *msg.App) {
	if !u.seen.Has(app.ID) && u.pending[app.ID] == nil {
		u.proto.BroadcastOthers(0, DataMsg{App: app})
		u.hold(app, u.proto.Ctx().ID())
	}
}

// Release implements Broadcaster: drop the record, keep the identifier seen.
// Delivery does that by itself; the engine's call matters for a message it
// obtained by another path (fetch, snapshot) while the record sat here short
// of a majority.
func (u *Uniform) Release(id msg.ID) {
	delete(u.pending, id)
	u.seen.Add(id)
}

// Retained implements Broadcaster.
func (u *Uniform) Retained() int { return u.seen.Entries() + len(u.pending) }

func (u *Uniform) receive(from stack.ProcessID, _ uint64, m stack.Message) {
	var app *msg.App
	switch mm := m.(type) {
	case DataMsg:
		app = mm.App
	case EchoMsg:
		app = mm.App
	default:
		return
	}
	if u.seen.Has(app.ID) {
		return // delivered or released: no echo for a straggling copy
	}
	if u.pending[app.ID] == nil {
		app = u.keep(app) // hold keeps it as the pending record's payload
		// Echo on first receipt so every process learns who holds m.
		u.proto.BroadcastOthers(0, EchoMsg{App: app})
	}
	u.hold(app, from, u.proto.Ctx().ID())
}

// hold records that ps hold app, and delivers it once a majority is known
// to: from then on the record is spent and the identifier merely seen.
func (u *Uniform) hold(app *msg.App, ps ...stack.ProcessID) {
	rec := u.pending[app.ID]
	if rec == nil {
		rec = &urbRec{app: app, holders: make([]stack.ProcessID, 0, Majority(u.proto.Ctx().N())+1)}
		u.pending[app.ID] = rec
	}
	for _, p := range ps {
		if !slices.Contains(rec.holders, p) {
			rec.holders = append(rec.holders, p)
		}
	}
	if len(rec.holders) >= Majority(u.proto.Ctx().N()) {
		u.Release(app.ID)
		u.deliver(rec.app)
	}
}

// Majority returns ⌈(n+1)/2⌉, the quorum used by uniform reliable broadcast
// and by the Chandra–Toueg consensus algorithms.
func Majority(n int) int { return (n + 2) / 2 }

// New constructs the broadcast of the given kind. The detector may be nil
// unless kind is KindLazy.
func New(kind Kind, node *stack.Node, detector fd.Detector, deliver Deliver) Broadcaster {
	switch kind {
	case KindEager:
		return NewEager(node, deliver)
	case KindLazy:
		return NewLazy(node, detector, deliver)
	case KindUniform:
		return NewUniform(node, deliver)
	default:
		panic("rbcast: unknown kind")
	}
}
