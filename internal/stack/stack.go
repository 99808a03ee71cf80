// Package stack provides the protocol-composition framework shared by the
// simulated and the live (goroutine) runtimes.
//
// A distributed protocol is written once, as an event-driven Handler, and
// executed unchanged on either runtime. This mirrors the design of the Neko
// framework used in the paper, where the same protocol implementation runs in
// a simulated environment and on a real network.
//
// Each process hosts a Node. A Node multiplexes several protocol layers
// (failure detector, reliable broadcast, consensus, atomic broadcast), each
// identified by a ProtoID. Protocol messages travel wrapped in an Envelope
// that carries the protocol id and, for protocols that run many independent
// instances (consensus), an instance number.
//
// All events of a process — message deliveries and timer firings — are
// executed sequentially, so protocol implementations need no internal
// locking.
//
// The Sender hook (Node.SetSender) is the seam the recovery subsystem uses:
// internal/relink installs itself there to sequence and buffer every remote
// send without any protocol layer knowing, which is how the repository
// restores the paper's quasi-reliable-channel assumption over transports
// that lose messages (see internal/relink).
package stack

import (
	"math/rand"
	"sort"
	"time"
)

// ProcessID identifies a process. Processes are numbered 1..n as in the
// paper (Π = {p1, ..., pn}).
type ProcessID int

// Message is any protocol message. WireSize reports the number of bytes the
// message would occupy on the wire; the simulated network charges bandwidth
// and CPU per-byte costs based on it.
type Message interface {
	WireSize() int
}

// ProtoID identifies a protocol layer within a Node.
type ProtoID uint8

// Well-known protocol ids used by this repository's layers.
const (
	ProtoFD    ProtoID = 1 // heartbeat failure detector
	ProtoRB    ProtoID = 2 // reliable broadcast
	ProtoURB   ProtoID = 3 // uniform reliable broadcast
	ProtoCons  ProtoID = 4 // consensus / indirect consensus
	ProtoApp   ProtoID = 5 // application-level traffic (examples)
	ProtoBench ProtoID = 6 // benchmark harness control traffic
	ProtoLink  ProtoID = 7 // reliable-link recovery layer (internal/relink)
	ProtoSync  ProtoID = 8 // payload catch-up fetch/supply (internal/core)
	// ProtoSnapshot carries snapshot state transfer for deep catch-up: a
	// peer behind by more than the consensus decision log can retain is
	// shipped the delivered prefix plus engine state instead of a decision
	// replay (offer/accept/chunk messages, internal/core).
	ProtoSnapshot ProtoID = 9
)

// Envelope wraps a protocol message for transport.
type Envelope struct {
	Proto ProtoID
	Inst  uint64 // instance number (e.g. consensus serial number k); 0 if unused
	Msg   Message
}

// envelopeHeaderBytes approximates the header overhead of the envelope
// (protocol id, instance number, message type tag).
const envelopeHeaderBytes = 12

// WireSize implements Message.
func (e Envelope) WireSize() int {
	return envelopeHeaderBytes + e.Msg.WireSize()
}

// Context is the interface a runtime offers to a process. It is the only
// way protocol code interacts with the outside world, which keeps protocol
// implementations runtime-agnostic.
type Context interface {
	// ID returns this process's id (1-based).
	ID() ProcessID
	// N returns the total number of processes in the system.
	N() int
	// Now returns the current time. Virtual in the simulator, wall-clock
	// in the live runtime.
	Now() time.Time
	// Send transmits an envelope to the given process. Sending to the
	// local process is allowed and is delivered through the normal
	// dispatch path without crossing the network.
	Send(to ProcessID, env Envelope)
	// SetTimer schedules fn to run on this process's event loop after d.
	// The returned function cancels the timer (idempotent).
	SetTimer(d time.Duration, fn func()) (cancel func())
	// Work charges d of CPU time to this process. In the simulator this
	// delays the process's subsequent sends and event handling; in the
	// live runtime it is a no-op. It models computation such as the
	// rcv(v) identifier-set checks of indirect consensus.
	Work(d time.Duration)
	// Rand returns this process's deterministic random source.
	Rand() *rand.Rand
	// Crashed reports whether this process has crashed. A crashed process
	// receives no further events.
	Crashed() bool
	// Logf records a debug log line attributed to this process.
	Logf(format string, args ...any)
}

// Handler is a protocol layer: it receives the messages addressed to its
// ProtoID.
type Handler interface {
	Receive(from ProcessID, inst uint64, m Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from ProcessID, inst uint64, m Message)

// Receive implements Handler.
func (f HandlerFunc) Receive(from ProcessID, inst uint64, m Message) {
	f(from, inst, m)
}

// Sender intercepts outgoing envelopes before they reach the transport. A
// recovery layer (internal/relink) installs one to sequence and buffer
// remote sends; it forwards to Context.Send itself.
type Sender interface {
	Send(to ProcessID, env Envelope)
}

// Node multiplexes protocol layers on a single process.
type Node struct {
	ctx      Context
	handlers map[ProtoID]Handler
	sender   Sender
	group    []ProcessID // sorted broadcast member set; 1..N until SetGroup
	lent     bool        // a DispatchLent is under way
}

// NewNode creates a node bound to the given runtime context, broadcasting
// to the full group 1..N.
func NewNode(ctx Context) *Node {
	group := make([]ProcessID, ctx.N())
	for i := range group {
		group[i] = ProcessID(i + 1)
	}
	return &Node{
		ctx:      ctx,
		handlers: make(map[ProtoID]Handler),
		group:    group,
	}
}

// Context returns the runtime context the node is bound to.
func (n *Node) Context() Context { return n.ctx }

// Register installs the handler for a protocol id. Registering the same id
// twice replaces the previous handler; protocols are wired once at startup.
func (n *Node) Register(p ProtoID, h Handler) {
	n.handlers[p] = h
}

// Dispatch routes an incoming envelope to the protocol layer it belongs to.
// Envelopes for unregistered protocols are dropped; this happens only when a
// stack variant does not include a given layer.
func (n *Node) Dispatch(from ProcessID, env Envelope) {
	if h, ok := n.handlers[env.Proto]; ok {
		h.Receive(from, env.Inst, env.Msg)
	}
}

// DispatchLent is Dispatch for an envelope whose payload the transport
// lends only until it returns (see Proto.Lent): the buffer under it is
// recycled afterwards.
func (n *Node) DispatchLent(from ProcessID, env Envelope) {
	n.lent = true
	n.Dispatch(from, env)
	n.lent = false
}

// SetGroup restricts the node's broadcast fan-out to the given member set
// (sorted copy taken). The dynamic-membership engine calls it when a
// configuration change is delivered, so every layer broadcasting through the
// node — failure detector, diffusion, consensus — targets the live view
// without knowing about membership. The local process need not be a member:
// a joiner (or a retired leaver) keeps observing group traffic addressed to
// it point-to-point.
func (n *Node) SetGroup(members []ProcessID) {
	g := append([]ProcessID(nil), members...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	n.group = g
}

// Group returns the current broadcast member set, sorted (1..N unless
// SetGroup changed it). The returned slice is shared; callers must not
// mutate it.
func (n *Node) Group() []ProcessID { return n.group }

// SetSender installs an outbound interceptor: every remote send of every
// protocol layer on this node flows through s instead of going straight to
// the transport. Local (self) sends bypass it — they never cross the
// network, so there is nothing to recover. Installing nil restores direct
// transport sends.
func (n *Node) SetSender(s Sender) { n.sender = s }

// send routes one outgoing envelope: through the installed Sender for
// remote destinations, directly to the transport otherwise.
func (n *Node) send(to ProcessID, env Envelope) {
	if n.sender != nil && to != n.ctx.ID() {
		n.sender.Send(to, env)
		return
	}
	n.ctx.Send(to, env)
}

// Proto returns a protocol-scoped sending helper for the given layer.
func (n *Node) Proto(id ProtoID) Proto {
	return Proto{node: n, id: id}
}

// Proto is a protocol-scoped view of a Node: sends are automatically wrapped
// in an Envelope carrying the protocol's id.
type Proto struct {
	node *Node
	id   ProtoID
}

// Ctx returns the underlying runtime context.
func (p Proto) Ctx() Context { return p.node.ctx }

// Lent reports whether the envelope being dispatched came through
// Node.DispatchLent: its payload is then valid only until the handler
// returns, and a layer that keeps it, relays it or hands it on must copy it
// first. It is false on every runtime but a transport that lends.
func (p Proto) Lent() bool { return p.node.lent }

// Send transmits m to process q under this protocol's id.
func (p Proto) Send(q ProcessID, inst uint64, m Message) {
	p.node.send(q, Envelope{Proto: p.id, Inst: inst, Msg: m})
}

// Broadcast transmits m to every process of the node's group, including the
// sender. The paper's pseudo-code "send to all" includes the sending
// process; local delivery does not cross the network.
func (p Proto) Broadcast(inst uint64, m Message) {
	p.BroadcastOthers(inst, m)
	// Deliver to self last so that, on the live runtime, remote sends are
	// already queued before local processing triggers follow-up traffic —
	// and even when self is outside the group: a broadcasting joiner still
	// processes its own message locally.
	p.Send(p.node.ctx.ID(), inst, m)
}

// BroadcastOthers transmits m to every process of the node's group except
// the sender.
func (p Proto) BroadcastOthers(inst uint64, m Message) {
	self := p.node.ctx.ID()
	for _, q := range p.node.group {
		if q != self {
			p.Send(q, inst, m)
		}
	}
}
