// Package evloop is the wall-clock process runtime shared by internal/live
// and internal/tcpnet: the unbounded Queue and the Proc core — one goroutine
// serializing every event of a protocol process (message dispatches, timer
// callbacks, injected actions), so protocol code stays lock-free. A
// transport supplies only how an envelope reaches another process;
// everything else a stack.Context promises lives here.
package evloop

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"abcast/internal/stack"
)

// Proc is one process's event loop; it implements stack.Context.
//
// Lifecycle: New → wire protocol layers on Node() → Start → Do/Deliver →
// Close. Events queued before Start wait for it.
type Proc struct {
	id     stack.ProcessID
	n      int
	rng    *rand.Rand                                   // drawn from on the loop only
	remote func(to stack.ProcessID, env stack.Envelope) // the transport
	node   atomic.Pointer[stack.Node]                   // swapped by Restart
	inbox  *Queue[event]
	loop   sync.WaitGroup

	closed  atomic.Bool // Close was called: the loop drops what it already took
	crashed atomic.Bool
	// epoch counts incarnations; Restart bumps it. Timer callbacks capture
	// the epoch they were armed under and drop themselves on mismatch, so a
	// dead incarnation's timers never fire into a new one.
	epoch atomic.Int64
}

var _ stack.Context = (*Proc)(nil)

// event is one inbox entry: an action to run (fn), or, when fn is nil, an
// envelope to dispatch. Envelopes travel as data so that Deliver allocates
// no closure per message.
type event struct {
	fn   func()
	from stack.ProcessID
	env  stack.Envelope
	loan Loan // non-nil: env's payload is lent until its dispatch returns
}

// Loan is the buffer a transport lends with an envelope (DeliverLent). The
// loop returns it once the envelope's dispatch has returned, or once a
// crashed process has dropped the envelope.
type Loan interface{ Return() }

// New creates process id of an n-process group. remote carries an envelope
// to another process; it is called on the loop, never for id itself and
// never once the process has crashed.
func New(id stack.ProcessID, n int, seed int64, remote func(to stack.ProcessID, env stack.Envelope)) *Proc {
	p := &Proc{
		id:     id,
		n:      n,
		rng:    rand.New(rand.NewSource(seed)),
		remote: remote,
		inbox:  NewQueue[event](),
	}
	p.node.Store(stack.NewNode(p))
	return p
}

// Start launches the event loop; all protocol code of the process runs on
// it. Call it once. A wake-up takes the whole backlog: one lock per burst.
func (p *Proc) Start() {
	p.loop.Add(1)
	go func() {
		defer p.loop.Done()
		var batch []event
		for {
			var ok bool
			if batch, ok = p.inbox.GetAll(batch, nil); !ok {
				return
			}
			for _, ev := range batch {
				switch {
				case p.crashed.Load() || p.closed.Load():
				case ev.fn != nil:
					ev.fn()
				case ev.loan != nil:
					p.node.Load().DispatchLent(ev.from, ev.env)
				default:
					p.node.Load().Dispatch(ev.from, ev.env)
				}
				if ev.loan != nil {
					ev.loan.Return()
				}
			}
		}
	}()
}

// Close discards pending events and waits for the loop to exit. It is
// idempotent; Do and Deliver afterwards are no-ops, and so is a timer that
// fires later: its callback finds the inbox shut.
func (p *Proc) Close() {
	p.closed.Store(true)
	p.inbox.Discard()
	p.loop.Wait()
}

// Node returns the protocol node of the current incarnation for wiring
// layers.
func (p *Proc) Node() *stack.Node { return p.node.Load() }

// Do runs fn on the event loop (used to inject application actions such as
// broadcasts).
func (p *Proc) Do(fn func()) { p.inbox.Put(event{fn: fn}) }

// Deliver queues an envelope received from process from for dispatch on
// the loop; transports call it from their own goroutines.
func (p *Proc) Deliver(from stack.ProcessID, env stack.Envelope) {
	p.inbox.Put(event{from: from, env: env})
}

// DeliverLent is Deliver for an envelope whose payload lies in a buffer the
// transport lends: the loop dispatches it through stack.Node.DispatchLent
// and then returns loan, so the buffer is reused once no layer can still be
// reading it. An envelope queued when Close discards the backlog takes its
// loan with it, to the garbage collector.
func (p *Proc) DeliverLent(from stack.ProcessID, env stack.Envelope, loan Loan) {
	p.inbox.Put(event{from: from, env: env, loan: loan})
}

// Crash stops the process: it handles no further events (its armed timers
// included) and sends nothing.
func (p *Proc) Crash() { p.crashed.Store(true) }

// Restart revives a crashed process as a fresh incarnation: a new protocol
// node on the same event loop. Bumping the incarnation epoch invalidates
// every timer the previous incarnation armed (a real restarted process has
// no memory of its timers), while envelopes still in flight toward the
// process deliver into the new incarnation — the at-least-once surface a
// restarted process faces on a real network. The caller wires a fresh
// protocol stack on the returned node (via Do, so no event precedes
// complete wiring). Restart of a non-crashed process is a caller bug: the
// old stack would keep running against a node no longer receiving traffic.
func (p *Proc) Restart() *stack.Node {
	p.epoch.Add(1) // kill the previous incarnation's timers first
	node := stack.NewNode(p)
	p.node.Store(node)
	p.crashed.Store(false)
	return node
}

// ID implements stack.Context.
func (p *Proc) ID() stack.ProcessID { return p.id }

// N implements stack.Context.
func (p *Proc) N() int { return p.n }

// Now implements stack.Context.
func (p *Proc) Now() time.Time { return time.Now() }

// Rand implements stack.Context.
func (p *Proc) Rand() *rand.Rand { return p.rng }

// Crashed implements stack.Context.
func (p *Proc) Crashed() bool { return p.crashed.Load() }

// Work implements stack.Context; on a wall-clock runtime computation costs
// are real, so no accounting is needed.
func (p *Proc) Work(time.Duration) {}

// Logf implements stack.Context; the wall-clock runtimes are quiet.
func (p *Proc) Logf(string, ...any) {}

// Send implements stack.Context. Self-sends skip the transport but still go
// through the inbox, preserving the "events are serialized" contract.
func (p *Proc) Send(to stack.ProcessID, env stack.Envelope) {
	switch {
	case p.crashed.Load():
	case to == p.id:
		p.Deliver(p.id, env)
	default:
		p.remote(to, env)
	}
}

// SetTimer implements stack.Context. The callback belongs to the arming
// incarnation: it is dropped if the process crashed or restarted (epoch
// mismatch) before it runs — checked again at execution, because a restart
// may land between the enqueue and the event loop draining it.
func (p *Proc) SetTimer(d time.Duration, fn func()) (cancel func()) {
	var cancelled atomic.Bool
	epoch := p.epoch.Load()
	t := time.AfterFunc(d, func() {
		if cancelled.Load() || p.crashed.Load() || p.epoch.Load() != epoch {
			return
		}
		p.Do(func() {
			if !cancelled.Load() && p.epoch.Load() == epoch {
				fn()
			}
		})
	})
	return func() {
		cancelled.Store(true)
		t.Stop()
	}
}
