// Package live executes protocol stacks on real goroutines: an in-memory
// transport with configurable latency between n evloop.Proc event loops,
// which supply everything that is not transport (inbox, wall-clock timers,
// crash and restart).
//
// A hop is data: send puts a {due instant, envelope} parcel on the link's
// queue, and the link's one goroutine takes the queue a backlog at a time,
// sleeps out whatever latency a parcel still owes and hands it to the
// destination's inbox. No closure, timer or lock of the network's is spent
// on a message that is already due.
//
// The protocol implementations are exactly the ones the simulator runs —
// they only see stack.Context. This mirrors the Neko property the paper's
// evaluation relied on: one implementation, simulated or real execution.
package live

import (
	"sync"
	"sync/atomic"
	"time"

	"abcast/internal/evloop"
	"abcast/internal/netmodel"
	"abcast/internal/stack"
)

// Option configures a Network.
type Option func(*config)

type config struct {
	latency time.Duration
	topo    *netmodel.Topology
	seed    int64
}

// WithLatency sets the one-way message latency (default 200µs).
func WithLatency(d time.Duration) Option { return func(c *config) { c.latency = d } }

// WithTopology gives each directed link the latency and jitter of the
// topology's site-pair link, overriding the uniform WithLatency value (link
// bandwidth is not modelled on the live runtime — messages cross an
// in-memory channel, so transmission time is effectively zero).
// A nil topology leaves the uniform network in place.
func WithTopology(t *netmodel.Topology) Option { return func(c *config) { c.topo = t } }

// WithSeed seeds the per-process random sources.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// Proc is one live process: the shared event-loop core.
type Proc = evloop.Proc

// Network is an in-memory message-passing network of n processes. Each
// ordered process pair is connected by a FIFO link (like a TCP connection):
// messages between the same two processes are delivered in send order.
type Network struct {
	cfg   config
	procs []*Proc // index 0 unused

	// links is the dense from×to table of the started links, row from at
	// from*len(procs). Both indexes are this network's own process ids (the
	// sending Proc's, and a destination the protocol layers took from 1..n),
	// never a value off a wire. A slot is published once, under linkMu, and
	// read without it.
	links  []atomic.Pointer[link]
	linkMu sync.Mutex
	wg     sync.WaitGroup // the link goroutines

	stop     chan struct{} // aborts the links' delivery sleeps
	stopOnce sync.Once
}

// link is one directed FIFO delivery pipe.
type link = evloop.Queue[parcel]

// parcel is one envelope in flight: it may reach the destination's inbox
// no earlier than due.
type parcel struct {
	due time.Time
	env stack.Envelope
}

// getLink returns (starting if needed) the link from→to.
func (net *Network) getLink(from, to stack.ProcessID) *link {
	slot := &net.links[int(from)*len(net.procs)+int(to)]
	if l := slot.Load(); l != nil {
		return l
	}
	net.linkMu.Lock()
	defer net.linkMu.Unlock()
	l := slot.Load()
	if l == nil {
		l = evloop.NewQueue[parcel]()
		slot.Store(l)
		net.wg.Add(1)
		go net.runLink(l, from, to)
	}
	return l
}

// runLink is link from→to's goroutine: it delivers queued parcels in send
// order, a backlog per wake-up. The clock is read once per backlog and again
// only for a parcel that reading does not show due.
func (net *Network) runLink(l *link, from, to stack.ProcessID) {
	defer net.wg.Done()
	src, dst := net.procs[from], net.procs[to]
	var batch []parcel
	for {
		var ok bool
		if batch, ok = l.GetAll(batch, nil); !ok {
			return
		}
		var now time.Time // not read yet for this backlog
		for _, pc := range batch {
			if pc.due.After(now) {
				now = time.Now()
				if wait := pc.due.Sub(now); wait > 0 {
					select {
					case <-net.stop:
						return
					case <-time.After(wait):
						now = pc.due // it is at least that late
					}
				}
			}
			if !src.Crashed() { // crashed senders lose in-flight messages
				dst.Deliver(from, pc.env)
			}
		}
	}
}

// NewNetwork starts n process event loops.
func NewNetwork(n int, opts ...Option) *Network {
	cfg := config{latency: 200 * time.Microsecond, seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	net := &Network{
		cfg:   cfg,
		procs: make([]*Proc, n+1),
		links: make([]atomic.Pointer[link], (n+1)*(n+1)),
		stop:  make(chan struct{}),
	}
	for i := 1; i <= n; i++ {
		from := stack.ProcessID(i)
		net.procs[i] = evloop.New(from, n, cfg.seed+int64(i)*104729, func(to stack.ProcessID, env stack.Envelope) {
			net.send(from, to, env)
		})
		net.procs[i].Start()
	}
	return net
}

// Node returns the protocol node of process p for wiring layers. Wire all
// layers before injecting traffic.
func (net *Network) Node(p stack.ProcessID) *stack.Node { return net.procs[p].Node() }

// Proc returns the runtime context of process p.
func (net *Network) Proc(p stack.ProcessID) *Proc { return net.procs[p] }

// Do runs fn on process p's event loop (used to inject application
// actions such as broadcasts).
func (net *Network) Do(p stack.ProcessID, fn func()) { net.procs[p].Do(fn) }

// Crash stops process p: it handles no further events and its pending sends
// are dropped. Restart revives it as a fresh incarnation.
func (net *Network) Crash(p stack.ProcessID) { net.procs[p].Crash() }

// Restart revives a crashed process as a fresh incarnation (see
// evloop.Proc.Restart); the caller wires a fresh protocol stack on the
// returned node, typically rehydrating it from a persist.Store the previous
// incarnation wrote.
func (net *Network) Restart(p stack.ProcessID) *stack.Node { return net.procs[p].Restart() }

// Close shuts down every process loop, then every link, and waits for
// their goroutines to exit. Senders stop first so that no loop can open a
// new link behind the sweep.
func (net *Network) Close() {
	for _, p := range net.procs[1:] {
		p.Close()
	}
	net.stopOnce.Do(func() { close(net.stop) })
	net.linkMu.Lock()
	for i := range net.links {
		if l := net.links[i].Load(); l != nil {
			l.Discard()
		}
	}
	net.linkMu.Unlock()
	net.wg.Wait()
}

// send is the transport: deliver env to the destination's inbox after the
// configured latency, in per-link FIFO order (like a TCP connection).
func (net *Network) send(from, to stack.ProcessID, env stack.Envelope) {
	d, j := net.cfg.latency, time.Duration(0)
	if t := net.cfg.topo; t != nil {
		l := t.LinkOf(from, to)
		d, j = l.Latency, l.Jitter
	}
	if j > 0 {
		d += time.Duration(net.procs[from].Rand().Int63n(int64(2*j))) - j
		if d < 0 {
			d = 0
		}
	}
	net.getLink(from, to).Put(parcel{due: time.Now().Add(d), env: env})
}
