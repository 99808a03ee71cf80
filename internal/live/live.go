// Package live executes protocol stacks on real goroutines: an in-memory
// transport with configurable latency between n evloop.Proc event loops,
// which supply everything that is not transport (inbox, wall-clock timers,
// crash and restart).
//
// The protocol implementations are exactly the ones the simulator runs —
// they only see stack.Context. This mirrors the Neko property the paper's
// evaluation relied on: one implementation, simulated or real execution.
package live

import (
	"sync"
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

	linkMu sync.Mutex
	links  map[linkKey]*evloop.Queue[func()]
	wg     sync.WaitGroup // the link goroutines

	stop     chan struct{} // aborts the links' delivery sleeps
	stopOnce sync.Once
}

type linkKey struct{ from, to stack.ProcessID }

// getLink returns (starting if needed) the link from→to: a FIFO
// delivery pipe whose single goroutine drains queued messages in order,
// each one sleeping until its delivery deadline.
func (net *Network) getLink(from, to stack.ProcessID) *evloop.Queue[func()] {
	net.linkMu.Lock()
	defer net.linkMu.Unlock()
	k := linkKey{from, to}
	l, ok := net.links[k]
	if !ok {
		l = evloop.NewQueue[func()]()
		net.links[k] = l
		net.wg.Add(1)
		go func() {
			defer net.wg.Done()
			for {
				fn, ok := l.Get(nil)
				if !ok {
					return
				}
				fn()
			}
		}()
	}
	return l
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
		links: make(map[linkKey]*evloop.Queue[func()], n*n),
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
	for _, l := range net.links {
		l.Discard()
	}
	net.linkMu.Unlock()
	net.wg.Wait()
}

// send is the transport: deliver env to the destination's inbox after the
// configured latency, in per-link FIFO order (like a TCP connection).
func (net *Network) send(from, to stack.ProcessID, env stack.Envelope) {
	src, dst := net.procs[from], net.procs[to]
	d, j := net.cfg.latency, time.Duration(0)
	if t := net.cfg.topo; t != nil {
		l := t.LinkOf(from, to)
		d, j = l.Latency, l.Jitter
	}
	if j > 0 {
		d += time.Duration(src.Rand().Int63n(int64(2*j))) - j
		if d < 0 {
			d = 0
		}
	}
	deadline := time.Now().Add(d)
	net.getLink(from, to).Put(func() {
		if wait := time.Until(deadline); wait > 0 {
			select {
			case <-net.stop:
				return
			case <-time.After(wait):
			}
		}
		if !src.Crashed() { // crashed senders lose in-flight messages
			dst.Deliver(from, env)
		}
	})
}
