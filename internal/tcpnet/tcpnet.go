// Package tcpnet executes protocol stacks over real TCP sockets: one OS
// process (or one Peer value) per protocol process, length-prefixed
// internal/wire-encoded envelopes on persistent connections, automatic
// redial. A Peer is a socket transport around one evloop.Proc event loop,
// which supplies everything that is not transport (inbox, wall-clock
// timers, crash).
//
// Together with internal/simnet (deterministic simulation) and
// internal/live (in-memory goroutines), this gives the repository the full
// Neko property the paper's methodology relies on: the same protocol code
// runs simulated, in-memory, and on a real network.
//
// Lifecycle: Listen → wire protocol layers on Node() → Start → Do/traffic →
// Close.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"abcast/internal/evloop"
	"abcast/internal/metrics"
	"abcast/internal/stack"
	"abcast/internal/wire"
)

// maxFrameBytes bounds a single envelope on the wire (defensive; protocol
// envelopes are far smaller).
const maxFrameBytes = 64 << 20

const (
	dialBackoff = 50 * time.Millisecond // redial interval
	dialTimeout = 2 * time.Second
)

// Option configures a Peer.
type Option func(*config)

type config struct {
	seed        int64
	dialBackoff time.Duration // the dialBackoff constant; only tests shorten it
	metricsAddr string
	metrics     *metrics.Registry
}

// WithSeed seeds the peer's random source.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithMetrics attaches a metrics registry to the peer; wire it into the
// protocol layers (e.g. core.Config.Metrics) so their counters land in it.
// Without WithMetricsAddr it is only readable in-process via Metrics().
func WithMetrics(r *metrics.Registry) Option { return func(c *config) { c.metrics = r } }

// WithMetricsAddr starts an HTTP exporter on addr alongside the peer:
// /metrics serves the peer's registry (prefixed "p<id>."), /debug/pprof/
// serves the standard profiling endpoints. A registry is created if
// WithMetrics did not supply one. Use MetricsAddr for the bound address
// (useful with ":0"); the exporter shuts down with Close.
func WithMetricsAddr(addr string) Option { return func(c *config) { c.metricsAddr = addr } }

// Peer is one protocol process attached to a TCP group.
type Peer struct {
	cfg     config
	proc    *evloop.Proc
	ln      net.Listener
	out     []*outbound // index 0 unused; nil at self and before Start
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup  // the accept, read and write loops
	msrv    *metrics.Server // nil without WithMetricsAddr
}

// Listen creates process self of an n-process group, listening on addr
// (e.g. "127.0.0.1:0"). Wire protocol layers on Node() before calling
// Start.
func Listen(self stack.ProcessID, n int, addr string, opts ...Option) (*Peer, error) {
	if self < 1 || int(self) > n {
		return nil, fmt.Errorf("tcpnet: process id %d out of range 1..%d", self, n)
	}
	cfg := config{seed: 1, dialBackoff: dialBackoff}
	for _, o := range opts {
		o(&cfg)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	if cfg.metricsAddr != "" && cfg.metrics == nil {
		cfg.metrics = metrics.New()
	}
	p := &Peer{
		cfg:  cfg,
		ln:   ln,
		out:  make([]*outbound, n+1),
		stop: make(chan struct{}),
	}
	if cfg.metricsAddr != "" {
		srv, err := metrics.Serve(cfg.metricsAddr, map[string]*metrics.Registry{
			fmt.Sprintf("p%d", self): cfg.metrics,
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		p.msrv = srv
	}
	p.proc = evloop.New(self, n, cfg.seed+int64(self)*31337, p.send)
	return p, nil
}

// Addr returns the actual listening address (useful with ":0").
func (p *Peer) Addr() string { return p.ln.Addr().String() }

// Metrics returns the peer's metrics registry (nil when neither WithMetrics
// nor WithMetricsAddr was used). Wire it into the protocol layers.
func (p *Peer) Metrics() *metrics.Registry { return p.cfg.metrics }

// MetricsAddr returns the bound address of the HTTP exporter, or "" when
// WithMetricsAddr was not used.
func (p *Peer) MetricsAddr() string {
	if p.msrv == nil {
		return ""
	}
	return p.msrv.Addr()
}

// Node returns the protocol node for wiring layers (before Start).
func (p *Peer) Node() *stack.Node { return p.proc.Node() }

// Start connects to the group and begins processing events. addrs maps
// every process id (including self, which is ignored) to its address.
func (p *Peer) Start(addrs map[stack.ProcessID]string) error {
	for q := stack.ProcessID(1); q <= stack.ProcessID(p.proc.N()); q++ {
		if q == p.proc.ID() {
			continue
		}
		addr, ok := addrs[q]
		if !ok {
			return fmt.Errorf("tcpnet: no address for process %d", q)
		}
		o := &outbound{peer: p, addr: addr, queue: evloop.NewQueue[func()]()}
		p.out[q] = o
		p.wg.Add(1)
		go o.writeLoop()
	}
	p.wg.Add(1)
	go p.acceptLoop()
	p.proc.Start()
	return nil
}

// Do runs fn on the peer's event loop.
func (p *Peer) Do(fn func()) { p.proc.Do(fn) }

// Crash makes the peer stop processing and sending without closing its
// sockets — used by fault-injection tests.
func (p *Peer) Crash() { p.proc.Crash() }

// Close shuts the peer down and waits for its goroutines.
func (p *Peer) Close() error {
	var err error
	p.stopped.Do(func() {
		close(p.stop)
		if p.msrv != nil {
			p.msrv.Close()
		}
		err = p.ln.Close()
		for _, o := range p.out {
			if o != nil {
				o.queue.Discard()
			}
		}
	})
	p.proc.Close()
	p.wg.Wait()
	return err
}

// acceptLoop accepts inbound connections from any peer.
func (p *Peer) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.wg.Add(1)
		go p.readLoop(conn)
	}
}

// readLoop decodes frames from one inbound connection into the event loop.
func (p *Peer) readLoop(conn net.Conn) {
	defer p.wg.Done()
	done := make(chan struct{})
	defer close(done)
	p.wg.Add(1)
	// Closes conn once this loop has returned, or under it to unblock its
	// read when the peer stops.
	go func() {
		defer p.wg.Done()
		select {
		case <-p.stop:
		case <-done:
		}
		conn.Close()
	}()
	for {
		data, err := readFrame(conn)
		if err != nil {
			return
		}
		from, env, err := wire.DecodeEnvelope(data)
		if err != nil {
			return // corrupted stream: drop the connection
		}
		p.proc.Deliver(from, env)
	}
}

// send is the transport: encode env and queue it on the connection to to.
func (p *Peer) send(to stack.ProcessID, env stack.Envelope) {
	if o := p.out[to]; o != nil {
		data, err := wire.EncodeEnvelope(p.proc.ID(), env)
		if err != nil {
			return // unencodable message: programming error upstream
		}
		o.queue.Put(func() { o.write(data) })
	}
}

// outbound is a persistent, self-healing connection to one peer with an
// unbounded send queue (reliable-channel semantics between correct
// processes: nothing is dropped while the process lives).
type outbound struct {
	peer  *Peer
	addr  string
	queue *evloop.Queue[func()]
	conn  net.Conn // owned by writeLoop exclusively
}

// writeLoop drains the queue; write handles (re)dialing.
func (o *outbound) writeLoop() {
	defer o.peer.wg.Done()
	defer func() {
		if o.conn != nil {
			o.conn.Close()
		}
	}()
	for {
		fn, ok := o.queue.Get(nil)
		if !ok {
			return
		}
		fn()
	}
}

// write puts one frame on the wire, (re)dialing until it is written or the
// peer closes: giving up earlier would leave a silent hole in the stream.
func (o *outbound) write(data []byte) {
	for {
		select {
		case <-o.peer.stop:
			return
		default:
		}
		if o.conn == nil {
			conn, err := net.DialTimeout("tcp", o.addr, dialTimeout)
			if err != nil {
				// Peer not up (yet): back off and retry. A crashed peer
				// keeps us retrying, which is fine — channels only
				// promise delivery between correct processes.
				select {
				case <-o.peer.stop:
					return
				case <-time.After(o.peer.cfg.dialBackoff):
				}
				continue
			}
			o.conn = conn
		}
		if err := writeFrame(o.conn, data); err != nil {
			o.conn.Close()
			o.conn = nil
			continue // redial and resend
		}
		return
	}
}

// writeFrame emits a length-prefixed frame.
func writeFrame(w io.Writer, data []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > maxFrameBytes {
		return nil, errors.New("tcpnet: oversized frame")
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	return data, nil
}
