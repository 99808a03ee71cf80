// Package tcpnet executes protocol stacks over real TCP sockets: one OS
// process (or one Peer value) per protocol process, internal/wire-encoded
// envelopes on persistent connections, automatic redial. A Peer is a socket
// transport around one evloop.Proc event loop, which supplies everything
// that is not transport (inbox, wall-clock timers, crash).
//
// Together with internal/simnet (deterministic simulation) and
// internal/live (in-memory goroutines), this gives the repository the full
// Neko property the paper's methodology relies on: the same protocol code
// runs simulated, in-memory, and on a real network.
//
// Lifecycle: Listen → wire protocol layers on Node() → Start → Do/traffic →
// Close.
//
// Framing. A connection carries frames one way, each a 4-byte big-endian
// body length followed by the body, one wire.EncodeEnvelope image. A length
// above maxFrameBytes or an undecodable body drops the connection.
//
// Flush policy. Send encodes the frame in place at the end of what is
// pending for the connection and wakes the writer, which hands the kernel
// whatever is pending when it wakes, in one Write (one per runBytes when a
// burst outgrew a buffer). Nothing is ever delayed and nothing is tunable:
// a lone frame leaves at once in one syscall (TCP_NODELAY stays on), and
// frames sent while a Write is in flight leave together in the next.
//
// Partial writes. When a Write fails after n bytes, the frames wholly
// inside those n bytes count as sent, as a frame written just before a
// connection was lost always did; the writer redials and resends from the
// first frame boundary after them, found by walking the length prefixes.
// The receiver drops the torn frame with the old connection: no duplicate,
// and no hole the sender could know of.
//
// Buffer ownership on read. A buffered reader per connection lets one read
// syscall serve every frame it holds; each is dispatched before the next
// blocking read. The reader's buffer is wire.AliasMin bytes, so a frame
// that fits it carries no payload a decoded value could alias: it is
// decoded in the buffer and costs no allocation beyond what the protocol
// layers keep. A longer frame is read into a recycled buffer. When
// wire.Lendable says its envelope is a diffusion frame, the buffer is lent:
// the event loop dispatches the envelope through stack.Node.DispatchLent
// and hands the buffer back to the pool once the dispatch returns, so a
// duplicate relay, most of the O(n²) diffusion traffic, costs no frame
// allocation at all (rbcast copies a payload it keeps, at first receipt).
// Any other long frame keeps its buffer, which its payloads of
// wire.AliasMin bytes or more alias for as long as the layers keep them.
package tcpnet

import (
	"bufio"
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

const (
	// maxFrameBytes bounds a single envelope on the wire (defensive;
	// protocol envelopes are far smaller).
	maxFrameBytes = 64 << 20
	// frameChunk is how far ahead of the bytes received readFrame commits
	// memory: a peer claiming maxFrameBytes and sending nothing costs this.
	frameChunk = 1 << 20
	// runBytes is the size a pending run of frames is not regrown past,
	// and the largest written run kept for reuse: a burst's backlog is
	// neither copied as it grows nor pinned once it is gone.
	runBytes = 1 << 20

	dialBackoff = 50 * time.Millisecond // redial interval
	dialTimeout = 2 * time.Second
)

// Option configures a Peer.
type Option func(*config)

type config struct {
	seed        int64
	dialBackoff time.Duration                                                       // the dialBackoff constant; only tests shorten it
	dial        func(network, addr string, timeout time.Duration) (net.Conn, error) // only tests replace it
	scrub       func([]byte)                                                        // overwrites a lent frame buffer as it is returned; only tests set it
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
	cfg := config{seed: 1, dialBackoff: dialBackoff, dial: net.DialTimeout}
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
		p.wg.Add(1)
		go p.connect(q, addr).writeLoop()
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
	r := bufio.NewReaderSize(conn, wire.AliasMin)
	for {
		from, env, lent, err := readFrame(r)
		switch {
		case err != nil:
			return // closed, or a corrupted stream: drop the connection
		case lent != nil:
			lent.scrub = p.cfg.scrub
			p.proc.DeliverLent(from, env, lent)
		default:
			p.proc.Deliver(from, env)
		}
	}
}

// send is the transport: frame env at the end of what is pending for the
// connection to to, and wake its writer.
func (p *Peer) send(to stack.ProcessID, env stack.Envelope) {
	o := p.out[to]
	if o == nil || env.Msg == nil {
		return
	}
	o.mu.Lock()
	if n := len(o.pending); n == 0 {
		o.pending = append(o.pending, o.spare[0][:0])
		o.spare[0], o.spare[1] = o.spare[1], nil
	} else if last, need := o.pending[n-1], 4+env.WireSize()+16; len(last)+need > max(cap(last), runBytes) {
		// The writer is far behind (need is wire.EncodeEnvelope's estimate):
		// growing the run would copy the backlog over and over; start anew.
		o.pending = append(o.pending, make([]byte, 0, max(need, runBytes)))
	}
	last := len(o.pending) - 1
	run := o.pending[last]
	buf, err := wire.AppendEnvelope(append(run, 0, 0, 0, 0), p.proc.ID(), env)
	if err != nil {
		o.mu.Unlock()
		return // unencodable message: programming error upstream
	}
	binary.BigEndian.PutUint32(buf[len(run):], uint32(len(buf)-len(run)-4))
	o.pending[last] = buf
	o.mu.Unlock()
	o.depth.Add(int64(len(buf) - len(run)))
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// outbound is a persistent, self-healing connection to one peer with an
// unbounded pending buffer (reliable-channel semantics between correct
// processes: nothing is dropped while the process lives).
type outbound struct {
	peer  *Peer
	addr  string
	depth *metrics.Gauge // bytes framed by send and not yet written

	mu      sync.Mutex
	pending [][]byte      // runs of whole frames, in order; send appends to the last
	spare   [2][]byte     // written runs for send to reuse: the two a steady stream alternates
	wake    chan struct{} // posted by send; buffered so that send never blocks

	conn net.Conn // owned by writeLoop exclusively
}

// connect sets up the outbound connection to q; its writeLoop dials.
func (p *Peer) connect(q stack.ProcessID, addr string) *outbound {
	p.out[q] = &outbound{
		peer:  p,
		addr:  addr,
		depth: p.cfg.metrics.Gauge(fmt.Sprintf("tcpnet.pending_bytes.p%d", q)),
		wake:  make(chan struct{}, 1),
	}
	return p.out[q]
}

// writeLoop takes what is pending at each wake-up and writes it, one Write
// per run: one in all unless more than runBytes piled up meanwhile.
func (o *outbound) writeLoop() {
	defer o.peer.wg.Done()
	defer func() {
		if o.conn != nil {
			o.conn.Close()
		}
	}()
	var batch [][]byte
	for {
		o.mu.Lock()
		if len(batch) > 0 && cap(batch[0]) <= runBytes {
			o.spare[0], o.spare[1] = batch[0], o.spare[0] // a burst's other runs are let go
		}
		clear(batch)
		batch, o.pending = o.pending, batch[:0]
		o.mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-o.wake:
				continue
			case <-o.peer.stop:
				return
			}
		}
		for _, run := range batch {
			if !o.flush(run) {
				return
			}
			o.depth.Add(-int64(len(run)))
		}
	}
}

// flush puts batch, a run of whole frames, on the wire, (re)dialing until
// it is written or the peer closes (false): giving up earlier would leave
// a silent hole in the stream.
func (o *outbound) flush(batch []byte) bool {
	for len(batch) > 0 {
		select {
		case <-o.peer.stop:
			return false
		default:
		}
		if o.conn == nil {
			conn, err := o.peer.cfg.dial("tcp", o.addr, dialTimeout)
			if err != nil {
				// Peer not up (yet): back off and retry. A crashed peer
				// keeps us retrying, which is fine — channels only
				// promise delivery between correct processes.
				select {
				case <-o.peer.stop:
					return false
				case <-time.After(o.peer.cfg.dialBackoff):
				}
				continue
			}
			o.conn = conn
		}
		n, err := o.conn.Write(batch)
		if err == nil {
			return true
		}
		o.conn.Close()
		o.conn = nil
		batch = batch[wholeFrames(batch, n):] // redial and resend the rest
	}
	return true
}

// wholeFrames returns the length of the longest run of whole frames within
// the first n bytes of batch.
func wholeFrames(batch []byte, n int) int {
	end := 0
	for end+4 <= n {
		next := end + 4 + int(binary.BigEndian.Uint32(batch[end:]))
		if next > n {
			break
		}
		end = next
	}
	return end
}

// framePool recycles the buffers of lent frames (frameBuf), none of more
// than runBytes.
var framePool sync.Pool

// frameBuf is the buffer of a frame longer than the reader's, lent with the
// envelope decoded from it (evloop.Loan).
type frameBuf struct {
	data  []byte
	scrub func([]byte) // config.scrub of the reading peer
}

// Return implements evloop.Loan: the buffer goes back to the pool.
func (b *frameBuf) Return() {
	if b.scrub != nil {
		b.scrub(b.data)
		b.scrub = nil
	}
	framePool.Put(b)
}

// readFrame reads and decodes one length-prefixed frame. A frame that fits
// r's buffer is decoded where it lies (see the package doc). A longer one is
// read into a buffer from framePool, returned third when the envelope may
// be dispatched on loan (wire.Lendable), to be returned to the pool once its
// dispatch returns; otherwise the third result is nil and the envelope keeps
// the buffer.
func readFrame(r *bufio.Reader) (stack.ProcessID, stack.Envelope, *frameBuf, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return 0, stack.Envelope{}, nil, err
	}
	size := int(binary.BigEndian.Uint32(hdr))
	if size > maxFrameBytes {
		return 0, stack.Envelope{}, nil, errors.New("tcpnet: oversized frame")
	}
	if 4+size <= r.Size() {
		frame, err := r.Peek(4 + size)
		if err != nil {
			return 0, stack.Envelope{}, nil, err
		}
		from, env, err := wire.DecodeEnvelope(frame[4:])
		_, _ = r.Discard(4 + size) // cannot fail: Peek just buffered the frame
		return from, env, nil, err
	}
	_, _ = r.Discard(4) // cannot fail: Peek just buffered the four bytes
	b, _ := framePool.Get().(*frameBuf)
	if b == nil {
		b = new(frameBuf)
	}
	data := b.data[:0]
	for len(data) < size { // memory is committed a chunk ahead of the bytes at most
		n := min(size-len(data), frameChunk)
		if len(data)+n <= cap(data) {
			data = data[:len(data)+n] // recycled memory: ReadFull overwrites it
		} else {
			data = append(data, make([]byte, n)...)
		}
		if _, err := io.ReadFull(r, data[len(data)-n:]); err != nil {
			return 0, stack.Envelope{}, nil, err
		}
	}
	from, env, err := wire.DecodeEnvelope(data)
	if err != nil || !wire.Lendable(env) || cap(data) > runBytes {
		return from, env, nil, err // the envelope keeps data
	}
	b.data = data
	return from, env, b, nil
}
