package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"abcast/internal/consensus"
	"abcast/internal/core"
	"abcast/internal/fd"
	"abcast/internal/msg"
	"abcast/internal/rbcast"
	"abcast/internal/relink"
	"abcast/internal/stack"
	"abcast/internal/wire"
)

// Tests of the socket path: framing and decoding in place, one Write per
// wake-up, resend from a frame boundary, and the adversarial length prefix.

// numbered is test frame seq: a payload of size bytes, each byte(seq).
func numbered(seq, size int) stack.Message {
	return rbcast.DataMsg{App: &msg.App{
		ID:      msg.ID{Sender: 1, Seq: uint64(seq)},
		Payload: bytes.Repeat([]byte{byte(seq)}, size),
	}}
}

// mixed is the size of frame seq in the real-socket streams: 64 B frames
// between frames well above a socket buffer's worth of small ones, so that
// the kernel takes a batch in several pieces.
func mixed(seq int) int {
	if seq%2 == 0 {
		return 24 << 10
	}
	return 64
}

// seqOf checks a received test frame and returns its number.
func seqOf(t *testing.T, m stack.Message) int {
	app := m.(rbcast.DataMsg).App
	seq := int(app.ID.Seq)
	if !bytes.Equal(app.Payload, bytes.Repeat([]byte{byte(seq)}, len(app.Payload))) {
		t.Errorf("frame %d: payload corrupted", seq)
	}
	return seq
}

// sender is a started peer 1 of a 2-process group whose peer 2 is at addr.
func sender(t *testing.T, addr string, dial func(network, addr string, timeout time.Duration) (net.Conn, error)) *Peer {
	t.Helper()
	p, err := Listen(1, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	p.cfg.dialBackoff = time.Millisecond
	if dial != nil {
		p.cfg.dial = dial
	}
	if err := p.Start(map[stack.ProcessID]string{2: addr}); err != nil {
		t.Fatal(err)
	}
	return p
}

// stream sends frames first..last to peer 2 from p's event loop, in one
// event, and returns once they are all framed.
func stream(p *Peer, first, last int, size func(int) int) {
	done := make(chan struct{})
	p.Do(func() {
		for seq := first; seq <= last; seq++ {
			p.Node().Proto(stack.ProtoApp).Send(2, 0, numbered(seq, size(seq)))
		}
		close(done)
	})
	<-done
}

// sink is a started peer 2 logging the test frames it dispatches.
type sink struct {
	*Peer
	mu  sync.Mutex
	got []int
}

// newSink starts the sink on addr; on, if not nil, runs on its event loop
// after each frame is logged.
func newSink(t *testing.T, addr string, on func(seq int)) *sink {
	t.Helper()
	p, err := Listen(2, 2, addr)
	if err != nil {
		t.Skipf("reserved address taken meanwhile: %v", err)
	}
	s := &sink{Peer: p}
	t.Cleanup(func() { p.Close() })
	p.Node().Register(stack.ProtoApp, stack.HandlerFunc(func(_ stack.ProcessID, _ uint64, m stack.Message) {
		seq := seqOf(t, m)
		s.mu.Lock()
		s.got = append(s.got, seq)
		s.mu.Unlock()
		if on != nil {
			on(seq)
		}
	}))
	// The sink sends nothing, so it never dials this address.
	if err := p.Start(map[stack.ProcessID]string{1: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	return s
}

// eventually polls cond until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// wait blocks until the sink has logged n frames and returns them.
func (s *sink) wait(t *testing.T, n int) []int {
	t.Helper()
	var got []int
	eventually(t, fmt.Sprintf("%d frames", n), func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		got = append(got[:0], s.got...)
		return len(got) >= n
	})
	return got
}

func wantInOrder(t *testing.T, got []int, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("received %d frames, want %d: %v", len(got), n, got)
	}
	for i, seq := range got {
		if seq != i+1 {
			t.Fatalf("stream has a hole, a duplicate or a swap at %d: %v", i, got)
		}
	}
}

// tornConn takes the first left bytes written to it and then fails, like a
// connection lost in the middle of a write.
type tornConn struct {
	net.Conn // nil: flush uses Write and Close only
	buf      bytes.Buffer
	left     int
}

func (c *tornConn) Write(b []byte) (int, error) {
	n := min(len(b), c.left)
	c.buf.Write(b[:n])
	c.left -= n
	if n < len(b) {
		return n, io.ErrClosedPipe
	}
	return n, nil
}

func (c *tornConn) Close() error { return nil }

// TestFailedWriteResendsFromFrameBoundary fails the first connection after
// n bytes, for every n across a batch of three frames. A receiver reads
// each connection to its end, dropping a torn last frame with it, so what
// it reads off the connections in turn must be every frame once, in order.
func TestFailedWriteResendsFromFrameBoundary(t *testing.T) {
	p, err := Listen(1, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	o := p.connect(2, "unused")
	for seq, size := range []int{64, 0, 300} {
		p.send(2, stack.Envelope{Proto: stack.ProtoApp, Msg: numbered(seq+1, size)})
	}
	batch := o.pending[0]
	if got := o.depth.Value(); got != int64(len(batch)) {
		t.Fatalf("pending gauge %d with %d bytes framed", got, len(batch))
	}
	for n := 0; n <= len(batch); n++ {
		var conns []*tornConn
		p.cfg.dial = func(string, string, time.Duration) (net.Conn, error) {
			c := &tornConn{left: math.MaxInt}
			if len(conns) == 0 {
				c.left = n
			}
			conns = append(conns, c)
			return c, nil
		}
		o.conn = nil
		if !o.flush(batch) {
			t.Fatalf("n=%d: flush gave up", n)
		}
		var got []int
		for _, c := range conns {
			r := bufio.NewReader(&c.buf)
			for {
				_, env, _, err := readFrame(r)
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					break // end of this connection, torn frame included
				}
				if err != nil {
					t.Fatalf("n=%d: whole frame does not decode: %v", n, err)
				}
				got = append(got, seqOf(t, env.Msg))
			}
		}
		if want := 1 + min(1, len(batch)-n); len(conns) != want {
			t.Fatalf("n=%d: %d connections, want %d", n, len(conns), want)
		}
		wantInOrder(t, got, 3)
	}
}

// TestBacklogIsSplitIntoRuns: frames queued behind an absent writer are not
// grown into one buffer past runBytes, and leave in the order they came.
func TestBacklogIsSplitIntoRuns(t *testing.T) {
	p, err := Listen(1, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	o := p.connect(2, "unused")
	const frames = 100 // about 2.4 MiB
	for seq := 1; seq <= frames; seq++ {
		p.send(2, stack.Envelope{Proto: stack.ProtoApp, Msg: numbered(seq, 24<<10)})
	}
	if len(o.pending) < 2 {
		t.Fatalf("%d run for a backlog of %d bytes", len(o.pending), o.depth.Value())
	}
	conn := &tornConn{left: math.MaxInt}
	p.cfg.dial = func(string, string, time.Duration) (net.Conn, error) { return conn, nil }
	for i, run := range o.pending {
		if cap(run) > 2*runBytes { // append may round the last growth up to runBytes past it
			t.Fatalf("run %d was grown to %d bytes", i, cap(run))
		}
		if !o.flush(run) {
			t.Fatal("flush gave up")
		}
	}
	r := bufio.NewReader(&conn.buf)
	for seq := 1; seq <= frames; seq++ {
		if _, env, _, err := readFrame(r); err != nil || seqOf(t, env.Msg) != seq {
			t.Fatalf("frame %d: out of order or undecodable (%v)", seq, err)
		}
	}
}

// countingConn counts Write calls, and holds them while a gate is set.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	gate   chan struct{}
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	gate := c.gate
	c.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return c.Conn.Write(b)
}

func (c *countingConn) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// TestOneWritePerWakeUp: a lone frame leaves in exactly one Write, and a
// burst framed while the writer is stuck in a Write leaves in the next one.
func TestOneWritePerWakeUp(t *testing.T) {
	s := newSink(t, "127.0.0.1:0", nil)
	cc := &countingConn{}
	p := sender(t, s.Addr(), func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		cc.Conn = conn
		return cc, err
	})
	stream(p, 1, 1, mixed)
	s.wait(t, 1)
	if got := cc.count(); got != 1 {
		t.Fatalf("a lone frame took %d writes", got)
	}

	gate := make(chan struct{})
	cc.mu.Lock()
	cc.gate = gate
	cc.mu.Unlock()
	stream(p, 2, 2, mixed) // occupies the writer
	eventually(t, "the writer to reach the gated Write", func() bool { return cc.count() == 2 })
	const burst = 100
	stream(p, 3, 2+burst, mixed)
	cc.mu.Lock()
	cc.gate = nil
	cc.mu.Unlock()
	close(gate)
	wantInOrder(t, s.wait(t, 2+burst), 2+burst)
	if got := cc.count() - 2; got > 2 {
		t.Fatalf("a burst of %d frames behind a blocked writer took %d writes", burst, got)
	}
}

// TestLatePeerReceivesEveryFrame: the writer redials for as long as it
// takes, so a peer that comes up late — here after several hundred refused
// dials — reads the stream from frame 1 with no hole, although the kernel
// takes the backlog, a single Write of large and small frames, piecemeal.
// Afterwards nothing is pending and no buffer above runBytes is kept.
func TestLatePeerReceivesEveryFrame(t *testing.T) {
	// An address nobody listens on yet: dials to it are refused.
	hold, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := hold.Addr().String()
	hold.Close()

	p := sender(t, addr, nil)
	const frames = 128 // about 1.5 MiB
	stream(p, 1, frames, mixed)
	o := p.out[2]
	if got := o.depth.Value(); got < frames/2*(24<<10) {
		t.Fatalf("pending gauge %d with the whole stream queued", got)
	}
	time.Sleep(600 * time.Millisecond) // several hundred refused dials at the 1 ms backoff

	s := newSink(t, addr, nil)
	wantInOrder(t, s.wait(t, frames), frames)
	eventually(t, "the pending gauge to return to 0", func() bool { return o.depth.Value() == 0 })
	stream(p, frames+1, frames+1, mixed) // the writer is past the flush once this one arrives
	s.wait(t, frames+1)
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.pending) > 0 || cap(o.spare[0]) > runBytes || cap(o.spare[1]) > runBytes {
		t.Fatalf("%d runs pending, spares of %d and %d bytes after the burst", len(o.pending), cap(o.spare[0]), cap(o.spare[1]))
	}
}

// oneRedial reports whether got is frames 1..k in order followed or
// interleaved by frames k+1..len(got) in order, for some k: what a receiver
// dispatches when the stream moved to a second connection after frame k,
// each connection having its own reader.
func oneRedial(got []int) bool {
	for k := 0; k <= len(got); k++ {
		first, second := 0, k // last frame seen of either run
		for _, seq := range got {
			if seq == first+1 && seq <= k {
				first = seq
			} else if seq == second+1 {
				second = seq
			} else {
				first = -1 // neither run continues with seq
				break
			}
		}
		if first == k && second == len(got) {
			return true
		}
	}
	return false
}

// TestKilledConnectionLosesAndRepeatsNothing closes the connection under a
// Write that the kernel has taken part of: the rest goes out on a new
// connection from the first frame the old one did not carry whole.
func TestKilledConnectionLosesAndRepeatsNothing(t *testing.T) {
	var mu sync.Mutex
	var conns []net.Conn
	s := newSink(t, "127.0.0.1:0", func(seq int) {
		if seq == 16 {
			mu.Lock()
			conns[0].Close()
			mu.Unlock()
		}
	})
	p := sender(t, s.Addr(), func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		if err == nil {
			// A small send buffer keeps the writer inside Write while the
			// receiver works through the stream.
			err = conn.(*net.TCPConn).SetWriteBuffer(16 << 10)
		}
		mu.Lock()
		conns = append(conns, conn)
		mu.Unlock()
		return conn, err
	})
	const frames = 256 // about 3 MiB
	stream(p, 1, frames, mixed)
	got := s.wait(t, frames)
	if len(got) != frames || !oneRedial(got) {
		t.Fatalf("stream lost, repeated or reordered frames: %v", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(conns) != 2 {
		t.Fatalf("%d connections: the kill did not land inside a Write", len(conns))
	}
}

// header is a length prefix claiming size body bytes.
func header(size uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, size)
}

// TestHostileLengthPrefix: the prefix is unauthenticated. One above the
// bound drops the connection; one at the bound with no body behind it costs
// a chunk of memory, not the claimed size, and holds nothing once it ends.
func TestHostileLengthPrefix(t *testing.T) {
	p, err := Listen(1, 1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Start(nil); err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(header(maxFrameBytes + 1)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("oversized frame: read %v, want the connection closed", err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn, err = net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append(header(maxFrameBytes), "no more than this"...)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the reader has the prefix and waits for the body
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*frameChunk {
		t.Fatalf("a bare %d-byte claim cost %d bytes", maxFrameBytes, got)
	}
	conn.Close()
	eventually(t, "the reader to exit with its connection", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// frame is m as peer 1 frames it for the wire: length prefix, then body.
func frame(t testing.TB, m stack.Message) []byte {
	t.Helper()
	body, err := wire.EncodeEnvelope(1, stack.Envelope{Proto: stack.ProtoApp, Msg: m})
	if err != nil {
		t.Fatal(err)
	}
	return append(header(uint32(len(body))), body...)
}

// TestReadFrameGrowsLargeBodies: a body above frameChunk arrives intact
// through the chunked path, is not lent (its buffer is larger than the pool
// keeps), and a truncated one is an error.
func TestReadFrameGrowsLargeBodies(t *testing.T) {
	app := &msg.App{ID: msg.ID{Sender: 1, Seq: 1}, Payload: make([]byte, 2*frameChunk+frameChunk/2+3)}
	for i := range app.Payload {
		app.Payload[i] = byte(i * 7)
	}
	stream := frame(t, rbcast.DataMsg{App: app})
	_, env, lent, err := readFrame(bufio.NewReader(bytes.NewReader(stream)))
	if err != nil || !bytes.Equal(env.Msg.(rbcast.DataMsg).App.Payload, app.Payload) {
		t.Fatalf("large frame mangled (err %v)", err)
	}
	if lent != nil {
		t.Fatalf("a %d-byte buffer was lent, to be pooled", cap(lent.data))
	}
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(stream[:len(stream)-1]))); err == nil {
		t.Fatal("truncated large frame accepted")
	}
}

// sizedFrame is a test frame of exactly size bytes, length prefix included.
func sizedFrame(t *testing.T, seq, size int) []byte {
	t.Helper()
	n := size - len(frame(t, numbered(seq, 0)))
	for len(frame(t, numbered(seq, n))) > size { // the payload's length prefix grows with it
		n--
	}
	f := frame(t, numbered(seq, n))
	if len(f) != size {
		t.Fatalf("no frame of %d bytes", size)
	}
	return f
}

// TestReadFrameInPlace passes one stream through readFrame: frames that fit
// the reader's buffer are decoded where they lie, a longer frame that is
// not a diffusion frame keeps a buffer of its own, and each must still be
// intact once the reader has moved past it, reused its buffer and recycled
// the lent frames that came after.
func TestReadFrameInPlace(t *testing.T) {
	const size = wire.AliasMin // the reader's buffer
	supply := core.SupplyMsg{Apps: []*msg.App{numbered(4, 16<<10).(rbcast.DataMsg).App}}
	frames := [][]byte{
		frame(t, consensus.CTAckMsg{R: 2}),
		frame(t, numbered(1, 64)),
		sizedFrame(t, 2, size), // the largest frame read in place
		frame(t, supply),       // a long frame that is not lent
		sizedFrame(t, 3, size+1),
		frame(t, numbered(5, 16<<10)),
		frame(t, numbered(6, 64)),
	}
	r := bufio.NewReaderSize(bytes.NewReader(bytes.Join(frames, nil)), size)
	if r.Size() != size {
		t.Fatalf("reader buffer of %d bytes, want %d", r.Size(), size)
	}
	kept := map[int]stack.Envelope{}
	for i := range frames {
		_, env, lent, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if long := len(frames[i]) > size; long != (lent != nil || i == 3) {
			t.Fatalf("frame %d (%d bytes): lent %v", i, len(frames[i]), lent != nil)
		}
		if lent != nil {
			if again := frame(t, env.Msg); !bytes.Equal(again, frames[i]) {
				t.Errorf("lent frame %d (%d bytes) changed before its return", i, len(frames[i]))
			}
			lent.scrub = func(b []byte) { clear(b) }
			lent.Return()
			continue
		}
		kept[i] = env
	}
	if _, _, _, err := readFrame(r); err != io.EOF {
		t.Fatalf("after the stream: %v, want EOF", err)
	}
	for i, env := range kept {
		if again := frame(t, env.Msg); !bytes.Equal(again, frames[i]) {
			t.Errorf("frame %d (%d bytes) changed after the reader moved on", i, len(frames[i]))
		}
	}
}

// TestInPlaceReadAllocatesNothing: a frame read in place costs what decoding
// its envelope costs and nothing more; a heartbeat, which decodes to nothing
// the layers keep, costs nothing at all.
func TestInPlaceReadAllocatesNothing(t *testing.T) {
	for _, m := range []stack.Message{fd.HeartbeatMsg{}, consensus.CTAckMsg{R: 2}, numbered(1, 64)} {
		f := frame(t, m)
		const runs = 100
		r := bufio.NewReaderSize(bytes.NewReader(bytes.Repeat(f, runs+1)), wire.AliasMin)
		read := testing.AllocsPerRun(runs, func() {
			if _, _, _, err := readFrame(r); err != nil {
				t.Fatal(err)
			}
		})
		decode := testing.AllocsPerRun(runs, func() {
			if _, _, err := wire.DecodeEnvelope(f[4:]); err != nil {
				t.Fatal(err)
			}
		})
		if read != decode {
			t.Errorf("%T: a frame read allocates %v, its decode %v", m, read, decode)
		}
		if _, ok := m.(fd.HeartbeatMsg); ok && read != 0 {
			t.Errorf("a heartbeat frame read allocates %v", read)
		}
	}
}

// TestLentFrameAllocatesNothing: in steady state a 16 KiB diffusion frame,
// bare or sequenced by relink, is read into a recycled buffer and returned
// after dispatch, so reading it allocates nothing beyond its decode (the
// App record): not the 16 KiB frame.
func TestLentFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of the buffers put back, so some reads allocate")
	}
	data := numbered(1, 16<<10)
	for _, m := range []stack.Message{data, &relink.SeqMsg{Seq: 1, Env: stack.Envelope{Proto: stack.ProtoRB, Msg: data}}} {
		f := frame(t, m)
		const runs = 100
		r := bufio.NewReaderSize(bytes.NewReader(bytes.Repeat(f, runs+1)), wire.AliasMin)
		read := testing.AllocsPerRun(runs, func() {
			_, _, lent, err := readFrame(r)
			if err != nil || lent == nil {
				t.Fatalf("lent %v, err %v", lent != nil, err)
			}
			lent.Return()
		})
		decode := testing.AllocsPerRun(runs, func() {
			if _, _, err := wire.DecodeEnvelope(f[4:]); err != nil {
				t.Fatal(err)
			}
		})
		if read != decode {
			t.Errorf("%T: a lent frame read allocates %v, its decode %v", m, read, decode)
		}
	}
}

// TestFloodOfMixedSizes streams frames on both sides of the in-place bound
// over a loopback pair: every one arrives whole and in order, though the
// reader decodes most of them in a buffer it refills under them.
func TestFloodOfMixedSizes(t *testing.T) {
	s := newSink(t, "127.0.0.1:0", nil)
	p := sender(t, s.Addr(), nil)
	sizes := []int{0, 64, wire.AliasMin - 64, wire.AliasMin, 16 << 10, 1}
	const frames = 600
	stream(p, 1, frames, func(seq int) int { return sizes[seq%len(sizes)] })
	wantInOrder(t, s.wait(t, frames), frames)
}
