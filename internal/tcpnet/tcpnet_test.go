package tcpnet

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abcast/internal/check"
	"abcast/internal/consensus"
	"abcast/internal/core"
	"abcast/internal/fd"
	"abcast/internal/msg"
	"abcast/internal/persist"
	"abcast/internal/rbcast"
	"abcast/internal/stack"
	"abcast/internal/wire"
)

// tcpGroup spins up n peers on loopback with a full atomic broadcast stack.
type tcpGroup struct {
	peers   []*Peer // index 0 unused
	engines []*core.Engine
	mu      sync.Mutex
	order   [][]msg.ID
}

// newTCPGroup starts the group; tune, if not nil, adjusts each peer and its
// engine configuration (eager diffusion, no recovery) before the engine is
// built.
func newTCPGroup(t *testing.T, n int, variant core.Variant, tune func(*Peer, *core.Config)) *tcpGroup {
	t.Helper()
	g := &tcpGroup{
		peers:   make([]*Peer, n+1),
		engines: make([]*core.Engine, n+1),
		order:   make([][]msg.ID, n+1),
	}
	addrs := make(map[stack.ProcessID]string, n)
	for i := 1; i <= n; i++ {
		p, err := Listen(stack.ProcessID(i), n, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen p%d: %v", i, err)
		}
		g.peers[i] = p
		addrs[stack.ProcessID(i)] = p.Addr()
	}
	t.Cleanup(func() {
		for i := 1; i <= n; i++ {
			_ = g.peers[i].Close()
		}
	})
	for i := 1; i <= n; i++ {
		i := i
		cfg := core.Config{
			Variant: variant,
			RB:      rbcast.KindEager,
			Deliver: func(app *msg.App) {
				g.mu.Lock()
				g.order[i] = append(g.order[i], app.ID)
				g.mu.Unlock()
			},
		}
		if tune != nil {
			tune(g.peers[i], &cfg)
		}
		eng, err := core.New(g.peers[i].Node(), cfg)
		if err != nil {
			t.Fatalf("core.New p%d: %v", i, err)
		}
		g.engines[i] = eng
	}
	for i := 1; i <= n; i++ {
		if err := g.peers[i].Start(addrs); err != nil {
			t.Fatalf("Start p%d: %v", i, err)
		}
	}
	return g
}

// broadcast injects an abcast on process p's event loop.
func (g *tcpGroup) broadcast(p int, payload string) {
	g.peers[p].Do(func() { g.engines[p].ABroadcast([]byte(payload)) })
}

// deliveredCount returns how many messages process p has delivered.
func (g *tcpGroup) deliveredCount(p int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.order[p])
}

// waitDelivered blocks until every process in procs delivered want
// messages.
func (g *tcpGroup) waitDelivered(t *testing.T, procs []int, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		done := true
		for _, p := range procs {
			if g.deliveredCount(p) < want {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, p := range procs {
		t.Logf("p%d delivered %d/%d", p, g.deliveredCount(p), want)
	}
	t.Fatal("timed out waiting for deliveries over TCP")
}

// complete checks the group's deliveries with check.Complete, every
// process having broadcast perProc messages, all of them correct.
func (g *tcpGroup) complete(perProc int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(g.peers) - 1
	h := check.History{Logs: make([][][]msg.ID, n+1)}
	var all []stack.ProcessID
	for p := 1; p <= n; p++ {
		h.Logs[p] = [][]msg.ID{g.order[p]}
		all = append(all, stack.ProcessID(p))
		for seq := uint64(1); seq <= uint64(perProc); seq++ {
			h.Broadcast = append(h.Broadcast, msg.ID{Sender: stack.ProcessID(p), Seq: seq})
		}
	}
	return check.Complete(h, all)
}

func TestTCPTotalOrder(t *testing.T) {
	const n, perProc = 3, 4
	g := newTCPGroup(t, n, core.VariantIndirectCT, nil)
	for p := 1; p <= n; p++ {
		for i := 0; i < perProc; i++ {
			g.broadcast(p, fmt.Sprintf("m%d-%d", p, i))
		}
	}
	g.waitDelivered(t, []int{1, 2, 3}, n*perProc, 30*time.Second)
	if err := g.complete(perProc); err != nil {
		t.Fatalf("over TCP: %v", err)
	}
}

// TestNoLentByteOutlivesItsDispatch: every lent frame buffer is scrubbed as
// it is returned, so a diffusion payload kept without the first-receipt
// copy would read back scrubbed, or as a later frame, when it is delivered.
// Over relink with persistence, for each broadcast kind, every delivered
// 16 KiB payload must be the one broadcast, byte for byte.
func TestNoLentByteOutlivesItsDispatch(t *testing.T) {
	const n, perProc = 3, 16
	payload := func(id msg.ID) []byte {
		b := make([]byte, 16<<10)
		for i := range b {
			b[i] = byte(int(id.Sender)*131 + int(id.Seq)*17 + i)
		}
		return b
	}
	for _, kind := range []rbcast.Kind{rbcast.KindEager, rbcast.KindLazy, rbcast.KindUniform} {
		t.Run(kind.String(), func(t *testing.T) {
			var corrupt atomic.Int64
			g := newTCPGroup(t, n, core.VariantIndirectCT, func(p *Peer, cfg *core.Config) {
				p.cfg.scrub = func(b []byte) { clear(b) }
				cfg.RB = kind
				cfg.Persist = &core.PersistConfig{Store: persist.NewMemStore()}
				deliver := cfg.Deliver
				cfg.Deliver = func(app *msg.App) {
					if !bytes.Equal(app.Payload, payload(app.ID)) {
						corrupt.Add(1)
					}
					deliver(app)
				}
			})
			for p := 1; p <= n; p++ {
				for seq := 1; seq <= perProc; seq++ {
					b := payload(msg.ID{Sender: stack.ProcessID(p), Seq: uint64(seq)})
					g.peers[p].Do(func() { g.engines[p].ABroadcast(b) })
				}
			}
			g.waitDelivered(t, []int{1, 2, 3}, n*perProc, 60*time.Second)
			if c := corrupt.Load(); c > 0 {
				t.Fatalf("%d of %d deliveries read another payload than was broadcast", c, n*n*perProc)
			}
			if err := g.complete(perProc); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTCPCrashTolerance(t *testing.T) {
	const n = 3
	g := newTCPGroup(t, n, core.VariantIndirectCT, nil)
	g.broadcast(1, "before")
	g.waitDelivered(t, []int{1, 2, 3}, 1, 20*time.Second)
	// Hard-crash p2 (stops processing and sending).
	g.peers[2].Crash()
	g.broadcast(3, "after")
	g.waitDelivered(t, []int{1, 3}, 2, 30*time.Second)
}

func TestTCPConsensusOnMessages(t *testing.T) {
	// Exercises wire round-tripping of MsgSetValue (payload-carrying
	// consensus values).
	const n = 3
	g := newTCPGroup(t, n, core.VariantConsensusMsgs, nil)
	g.broadcast(2, "payload-over-tcp")
	g.waitDelivered(t, []int{1, 2, 3}, 1, 20*time.Second)
}

// TestInboundConnectionLeavesNoGoroutine: everything a readLoop starts
// exits with its connection, not only at Close — a sender redials after
// every write error, so connections come and go while the peer lives.
func TestInboundConnectionLeavesNoGoroutine(t *testing.T) {
	p, err := Listen(1, 1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Start(nil); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		conn, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before 20 reconnects, %d after", before, runtime.NumGoroutine())
		}
	}
}

func TestListenValidation(t *testing.T) {
	if _, err := Listen(0, 3, "127.0.0.1:0"); err == nil {
		t.Error("process id 0 accepted")
	}
	if _, err := Listen(4, 3, "127.0.0.1:0"); err == nil {
		t.Error("out-of-range process id accepted")
	}
	if _, err := Listen(1, 3, "256.0.0.1:bogus"); err == nil {
		t.Error("bogus address accepted")
	}
	p, err := Listen(1, 3, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Start(map[stack.ProcessID]string{2: "127.0.0.1:1"}); err == nil {
		t.Error("Start with missing address accepted")
	}
}

func TestWireRoundTrip(t *testing.T) {
	envs := []stack.Envelope{
		{Proto: stack.ProtoFD, Msg: fd.HeartbeatMsg{}},
		{Proto: stack.ProtoRB, Msg: rbcast.DataMsg{App: &msg.App{
			ID: msg.ID{Sender: 2, Seq: 9}, Payload: []byte("hi")}}},
		{Proto: stack.ProtoCons, Inst: 7, Msg: consensus.DecideMsg{
			Est: core.IDSetValue{Set: msg.NewIDSet(
				msg.ID{Sender: 1, Seq: 1}, msg.ID{Sender: 3, Seq: 4})},
		}},
		// ⊥ estimates (nil Value) must survive the wire too.
		{Proto: stack.ProtoCons, Inst: 8, Msg: consensus.MREchoMsg{R: 2, Bottom: true}},
	}
	for i, env := range envs {
		data, err := wire.EncodeEnvelope(3, env)
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		from, got, err := wire.DecodeEnvelope(data)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if from != 3 || got.Proto != env.Proto || got.Inst != env.Inst {
			t.Fatalf("round trip %d: got from=%d %+v", i, from, got)
		}
		if got.Msg.WireSize() != env.Msg.WireSize() {
			t.Fatalf("round trip %d: wire size %d != %d", i, got.Msg.WireSize(), env.Msg.WireSize())
		}
	}
	// Decoded identifier sets must keep their content.
	data, err := wire.EncodeEnvelope(1, envs[2])
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := wire.DecodeEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	dec, ok := got.Msg.(consensus.DecideMsg)
	if !ok {
		t.Fatalf("decoded type %T", got.Msg)
	}
	set := dec.Est.(core.IDSetValue).Set
	if !set.Contains(msg.ID{Sender: 3, Seq: 4}) || set.Len() != 2 {
		t.Fatalf("id set mangled: %v", set)
	}
}

func TestPeerMetricsExporter(t *testing.T) {
	p, err := Listen(1, 1, "127.0.0.1:0", WithMetricsAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Metrics() == nil {
		t.Fatal("WithMetricsAddr did not create a registry")
	}
	p.Metrics().Counter("core.delivered").Add(7)
	base := "http://" + p.MetricsAddr()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "p1.core.delivered 7") {
		t.Fatalf("/metrics missing counter line:\n%s", body)
	}
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Fatal("exporter still serving after Close")
	}
}
