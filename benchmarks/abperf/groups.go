package main

import (
	"fmt"
	"sync"
	"time"

	"abcast"
	"abcast/internal/core"
	"abcast/internal/fd"
	"abcast/internal/metrics"
	"abcast/internal/msg"
	"abcast/internal/persist"
	"abcast/internal/rbcast"
	"abcast/internal/stack"
	"abcast/internal/tcpnet"
	"abcast/internal/trace"
)

// n is the group size of every workload.
const n = 3

// groupSpec says how to assemble one group. All groups run IndirectCT over
// eager diffusion with fd.DefaultConfig().
type groupSpec struct {
	tcp     bool // tcpnet loopback sockets; otherwise the public abcast.Cluster
	durable bool // persistence with in-memory stores (implies relink + snapshot)
	traced  bool // lifecycle trace and per-process metrics registries on
	seed    int64
}

// group is what the load generators need of a running group.
type group interface {
	// submit atomically broadcasts payload from process p. The payload is
	// handed over.
	submit(p int, payload []byte)
	// events returns the lifecycle trace (nil unless traced).
	events() []trace.Event
	// counters returns process p's metric catalog (nil unless traced).
	counters(p int) map[string]int64
	close()
}

// open assembles a group and starts feeding its deliveries to rec.
func (s groupSpec) open(rec *recorder) (group, error) {
	if s.tcp {
		return openTCP(s, rec)
	}
	g, err := openLive(s, rec)
	if err != nil {
		return nil, err // not g: a nil *liveGroup in a group is not a nil group
	}
	return g, nil
}

// tcpGroup is three tcpnet peers in this OS process, each with its own
// listener and real loopback connections, wired like examples/tcpgroup.
type tcpGroup struct {
	peers   []*tcpnet.Peer // index 0 unused
	engines []*core.Engine
	regs    []*metrics.Registry
	tracer  *trace.Recorder
}

func openTCP(s groupSpec, rec *recorder) (group, error) {
	g := &tcpGroup{
		peers:   make([]*tcpnet.Peer, n+1),
		engines: make([]*core.Engine, n+1),
		regs:    make([]*metrics.Registry, n+1),
	}
	if s.traced {
		g.tracer = trace.New()
	}
	addrs := make(map[stack.ProcessID]string, n)
	for i := 1; i <= n; i++ {
		if s.traced {
			g.regs[i] = metrics.New()
		}
		p, err := tcpnet.Listen(stack.ProcessID(i), n, "127.0.0.1:0", tcpnet.WithSeed(s.seed))
		if err != nil {
			g.close()
			return nil, err
		}
		g.peers[i] = p
		addrs[stack.ProcessID(i)] = p.Addr()
	}
	for i := 1; i <= n; i++ {
		i := i
		node := g.peers[i].Node()
		hb := fd.DefaultConfig()
		hb.Metrics = g.regs[i]
		cfg := core.Config{
			Variant:  core.VariantIndirectCT,
			RB:       rbcast.KindEager,
			Detector: fd.NewHeartbeat(node, hb),
			Trace:    g.tracer,
			Metrics:  g.regs[i],
			// The upcall runs on the peer's event loop: the adeliver instant.
			Deliver: func(app *msg.App) {
				rec.deliver(i, int(app.ID.Sender), app.ID.Seq, app.Payload)
			},
		}
		if s.durable {
			cfg.Persist = &core.PersistConfig{Store: persist.NewMemStore()}
		}
		eng, err := core.New(node, cfg)
		if err != nil {
			g.close()
			return nil, err
		}
		g.engines[i] = eng
	}
	for i := 1; i <= n; i++ {
		if err := g.peers[i].Start(addrs); err != nil {
			g.close()
			return nil, err
		}
	}
	return g, nil
}

func (g *tcpGroup) submit(p int, payload []byte) {
	g.peers[p].Do(func() { g.engines[p].ABroadcast(payload) })
}

func (g *tcpGroup) events() []trace.Event { return g.tracer.Events() }

func (g *tcpGroup) counters(p int) map[string]int64 { return g.regs[p].Snapshot() }

func (g *tcpGroup) close() {
	for _, p := range g.peers {
		if p != nil {
			_ = p.Close() // only the listener's close error; nothing to do with it
		}
	}
}

// liveGroup is the public abcast.Cluster, driven through Broadcast and Next
// only, with one collector goroutine per process.
type liveGroup struct {
	c    *abcast.Cluster
	stop chan struct{}
	wg   sync.WaitGroup
}

// liveOptions are the cluster options of the live workloads. Latency is 1ns,
// i.e. no injected delay: the live runtime realises sub-millisecond delays
// with time.After, which floors every hop near 1 ms (see live.hop_floor_us),
// so any other value would measure the timer, not the stack.
func liveOptions(s groupSpec) abcast.Options {
	o := abcast.Options{
		Latency: time.Nanosecond,
		Seed:    s.seed,
		Trace:   s.traced,
		Metrics: s.traced,
	}
	if s.durable {
		o.Persist = &abcast.PersistOptions{}
	}
	return o
}

func openLive(s groupSpec, rec *recorder) (*liveGroup, error) {
	c, err := abcast.New(n, liveOptions(s))
	if err != nil {
		return nil, err
	}
	g := &liveGroup{c: c, stop: make(chan struct{})}
	for p := 1; p <= n; p++ {
		g.wg.Add(1)
		go g.collect(p, rec)
	}
	return g, nil
}

// collect hands process p's deliveries to rec until the group closes.
func (g *liveGroup) collect(p int, rec *recorder) {
	defer g.wg.Done()
	for {
		d, ok := g.c.Next(p, 50*time.Millisecond)
		if ok {
			rec.deliver(p, d.Sender, d.Seq, d.Payload)
			continue
		}
		select {
		case <-g.stop:
			return
		default:
		}
	}
}

func (g *liveGroup) submit(p int, payload []byte) {
	if err := g.c.Broadcast(p, payload); err != nil {
		// Only a crashed or out-of-range process errs; no workload submits
		// at one, so this is a harness bug.
		panic(fmt.Sprintf("abperf: broadcast at p%d: %v", p, err))
	}
}

func (g *liveGroup) events() []trace.Event { return g.c.TraceEvents() }

func (g *liveGroup) counters(p int) map[string]int64 {
	m, _ := g.c.MetricsSnapshot(p) // errs, with a nil catalog, only when metrics are off
	return m
}

func (g *liveGroup) close() {
	close(g.stop)
	g.wg.Wait()
	g.c.Close()
}
