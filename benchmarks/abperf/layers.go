package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"abcast"
	"abcast/internal/consensus"
	"abcast/internal/core"
	"abcast/internal/fd"
	"abcast/internal/live"
	"abcast/internal/metrics"
	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/persist"
	"abcast/internal/rbcast"
	"abcast/internal/relink"
	"abcast/internal/sim"
	"abcast/internal/simnet"
	"abcast/internal/stack"
	"abcast/internal/tcpnet"
	"abcast/internal/trace"
	"abcast/internal/wire"
)

// The layer pass times each layer through its public functions, with no
// workload running. It does not depend on the workload or the seed; every
// per-layer run repeats it so that each run reports every metric.

// batches is how many timed batches a layer figure is the median of.
const batches = 5

// cost is the price of one operation.
type cost struct{ ns, allocs float64 }

// timeOps runs fn — which performs ops operations — batches times and
// returns the median cost of one operation.
func timeOps(ops int, fn func()) cost {
	ns := make([]float64, batches)
	allocs := make([]float64, batches)
	for b := range ns {
		before, start := takeMark(0), time.Now()
		fn()
		elapsed, after := time.Since(start), takeMark(0)
		ns[b] = float64(elapsed) / float64(ops)
		allocs[b] = (after.allocs - before.allocs) / float64(ops)
	}
	return cost{ns: median(ns), allocs: median(allocs)}
}

// Sinks keep results alive so the compiler cannot drop the calls.
var (
	sinkFrame []byte
	sinkEnv   stack.Envelope
	sinkTrace *trace.Recorder
)

func layerPass(vals map[string]float64) error {
	wireLayer(vals)
	if err := tcpnetLayer(vals); err != nil {
		return fmt.Errorf("tcpnet layer: %w", err)
	}
	liveLayer(vals)
	relinkLayer(vals)
	consensusLayer(vals)
	coreLayer(vals)
	countsLayer(vals)
	simLayer(vals)
	if err := persistLayer(vals); err != nil {
		return fmt.Errorf("persist layer: %w", err)
	}
	observabilityLayer(vals)
	return abcastLayer(vals)
}

func dataEnvelope(size int) stack.Envelope {
	app := &msg.App{ID: msg.ID{Sender: 1, Seq: 12345}, Payload: bytes.Repeat([]byte{0xab}, size)}
	return stack.Envelope{Proto: stack.ProtoRB, Msg: rbcast.DataMsg{App: app}}
}

// wireLayer times EncodeEnvelope/DecodeEnvelope on the two frames every
// message costs: the diffusion frame carrying the payload, and a CT proposal
// carrying its identifier.
func wireLayer(vals map[string]float64) {
	ops := scaledCount(20000)
	codec := func(env stack.Envelope) (enc, dec cost, frame []byte) {
		frame, _ = wire.EncodeEnvelope(1, env) // a registered type: cannot fail
		enc = timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				sinkFrame, _ = wire.EncodeEnvelope(1, env)
			}
		})
		dec = timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				_, sinkEnv, _ = wire.DecodeEnvelope(frame)
			}
		})
		return enc, dec, frame
	}
	enc, dec, frame := codec(dataEnvelope(64))
	vals["wire.encode_ns_64"], vals["wire.decode_ns_64"] = enc.ns, dec.ns
	vals["wire.allocs_encode"], vals["wire.allocs_decode"] = enc.allocs, dec.allocs
	vals["wire.overhead_bytes"] = float64(len(frame) - 64)
	enc, dec, _ = codec(dataEnvelope(16 << 10))
	vals["wire.encode_ns_16k"], vals["wire.decode_ns_16k"] = enc.ns, dec.ns
	proposal := consensus.CTProposalMsg{R: 1, Est: core.IDSetValue{Set: msg.NewIDSet(msg.ID{Sender: 1, Seq: 12345})}}
	enc, dec, _ = codec(stack.Envelope{Proto: stack.ProtoCons, Inst: 12345, Msg: proposal})
	vals["wire.encode_ns_proposal"], vals["wire.decode_ns_proposal"] = enc.ns, dec.ns
}

// pair is two tcpnet peers exchanging ProtoBench frames.
type pair struct {
	peers [3]*tcpnet.Peer
	recv  [3]func() // called on the peer's event loop for each frame it receives
}

func openPair() (*pair, error) {
	p := &pair{}
	addrs := make(map[stack.ProcessID]string, 2)
	for i := 1; i <= 2; i++ {
		i := i
		peer, err := tcpnet.Listen(stack.ProcessID(i), 2, "127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, err
		}
		p.peers[i] = peer
		addrs[stack.ProcessID(i)] = peer.Addr()
		peer.Node().Register(stack.ProtoBench, stack.HandlerFunc(func(stack.ProcessID, uint64, stack.Message) {
			if fn := p.recv[i]; fn != nil {
				fn()
			}
		}))
	}
	for i := 1; i <= 2; i++ {
		if err := p.peers[i].Start(addrs); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

func (p *pair) close() {
	for _, peer := range p.peers {
		if peer != nil {
			_ = peer.Close()
		}
	}
}

// exchange sets the receive handlers on the peers' own event loops, runs
// kick on peer 1's, and waits for done.
func (p *pair) exchange(recv1, recv2, kick func(), done <-chan struct{}) {
	p.peers[2].Do(func() { p.recv[2] = recv2 })
	p.peers[1].Do(func() { p.recv[1] = recv1; kick() })
	<-done
}

// pingPong is the mean round trip, in ns, of rounds frames bounced off peer 2.
func (p *pair) pingPong(size, rounds int) float64 {
	bench := func(i int) stack.Proto { return p.peers[i].Node().Proto(stack.ProtoBench) }
	m := dataEnvelope(size).Msg
	done := make(chan struct{})
	left := rounds
	start := time.Now()
	p.exchange(func() {
		if left--; left == 0 {
			close(done)
			return
		}
		bench(1).Send(2, 0, m)
	}, func() { bench(2).Send(1, 0, m) }, func() { bench(1).Send(2, 0, m) }, done)
	return float64(time.Since(start)) / float64(rounds)
}

// flood sends frames one way as fast as peer 1's event loop can queue them,
// and returns the time spent inside Send per frame and the time until peer 2
// has dispatched them all.
func (p *pair) flood(size, frames int) (sendNS float64, total time.Duration) {
	m := dataEnvelope(size).Msg
	done := make(chan struct{})
	sent := make(chan float64, 1)
	got := 0
	start := time.Now()
	p.exchange(nil, func() {
		if got++; got == frames {
			close(done)
		}
	}, func() {
		proto := p.peers[1].Node().Proto(stack.ProtoBench)
		t := time.Now()
		for i := 0; i < frames; i++ {
			proto.Send(2, 0, m)
		}
		sent <- float64(time.Since(t)) / float64(frames)
	}, done)
	return <-sent, time.Since(start)
}

// writeSyscalls reads this process's write-syscall count; ok is false where
// /proc/self/io is unreadable.
func writeSyscalls() (count float64, ok bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, found := bytes.CutPrefix(line, []byte("syscw: ")); found {
			x, err := strconv.ParseFloat(string(rest), 64)
			return x, err == nil
		}
	}
	return 0, false
}

func tcpnetLayer(vals map[string]float64) error {
	connects := make([]float64, batches)
	var p *pair
	for b := range connects {
		if p != nil {
			p.close()
		}
		start := time.Now()
		var err error
		if p, err = openPair(); err != nil {
			return err
		}
		p.pingPong(64, 1) // a frame has crossed both links
		connects[b] = float64(time.Since(start)) / 1e6
	}
	defer p.close()
	vals["tcpnet.connect_ms"] = median(connects)

	rounds := scaledCount(2000)
	rtts := make([]float64, batches)
	for b := range rtts {
		rtts[b] = p.pingPong(64, rounds) / 1e3
	}
	vals["tcpnet.rtt_us_64"] = median(rtts)

	frames := scaledCount(50000)
	sends, rates, writes := make([]float64, batches), make([]float64, batches), make([]float64, 0, batches)
	for b := range sends {
		w0, ok := writeSyscalls()
		sendNS, total := p.flood(64, frames)
		if w1, _ := writeSyscalls(); ok {
			writes = append(writes, (w1-w0)/float64(frames))
		}
		sends[b], rates[b] = sendNS, float64(frames)/total.Seconds()
	}
	vals["tcpnet.send_ns_64"] = median(sends)
	vals["tcpnet.stream_frames_s_64"] = median(rates)
	vals["tcpnet.write_syscalls_per_frame"] = median(writes) // 0 where /proc/self/io is unreadable

	frames = scaledCount(5000)
	for b := range rates {
		_, total := p.flood(16<<10, frames)
		rates[b] = float64(frames) * (16 << 10) / 1e6 / total.Seconds()
	}
	vals["tcpnet.stream_mb_s_16k"] = median(rates)
	return nil
}

// liveLayer runs the same two tests on the in-memory network of the live
// runtime, and measures the delay it really injects when asked for 200 µs.
func liveLayer(vals map[string]float64) {
	m := dataEnvelope(64).Msg
	pingPong := func(net *live.Network, rounds int) float64 {
		done := make(chan struct{})
		left := rounds
		bench := func(i stack.ProcessID) stack.Proto { return net.Node(i).Proto(stack.ProtoBench) }
		start := time.Now()
		net.Do(2, func() {
			net.Node(2).Register(stack.ProtoBench, stack.HandlerFunc(func(stack.ProcessID, uint64, stack.Message) {
				bench(2).Send(1, 0, m)
			}))
		})
		net.Do(1, func() {
			net.Node(1).Register(stack.ProtoBench, stack.HandlerFunc(func(stack.ProcessID, uint64, stack.Message) {
				if left--; left == 0 {
					close(done)
					return
				}
				bench(1).Send(2, 0, m)
			}))
			bench(1).Send(2, 0, m)
		})
		<-done
		return float64(time.Since(start)) / float64(rounds)
	}
	net := live.NewNetwork(2, live.WithLatency(time.Nanosecond))
	rounds := scaledCount(20000)
	rtts := make([]float64, batches)
	for b := range rtts {
		rtts[b] = pingPong(net, rounds) / 1e3
	}
	vals["live.rtt_us"] = median(rtts)

	msgs := scaledCount(100000)
	rates := make([]float64, batches)
	for b := range rates {
		done := make(chan struct{})
		got := 0
		start := time.Now()
		net.Do(2, func() {
			net.Node(2).Register(stack.ProtoBench, stack.HandlerFunc(func(stack.ProcessID, uint64, stack.Message) {
				if got++; got == msgs {
					close(done)
				}
			}))
		})
		net.Do(1, func() {
			proto := net.Node(1).Proto(stack.ProtoBench)
			for i := 0; i < msgs; i++ {
				proto.Send(2, 0, m)
			}
		})
		<-done
		rates[b] = float64(msgs) / time.Since(start).Seconds()
	}
	net.Close()
	vals["live.stream_msgs_s"] = median(rates)

	net = live.NewNetwork(2, live.WithLatency(200*time.Microsecond))
	rounds = scaledCount(100)
	for b := range rtts {
		rtts[b] = pingPong(net, rounds) / 2 / 1e3
	}
	net.Close()
	vals["live.hop_floor_us"] = median(rtts)
}

// relinkLayer streams envelopes 1→2 through a Link pair on a two-process
// simulated world: sequence assignment, retention, in-order dispatch and
// acknowledgment trimming, simulator scheduling included.
func relinkLayer(vals map[string]float64) {
	ops := scaledCount(20000)
	m := dataEnvelope(64).Msg
	c := timeOps(ops, func() {
		w := simnet.NewWorld(2, netmodel.Setup1(), 7)
		got := 0
		for i := 1; i <= 2; i++ {
			node := w.Node(stack.ProcessID(i))
			relink.New(node, relink.Config{})
			node.Register(stack.ProtoApp, stack.HandlerFunc(func(stack.ProcessID, uint64, stack.Message) { got++ }))
		}
		sender := w.Node(1).Proto(stack.ProtoApp)
		// Setup1 charges ~125 µs of sender CPU per message; a 200 µs gap
		// keeps the send queue bounded.
		const gap = 200 * time.Microsecond
		for i := 0; i < ops; i++ {
			w.After(1, time.Duration(i)*gap, func() { sender.Send(2, 0, m) })
		}
		w.RunFor(time.Duration(ops)*gap + time.Second)
		if got != ops {
			panic(fmt.Sprintf("abperf: relink dispatched %d of %d", got, ops))
		}
	})
	vals["relink.send_ns"], vals["relink.allocs_per_send"] = c.ns, c.allocs
}

// consensusLayer runs sequential Chandra–Toueg instances to decision on a
// three-process simulated world with a scripted (silent) failure detector:
// the cost per decided instance, all three processes' work included.
func consensusLayer(vals map[string]float64) {
	ops := scaledCount(5000)
	value := core.IDSetValue{Set: msg.NewIDSet(msg.ID{Sender: 1, Seq: 1})}
	c := timeOps(ops, func() {
		w := simnet.NewWorld(n, netmodel.Setup1(), 42)
		svcs := make([]*consensus.Service, n+1)
		decided := 0
		for i := 1; i <= n; i++ {
			svc, err := consensus.NewService(w.Node(stack.ProcessID(i)), consensus.Config{
				Algo:     consensus.CT,
				Indirect: true,
				Rcv:      func(consensus.Value) bool { return true },
				Detector: fd.NewScripted(),
				Decide:   func(uint64, consensus.Value) { decided++ },
			})
			if err != nil {
				panic(err) // a fixed, valid configuration
			}
			svcs[i] = svc
		}
		const gap = 2 * time.Millisecond
		for k := 0; k < ops; k++ {
			k := uint64(k)
			for p := stack.ProcessID(1); p <= n; p++ {
				p := p
				w.After(p, time.Duration(k)*gap, func() { svcs[p].Propose(k, value) })
			}
		}
		w.RunFor(time.Duration(ops)*gap + time.Second)
		if decided != n*ops {
			panic(fmt.Sprintf("abperf: %d of %d decisions", decided, n*ops))
		}
	})
	vals["consensus.instance_us"], vals["consensus.allocs_per_instance"] = c.ns/1e3, c.allocs
}

// simGroup is the full stack on a three-process simulated world.
type simGroup struct {
	w         *simnet.World
	engines   []*core.Engine
	delivered int
}

func newSimGroup(seed int64) *simGroup {
	g := &simGroup{w: simnet.NewWorld(n, netmodel.Setup1(), seed), engines: make([]*core.Engine, n+1)}
	for i := 1; i <= n; i++ {
		node := g.w.Node(stack.ProcessID(i))
		eng, err := core.New(node, core.Config{
			Variant:  core.VariantIndirectCT,
			RB:       rbcast.KindEager,
			Detector: fd.NewHeartbeat(node, fd.DefaultConfig()),
			Deliver:  func(*msg.App) { g.delivered++ },
		})
		if err != nil {
			panic(err) // a fixed, valid configuration
		}
		g.engines[i] = eng
	}
	return g
}

// broadcastEvery schedules count broadcasts of size bytes, one every gap
// from offset on, from the processes in turn.
func (g *simGroup) broadcastEvery(offset, gap time.Duration, count, size int) {
	payload := make([]byte, size)
	for i := 0; i < count; i++ {
		p := stack.ProcessID(i%n + 1)
		g.w.After(p, offset+time.Duration(i)*gap, func() { g.engines[p].ABroadcast(payload) })
	}
}

// coreLayer is the cost of one message through the whole engine on the
// simulator — broadcast, identifier bookkeeping, indirect consensus, ordered
// delivery at all three processes — with the idle cost of the same stretch
// of virtual time (heartbeats, timers) measured on its own and subtracted,
// so the figure is per message, not per fixture.
func coreLayer(vals map[string]float64) {
	ops := scaledCount(5000)
	const gap = 2 * time.Millisecond
	span := time.Duration(ops)*gap + time.Second
	run := func(count int) func() {
		return func() {
			g := newSimGroup(11)
			g.broadcastEvery(0, gap, count, 256)
			g.w.RunFor(span)
			if g.delivered != n*count {
				panic(fmt.Sprintf("abperf: simulated group delivered %d of %d", g.delivered, n*count))
			}
		}
	}
	busy, idle := timeOps(ops, run(ops)), timeOps(ops, run(0))
	vals["core.deliver_us"] = (busy.ns - idle.ns) / 1e3
	vals["core.allocs_per_delivery"] = busy.allocs - idle.allocs
	vals["simnet.abcasts_s"] = 1e9 / busy.ns
}

// countingSender counts what one node sends, by protocol layer, in frames
// and in bytes of the real wire encoding.
type countingSender struct {
	ctx    stack.Context
	frames map[stack.ProtoID]float64
	bytes  map[stack.ProtoID]float64
}

func (c *countingSender) Send(to stack.ProcessID, env stack.Envelope) {
	frame, err := wire.EncodeEnvelope(c.ctx.ID(), env)
	if err != nil {
		panic(err) // every message of the stack is a registered wire type
	}
	c.frames[env.Proto]++
	c.bytes[env.Proto] += float64(len(frame))
	c.ctx.Send(to, env)
}

// countsLayer counts messages and wire bytes per atomic broadcast on one
// seeded simulation: 2000 broadcasts of 64 bytes, then 2000 of 16 KiB. The
// counts repeat exactly. The paper's claim is that the consensus pair is
// equal: consensus traffic does not grow with the payload.
func countsLayer(vals map[string]float64) {
	const count = 2000
	const gap = 2 * time.Millisecond
	phase := time.Duration(count)*gap + time.Second
	g := newSimGroup(5)
	frames, sent := map[stack.ProtoID]float64{}, map[stack.ProtoID]float64{}
	for i := 1; i <= n; i++ {
		node := g.w.Node(stack.ProcessID(i))
		node.SetSender(&countingSender{ctx: node.Context(), frames: frames, bytes: sent})
	}
	g.broadcastEvery(0, gap, count, 64)
	g.w.RunFor(phase)
	small := map[stack.ProtoID]float64{stack.ProtoRB: sent[stack.ProtoRB], stack.ProtoCons: sent[stack.ProtoCons]}
	g.broadcastEvery(0, gap, count, 16<<10)
	g.w.RunFor(phase)
	if g.delivered != 2*n*count {
		panic(fmt.Sprintf("abperf: simulated group delivered %d of %d", g.delivered, 2*n*count))
	}
	vals["rbcast.msgs_per_abcast"] = frames[stack.ProtoRB] / (2 * count)
	vals["consensus.msgs_per_abcast"] = frames[stack.ProtoCons] / (2 * count)
	vals["rbcast.wire_bytes_per_abcast_64"] = small[stack.ProtoRB] / count
	vals["rbcast.wire_bytes_per_abcast_16k"] = (sent[stack.ProtoRB] - small[stack.ProtoRB]) / count
	vals["consensus.wire_bytes_per_abcast_64"] = small[stack.ProtoCons] / count
	vals["consensus.wire_bytes_per_abcast_16k"] = (sent[stack.ProtoCons] - small[stack.ProtoCons]) / count
	vals["fd.msgs_per_s"] = frames[stack.ProtoFD] / (2 * phase.Seconds())
}

// simLayer is the bare event engine: every figure the simulator produces
// costs at least this much per event.
func simLayer(vals map[string]float64) {
	ops := scaledCount(1000000)
	c := timeOps(ops, func() {
		e := sim.NewEngine(1)
		for i := 0; i < ops; i++ {
			e.After(time.Duration(i), func() {})
		}
		e.Run()
	})
	vals["sim.events_s"] = 1e9 / c.ns
}

func persistLayer(vals map[string]float64) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "abperf-persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	file, err := persist.OpenFileStore(filepath.Join(dir, "p1"))
	if err != nil {
		return err
	}
	defer file.Close()
	cp := &persist.Checkpoint{Frontier: 10000, Seq: 10000, LinkReserve: 1 << 20}
	for i := uint64(1); i <= 10000; i++ {
		cp.Entries = append(cp.Entries, persist.Entry{ID: msg.ID{Sender: stack.ProcessID(i%n + 1), Seq: i}, K: i})
	}
	for p := stack.ProcessID(1); p <= n; p++ {
		cp.Floors = append(cp.Floors, persist.Floor{Sender: p, Seq: 3333})
	}
	var failed error
	for _, s := range []struct {
		name  string
		store persist.Store
	}{{"mem", persist.NewMemStore()}, {"file", file}} {
		name, store := s.name, s.store
		note := func(err error) {
			if err != nil && failed == nil {
				failed = fmt.Errorf("%s store: %w", name, err)
			}
		}
		appends, saves := scaledCount(20000), scaledCount(50)
		c := timeOps(appends, func() {
			for i := 0; i < appends; i++ {
				note(store.AppendWAL(persist.WALRecord{Kind: persist.WALSeq, Value: uint64(i)}))
			}
			note(store.TruncateWAL())
		})
		vals["persist.wal_append_us_"+name] = c.ns / 1e3
		c = timeOps(saves, func() {
			for i := 0; i < saves; i++ {
				note(store.SaveCheckpoint(cp))
			}
		})
		vals["persist.checkpoint_us_"+name] = c.ns / 1e3
	}
	return failed
}

// observabilityLayer is the price of one trace event and one counter update.
func observabilityLayer(vals map[string]float64) {
	ops := scaledCount(1000000)
	ev := trace.Event{At: time.Now(), P: 1, Kind: trace.KindReceive, ID: msg.ID{Sender: 1, Seq: 1}}
	vals["trace.record_ns"] = timeOps(ops, func() {
		r := trace.New()
		for i := 0; i < ops; i++ {
			r.Record(ev)
		}
		sinkTrace = r
	}).ns
	counter := metrics.New().Counter("bench")
	vals["metrics.inc_ns"] = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			counter.Inc()
		}
	}).ns
}

// abcastLayer is the public API's own share: what New costs, and what one
// process alone delivers — no peers, so no diffusion and a quorum of one:
// the ceiling for every workload's throughput.
func abcastLayer(vals map[string]float64) error {
	opts := liveOptions(groupSpec{seed: 1})
	news := make([]float64, batches)
	for b := range news {
		start := time.Now()
		c, err := abcast.New(n, opts)
		if err != nil {
			return err
		}
		news[b] = float64(time.Since(start)) / 1e6
		c.Close()
	}
	vals["abcast.new_ms"] = median(news)

	c, err := abcast.New(1, opts)
	if err != nil {
		return err
	}
	defer c.Close()
	const clients = 32
	msgs := scaledCount(100000)
	payload := make([]byte, 64)
	rates := make([]float64, batches)
	for b := range rates {
		var wg sync.WaitGroup
		wg.Add(1)
		start := time.Now()
		go func() {
			defer wg.Done()
			for got := 0; got < msgs; got++ {
				if _, ok := c.Next(1, drainLimit); !ok {
					panic("abperf: single-process cluster stopped delivering")
				}
				if got+clients < msgs {
					_ = c.Broadcast(1, payload) // process 1 exists and never crashes
				}
			}
		}()
		for i := 0; i < clients && i < msgs; i++ {
			_ = c.Broadcast(1, payload)
		}
		wg.Wait()
		rates[b] = float64(msgs) / time.Since(start).Seconds()
	}
	vals["abcast.n1_msgs_s"] = median(rates)
	runtime.GC()
	return nil
}
