package abcast

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"abcast/internal/core"
	"abcast/internal/evloop"
	"abcast/internal/live"
	"abcast/internal/metrics"
	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/persist"
	"abcast/internal/rbcast"
	"abcast/internal/stack"
	"abcast/internal/trace"
)

// Stack selects the ordering protocol of a Cluster.
type Stack int

// Available stacks. The default (zero) Options value selects IndirectCT,
// the paper's recommended configuration.
const (
	// IndirectCT: indirect consensus based on Chandra–Toueg ◇S
	// (Algorithm 2). Tolerates f < n/2 crashes.
	IndirectCT Stack = iota + 1
	// IndirectMR: indirect consensus based on Mostéfaoui–Raynal ◇S
	// (Algorithm 3). Tolerates only f < n/3 crashes — the price of the
	// adaptation, per the paper's Section 3.3.
	IndirectMR
	// ConsensusOnMessages: the classic reduction, consensus on full
	// message sets. Correct; slow for large payloads.
	ConsensusOnMessages
	// ConsensusWithURB: unmodified consensus on identifiers over uniform
	// reliable broadcast. Correct; pays an extra communication step.
	ConsensusWithURB
	// FaultyConsensusOnIDs: unmodified consensus directly on identifiers
	// over plain reliable broadcast. NOT crash-safe — it can violate
	// Validity (Section 2.2). Exposed for experimentation and
	// demonstration only (see examples/crashdemo).
	FaultyConsensusOnIDs
)

// String implements fmt.Stringer.
func (s Stack) String() string {
	switch s {
	case IndirectCT:
		return "indirect-consensus-ct"
	case IndirectMR:
		return "indirect-consensus-mr"
	case ConsensusOnMessages:
		return "consensus-on-messages"
	case ConsensusWithURB:
		return "consensus-with-urb"
	case FaultyConsensusOnIDs:
		return "faulty-consensus-on-ids"
	default:
		return fmt.Sprintf("Stack(%d)", int(s))
	}
}

// variant maps the public stack to the engine variant (zero = IndirectCT).
func (s Stack) variant() (core.Variant, error) {
	switch s {
	case 0, IndirectCT:
		return core.VariantIndirectCT, nil
	case IndirectMR:
		return core.VariantIndirectMR, nil
	case ConsensusOnMessages:
		return core.VariantConsensusMsgs, nil
	case ConsensusWithURB:
		return core.VariantURBIDs, nil
	case FaultyConsensusOnIDs:
		return core.VariantFaultyIDs, nil
	default:
		return 0, fmt.Errorf("abcast: unknown stack %v", s)
	}
}

// Diffusion selects the reliable broadcast used to spread message payloads
// (ignored by ConsensusWithURB, which always uses uniform broadcast).
type Diffusion int

// Available diffusion strategies.
const (
	// DiffusionEager relays every message on first receipt: O(n²)
	// messages, no failure-detector dependence.
	DiffusionEager Diffusion = iota + 1
	// DiffusionLazy relays only when the sender is suspected: O(n)
	// messages in good runs.
	DiffusionLazy
)

// Options configures a Cluster. The zero value is a sensible default:
// IndirectCT over eager reliable broadcast, 200µs simulated link latency.
type Options struct {
	// Stack selects the ordering protocol (default IndirectCT).
	Stack Stack
	// Diffusion selects the reliable broadcast (default DiffusionEager).
	Diffusion Diffusion
	// Latency is the in-memory network's one-way latency (default 200µs).
	Latency time.Duration
	// Topology, when set, replaces the uniform Latency with the
	// per-directed-link latencies and jitter of a geo-replicated site
	// layout (e.g. netmodel.WAN3Sites().Topology assigns processes
	// round-robin to three sites joined by 40-126 ms asymmetric links).
	// Link bandwidth is not modelled by the in-memory transport.
	Topology *netmodel.Topology
	// Pipeline is the consensus pipeline width W: the number of ordering
	// instances each process may run concurrently (default 1, the paper's
	// serial Algorithm 1). Larger windows raise the delivered-throughput
	// ceiling when MaxBatch bounds per-instance work, at the price of more
	// concurrent protocol state; decisions are always consumed in serial
	// order, so delivery order and crash safety are unaffected.
	Pipeline int
	// MaxBatch caps the identifiers ordered per consensus instance
	// (0 = unlimited). See core.Config.MaxBatch; mainly useful together
	// with Pipeline, which multiplies the resulting throughput ceiling.
	MaxBatch int
	// Adaptive replaces the static Pipeline/MaxBatch tuning with the
	// feedback control plane: every process samples its own backlog,
	// delivered rate and decision latency on a control tick and retargets
	// its pipeline width (AIMD — grow while the backlog outruns a pipeline
	// round and decisions keep pace, shrink when extra instances stop
	// adding delivered throughput) and batch cap; with Recovery also on,
	// the anti-entropy cadence of the reliable-link layer tracks measured
	// per-link round-trip times instead of a constant. Pipeline and
	// MaxBatch become initial values (zero MaxBatch starts at the
	// controller's minimum batch — adaptation always runs with bounded
	// batches). Delivery order and crash safety are unaffected: width
	// changes only gate how many new instances may start, never cancel
	// in-flight ones. Figure p2 (abench -fig p2) quantifies the controller
	// against hand-picked static widths under ramped load.
	Adaptive bool
	// Recovery enables the drop-partition recovery subsystem on every
	// process: a sequencing, retransmitting link layer with periodic
	// anti-entropy beneath the protocol stack, a consensus decide-relay
	// that catches up peers which missed decisions, and payload fetch for
	// ordered-but-never-received messages. The in-memory transport never
	// loses messages on its own, so this matters when the cluster's
	// processes face lossy conditions (and it is the configuration the
	// simulator's drop-mode partition figures validate — see abench -fig
	// g3). It costs a sequencing header per message plus periodic digest
	// traffic while streams have unacknowledged data.
	Recovery bool
	// Snapshot enables snapshot state transfer on top of Recovery (setting
	// it implies Recovery — the engine resolves that, see doc.go's
	// "Configuration"): a process behind by more consensus instances
	// than the decide-relay's bounded decision log retains — an outage
	// deeper than retransmission can repair — is shipped the delivered
	// prefix plus engine state (the Raft-snapshot analogue) and atomically
	// advanced past the gap, after which the relay and payload-fetch paths
	// finish the tail. Without it, recovery guarantees catch-up only within
	// the decision log's horizon. Figure g4 (abench -fig g4) quantifies the
	// difference.
	Snapshot bool
	// Persist enables crash-recovery persistence with bounded memory on
	// every process (implying Recovery with Snapshot, the restart catch-up
	// path): each process checkpoints its delivered-prefix digest to its own
	// store on a timer, prunes payloads and bookkeeping below the boundary
	// every member has durably passed — so long-running clusters hold a
	// bounded suffix instead of the full history — and Crash becomes
	// reversible: Restart brings the process back as a fresh incarnation
	// that resumes from its checkpoint and catches the tail through the
	// repair paths. Figure r1 (abench -fig r1) quantifies the restart
	// against staying down. Nil (the default) disables persistence; Restart
	// then returns an error.
	Persist *PersistOptions
	// Membership, when non-nil, enables dynamic membership: only the listed
	// processes (a subset of 1..n) form the initial ordering group, and the
	// group then changes at runtime through Join and Leave. A membership
	// change is itself atomically broadcast, so its position in the total
	// order — identical at every process — defines when the ordering quorums
	// switch; processes outside the current group run the full stack but
	// neither propose nor count toward quorums until they join, at which
	// point they catch up through the recovery machinery (enable Recovery,
	// and Snapshot for joiners arbitrarily far behind). Nil (the default)
	// is the classic static group of all n processes; Join and Leave then
	// return an error.
	Membership []int
	// Seed makes topology jitter and protocol tie-breaking deterministic.
	Seed int64
	// OnDeliver, if set, is called for every delivery, on the delivering
	// process's event loop (do not block in it). Deliveries are also
	// always available through Next.
	OnDeliver func(process int, d Delivery)
	// Trace enables lifecycle tracing: every message's path (abroadcast →
	// receive → propose → decide → ordered → adeliver, plus the recovery
	// events that repair a run) is recorded with each process's own clock
	// and exported through WriteTrace. Off (the default) costs one pointer
	// test per hook point; on, recording allocates only the shared event
	// buffer, never perturbing protocol scheduling.
	Trace bool
	// Metrics enables the unified metrics registry: each process's layer
	// counters (core, consensus, recovery link, failure detector,
	// persistence) register into a per-process catalog readable through
	// MetricsSnapshot. Updates are single atomic adds whether or not this
	// is set — the layers always count — so enabling collection does not
	// change a run's behaviour.
	Metrics bool
	// MetricsAddr, when non-empty, additionally serves the per-process
	// registries over HTTP at the given listen address (e.g.
	// "127.0.0.1:0"): an expvar-style text dump at /metrics plus the
	// standard net/http/pprof profiling endpoints under /debug/pprof/.
	// Implies Metrics. MetricsAddr reports the bound address; the server
	// shuts down with Close.
	MetricsAddr string
}

// PersistOptions configures crash-recovery persistence (Options.Persist).
// The zero value is valid: per-process in-memory stores with the default
// checkpoint cadence.
type PersistOptions struct {
	// Dir, when non-empty, keeps each process's checkpoint and write-ahead
	// log under Dir/p<i> (persist.FileStore), surviving restarts of the
	// hosting OS process. Empty uses per-process in-memory stores
	// (persist.MemStore): state survives Cluster.Restart but dies with the
	// hosting process.
	Dir string
	// Interval overrides the checkpoint cadence (0 = the engine default).
	// Checkpoints are lazy — a stale one only lengthens the redelivered
	// suffix after a restart, never changes the order — so the cadence
	// trades restart catch-up work against checkpoint write rate.
	Interval time.Duration
}

// Delivery is one adelivered message.
type Delivery struct {
	// Sender and Seq identify the message (id(m) in the paper).
	Sender int
	Seq    uint64
	// Payload is the broadcast content.
	Payload []byte
}

// Cluster is an in-memory atomic broadcast group running one goroutine per
// process.
type Cluster struct {
	net     *live.Network
	opts    Options
	engines []*core.Engine
	queues  []*evloop.Queue[Delivery]
	n       int

	// stack is the engine configuration every incarnation of every process
	// is built from: the options' translation (Options.stackConfig) plus the
	// shared tracer. wire completes a copy per process.
	stack core.Config
	// stores holds each process's checkpoint/WAL store under Options.Persist
	// (index 0 unused, nil otherwise); Restart reopens stores[p] for the
	// next incarnation.
	stores []persist.Store

	// tracer is the shared lifecycle recorder under Options.Trace (nil
	// otherwise; Event.P identifies the recording process). regs holds each
	// process's metrics registry under Options.Metrics (index 0 unused; the
	// slice itself is nil when metrics are off). msrv is the HTTP exporter
	// under Options.MetricsAddr. All survive Restart: a new incarnation
	// keeps recording into the same trace and registry.
	tracer *trace.Recorder
	regs   []*metrics.Registry
	msrv   *metrics.Server

	// members mirrors the intended group under Options.Membership: the
	// initial set plus every Join/Leave issued through the Cluster. It picks
	// the sponsor that broadcasts the next change (the authoritative view
	// lives in the engines; see Stats.Members). Guarded by memberMu — Join
	// and Leave may race from different goroutines.
	memberMu sync.Mutex
	members  []int
}

// stackConfig translates the options into the engine configuration shared by
// all n processes — the one place an Options field becomes a core.Config
// field. What differs per process (detector, store, registry, delivery
// queue, same-site repair peers) is filled in by wire.
func (o Options) stackConfig(n int) (core.Config, error) {
	variant, err := o.Stack.variant()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Variant:  variant,
		RB:       rbcast.KindEager,
		Pipeline: o.Pipeline,
		MaxBatch: o.MaxBatch,
		Adaptive: o.Adaptive,
		Snapshot: o.Snapshot,
	}
	if o.Diffusion == DiffusionLazy {
		cfg.RB = rbcast.KindLazy
	}
	if o.Recovery {
		cfg.Recover = &core.RecoverConfig{}
	}
	if o.Persist != nil {
		cfg.Persist = &core.PersistConfig{Interval: o.Persist.Interval}
	}
	if o.Membership != nil {
		if len(o.Membership) == 0 {
			return core.Config{}, fmt.Errorf("abcast: empty initial membership")
		}
		cfg.Members = make([]stack.ProcessID, 0, len(o.Membership))
		for _, p := range o.Membership {
			if p < 1 || p > n {
				return core.Config{}, fmt.Errorf("abcast: member %d out of range 1..%d", p, n)
			}
			cfg.Members = append(cfg.Members, stack.ProcessID(p))
		}
	}
	return cfg, nil
}

// New starts an n-process cluster.
func New(n int, opts Options) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("abcast: need at least one process, got %d", n)
	}
	if opts.Latency == 0 {
		opts.Latency = 200 * time.Microsecond
	}
	cfg, err := opts.stackConfig(n)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		net: live.NewNetwork(n,
			live.WithLatency(opts.Latency),
			live.WithTopology(opts.Topology),
			live.WithSeed(opts.Seed),
		),
		opts:    opts,
		engines: make([]*core.Engine, n+1),
		queues:  make([]*evloop.Queue[Delivery], n+1),
		n:       n,
		stack:   cfg,
	}
	for i := 1; i <= n; i++ {
		c.queues[i] = evloop.NewQueue[Delivery]()
	}
	// From here on every error path goes through Close, which releases
	// whatever was opened so far (loops, stores, exporter).
	if opts.Persist != nil {
		c.stores = make([]persist.Store, n+1)
		for i := 1; i <= n; i++ {
			s, err := openStore(opts.Persist, i)
			if err != nil {
				c.Close()
				return nil, err
			}
			c.stores[i] = s
		}
	}
	if opts.Membership != nil {
		c.members = append([]int(nil), opts.Membership...)
		sort.Ints(c.members)
	}
	if opts.Trace {
		c.tracer = trace.New()
		c.stack.Trace = c.tracer
	}
	if opts.Metrics || opts.MetricsAddr != "" {
		c.regs = make([]*metrics.Registry, n+1)
		for i := 1; i <= n; i++ {
			c.regs[i] = metrics.New()
		}
	}
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		i := i
		wg.Add(1)
		// Wire each process's layers on its own event loop so no
		// protocol event can precede complete wiring.
		c.net.Do(stack.ProcessID(i), func() {
			defer wg.Done()
			if err := c.wire(i, c.net.Node(stack.ProcessID(i))); err != nil {
				errs <- err
			}
		})
	}
	wg.Wait()
	select {
	case err := <-errs:
		c.Close()
		return nil, err
	default:
	}
	if opts.MetricsAddr != "" {
		named := make(map[string]*metrics.Registry, n)
		for i := 1; i <= n; i++ {
			named[fmt.Sprintf("p%d", i)] = c.regs[i]
		}
		srv, err := metrics.Serve(opts.MetricsAddr, named)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.msrv = srv
	}
	return c, nil
}

// reg returns process i's metrics registry (nil when metrics are off —
// the layers then hold standalone handles).
func (c *Cluster) reg(i int) *metrics.Registry {
	if c.regs == nil {
		return nil
	}
	return c.regs[i]
}

// sameSitePeers returns p's co-located peers under the topology (nil for a
// uniform network or a process alone at its site) — the Cluster's choice of
// core.Config.PreferPeers.
func sameSitePeers(t *netmodel.Topology, p stack.ProcessID, n int) []stack.ProcessID {
	if t == nil {
		return nil
	}
	var out []stack.ProcessID
	for _, q := range t.SiteProcs(t.Site(p), n) {
		if q != p {
			out = append(out, q)
		}
	}
	return out
}

// openStore opens process p's checkpoint/WAL store per the options.
func openStore(po *PersistOptions, p int) (persist.Store, error) {
	if po.Dir != "" {
		return persist.OpenFileStore(filepath.Join(po.Dir, fmt.Sprintf("p%d", p)))
	}
	return persist.NewMemStore(), nil
}

// wire builds one incarnation of process i's protocol stack on node: the
// engine (which makes its own default failure detector), rehydrating from
// the process's store when persistence is on. Runs on i's event loop — at startup via New's
// wiring closures, and again from Restart.
func (c *Cluster) wire(i int, node *stack.Node) error {
	cfg := c.stack
	cfg.Metrics = c.reg(i)
	// Prefer same-site peers for the rotating repair paths, keeping
	// fetch/sync traffic off the expensive inter-site links whenever a
	// local peer can serve it.
	cfg.PreferPeers = sameSitePeers(c.opts.Topology, stack.ProcessID(i), c.n)
	if cfg.Persist != nil {
		pc := *cfg.Persist
		pc.Store = c.stores[i]
		cfg.Persist = &pc
	}
	cfg.Deliver = func(app *msg.App) {
		d := Delivery{
			Sender:  int(app.ID.Sender),
			Seq:     app.ID.Seq,
			Payload: app.Payload,
		}
		c.queues[i].Put(d)
		if c.opts.OnDeliver != nil {
			c.opts.OnDeliver(i, d)
		}
	}
	eng, err := core.New(node, cfg)
	if err != nil {
		return err
	}
	c.engines[i] = eng
	return nil
}

// N returns the number of processes.
func (c *Cluster) N() int { return c.n }

// Broadcast atomically broadcasts payload from process p. The payload is
// copied, so the caller may reuse the slice. Broadcasting from a crashed
// process returns an error: a crashed process handles no further events, so
// the broadcast would otherwise be silently discarded. (A crash racing the
// call can still swallow the broadcast after Broadcast returns — exactly as
// if the process had crashed a moment later.)
func (c *Cluster) Broadcast(p int, payload []byte) error {
	if p < 1 || p > c.n {
		return fmt.Errorf("abcast: process %d out of range 1..%d", p, c.n)
	}
	if c.net.Proc(stack.ProcessID(p)).Crashed() {
		return fmt.Errorf("abcast: process %d has crashed", p)
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	c.net.Do(stack.ProcessID(p), func() {
		c.engines[p].ABroadcast(buf)
	})
	return nil
}

// Join atomically broadcasts a membership change adding process p to the
// ordering group. The change is sponsored by a current member (p itself
// cannot reach the group yet); it takes effect at the change's position in
// the total order, identically everywhere, after which p catches up through
// the recovery machinery and starts ordering under the new quorums. Requires
// Options.Membership. Returns once the change is broadcast, not once it is
// applied — watch Stats.Members for the switch.
func (c *Cluster) Join(p int) error { return c.changeMembership(p, true) }

// Leave atomically broadcasts a membership change removing process p from
// the ordering group. Sponsored by a member other than p when one exists, so
// the change survives even if p stops immediately after the call. Instances
// ordered below the change's position drain under the old membership
// (including p); everything above uses the new quorums. Requires
// Options.Membership.
func (c *Cluster) Leave(p int) error { return c.changeMembership(p, false) }

func (c *Cluster) changeMembership(p int, join bool) error {
	if c.opts.Membership == nil {
		return fmt.Errorf("abcast: dynamic membership not enabled (Options.Membership)")
	}
	if p < 1 || p > c.n {
		return fmt.Errorf("abcast: process %d out of range 1..%d", p, c.n)
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	// Sponsor: the lowest-id current member that is not crashed and — for a
	// leave — not the leaver itself, if any other member remains.
	sponsor := 0
	for _, m := range c.members {
		if c.net.Proc(stack.ProcessID(m)).Crashed() {
			continue
		}
		if !join && m == p && len(c.members) > 1 {
			continue
		}
		sponsor = m
		break
	}
	if sponsor == 0 {
		return fmt.Errorf("abcast: no live member to sponsor the change")
	}
	ch := msg.ConfigChange{}
	if join {
		ch.Join = stack.ProcessID(p)
	} else {
		ch.Leave = stack.ProcessID(p)
	}
	c.net.Do(stack.ProcessID(sponsor), func() {
		c.engines[sponsor].BroadcastConfig(ch)
	})
	// Update the sponsor-selection mirror (the engines hold the truth).
	if join {
		i := sort.SearchInts(c.members, p)
		if i == len(c.members) || c.members[i] != p {
			c.members = append(c.members, 0)
			copy(c.members[i+1:], c.members[i:])
			c.members[i] = p
		}
	} else {
		i := sort.SearchInts(c.members, p)
		if i < len(c.members) && c.members[i] == p && len(c.members) > 1 {
			c.members = append(c.members[:i], c.members[i+1:]...)
		}
	}
	return nil
}

// Next returns process p's next delivery, waiting up to timeout. ok is
// false on timeout, and at once when the cluster is closed and p's
// deliveries are drained. A delivery that is already waiting is taken
// without a timer: a consumer that keeps up with a busy process pays one
// lock per delivery. One that has to wait borrows a stopped timer from
// deadlines, so in the steady state no call makes one.
func (c *Cluster) Next(p int, timeout time.Duration) (d Delivery, ok bool) {
	if p < 1 || p > c.n {
		return Delivery{}, false
	}
	if d, ok = c.queues[p].TryGet(); ok {
		return d, true
	}
	deadline := deadlines.Get().(*time.Timer)
	deadline.Reset(timeout)
	d, ok = c.queues[p].Get(deadline.C)
	// Since Go 1.23 a stopped timer's channel holds no stale expiry, so the
	// timer goes back as good as new.
	deadline.Stop()
	deadlines.Put(deadline)
	return d, ok
}

// deadlines holds the stopped timers Next waits on.
var deadlines = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// Stats is a snapshot of one process's engine counters.
type Stats struct {
	// Received counts the payloads the process currently holds: received
	// and not yet forgotten. A message is forgotten when nobody can ask for
	// it any more — at delivery in the default configuration, at the
	// checkpoint boundary every member has passed with Options.Persist,
	// never with Options.Recovery or Options.Snapshot alone.
	Received int
	// Delivered counts messages adelivered, in total order.
	Delivered int
	// Pending counts messages received or ordered but not yet delivered.
	Pending int
	// Instances counts consensus instances consumed so far.
	Instances uint64
	// Window and MaxBatch are the pipeline width and per-instance batch
	// cap currently applied by the process — the Options values for a
	// static cluster, the controller's current targets under
	// Options.Adaptive (0 MaxBatch = unlimited).
	Window   int
	MaxBatch int
	// Members is the process's latest applied ordering view under
	// Options.Membership (nil for a static cluster). Processes apply a
	// membership change when they deliver it, so a lagging process may
	// briefly report an older view than its peers.
	Members []int
	// Retransmitted, Duplicates and Evicted are the recovery link layer's
	// repair counters: envelope re-sends triggered by anti-entropy digests,
	// received envelopes dropped as already delivered, and buffered
	// envelopes discarded unacknowledged. All zero without Options.Recovery.
	Retransmitted int64
	Duplicates    int64
	Evicted       int64
	// Checkpoints and Prunes count persistence activity: checkpoints
	// written and bounded-memory prune passes. Both zero without
	// Options.Persist.
	Checkpoints int
	Prunes      int
}

// Stats returns process p's counters, or ok=false if p is out of range or
// the snapshot could not be taken within timeout.
//
// The snapshot runs as a closure on p's event loop. A crashed process drops
// every enqueued closure, so the snapshot never executes and the call would
// block; known-crashed processes therefore fail fast, and the timeout is
// the backstop for a crash that lands after the check (or for an event loop
// too backlogged to answer in time). On timeout the closure stays queued
// and may still run later; its result is discarded.
func (c *Cluster) Stats(p int, timeout time.Duration) (Stats, bool) {
	if p < 1 || p > c.n {
		return Stats{}, false
	}
	if c.net.Proc(stack.ProcessID(p)).Crashed() {
		return Stats{}, false
	}
	ch := make(chan Stats, 1)
	c.net.Do(stack.ProcessID(p), func() {
		st := c.engines[p].Stats()
		out := Stats{
			Received:  st.Received,
			Delivered: st.Delivered,
			Pending:   st.Unordered + st.OrderedQ,
			Instances: st.Instances,
			Window:    st.Window,
			MaxBatch:  st.MaxBatch,
		}
		if _, ms := c.engines[p].CurrentView(); ms != nil {
			out.Members = make([]int, len(ms))
			for j, q := range ms {
				out.Members[j] = int(q)
			}
		}
		ls := c.engines[p].LinkStats()
		out.Retransmitted = ls.Retransmitted
		out.Duplicates = ls.Duplicates
		out.Evicted = ls.Evicted
		out.Checkpoints, out.Prunes, _ = c.engines[p].PersistStats()
		ch <- out
	})
	select {
	case st := <-ch:
		return st, true
	case <-time.After(timeout):
		return Stats{}, false
	}
}

// WriteTrace writes the lifecycle trace recorded so far in the given
// format: "jsonl" (one JSON object per event, fixed field order — two runs
// that record the same events export identical bytes) or "chrome" (Chrome
// trace_event JSON for chrome://tracing / Perfetto). Requires
// Options.Trace. Safe while the cluster runs: it snapshots the events
// recorded so far.
func (c *Cluster) WriteTrace(w io.Writer, format string) error {
	if c.tracer == nil {
		return fmt.Errorf("abcast: tracing not enabled (Options.Trace)")
	}
	switch format {
	case "jsonl":
		return c.tracer.WriteJSONL(w)
	case "chrome":
		return c.tracer.WriteChrome(w)
	default:
		return fmt.Errorf("abcast: unknown trace format %q (want jsonl or chrome)", format)
	}
}

// TraceEvents returns a copy of the lifecycle events recorded so far (nil
// without Options.Trace), in arrival order.
func (c *Cluster) TraceEvents() []trace.Event {
	return c.tracer.Events()
}

// MetricsSnapshot returns process p's metric catalog as name → value.
// Requires Options.Metrics (or MetricsAddr). Safe while the cluster runs —
// cells are atomics — though a snapshot taken mid-run is not a consistent
// cut.
func (c *Cluster) MetricsSnapshot(p int) (map[string]int64, error) {
	if c.regs == nil {
		return nil, fmt.Errorf("abcast: metrics not enabled (Options.Metrics)")
	}
	if p < 1 || p > c.n {
		return nil, fmt.Errorf("abcast: process %d out of range 1..%d", p, c.n)
	}
	return c.regs[p].Snapshot(), nil
}

// MetricsAddr returns the bound address of the HTTP metrics/profiling
// endpoint, or "" when Options.MetricsAddr was not set.
func (c *Cluster) MetricsAddr() string {
	if c.msrv == nil {
		return ""
	}
	return c.msrv.Addr()
}

// Crash stops process p (it handles no further events; in-flight messages
// from it are lost). Irreversible on a cluster without persistence; with
// Options.Persist set, Restart revives the process.
func (c *Cluster) Crash(p int) {
	if p >= 1 && p <= c.n {
		c.net.Crash(stack.ProcessID(p))
	}
}

// Restart revives a crashed process as a fresh incarnation that resumes
// from its persistent store: the checkpointed delivered prefix is
// rehydrated, the write-ahead counters guarantee the incarnation's new
// broadcasts cannot alias pre-crash identifiers, and the gap between the
// checkpoint and the group's current position is caught up through the
// repair paths (retransmission, decide-relay, payload fetch, snapshot
// transfer for deep gaps). Requires Options.Persist and a crashed process.
//
// Deliveries on p are at-least-once across the restart: the suffix above
// p's last checkpoint is redelivered — in unchanged order — so a consumer
// tracking the last applied (Sender, Seq) per sender deduplicates
// trivially (see examples/restartable-kv). Restart returns once the new
// incarnation is wired; catch-up proceeds in the background — watch Stats.
func (c *Cluster) Restart(p int) error {
	if c.opts.Persist == nil {
		return fmt.Errorf("abcast: persistence not enabled (Options.Persist)")
	}
	if p < 1 || p > c.n {
		return fmt.Errorf("abcast: process %d out of range 1..%d", p, c.n)
	}
	if !c.net.Proc(stack.ProcessID(p)).Crashed() {
		return fmt.Errorf("abcast: process %d has not crashed", p)
	}
	store, err := c.reopenStore(p)
	if err != nil {
		return err
	}
	old := c.stores[p]
	c.stores[p] = store
	node := c.net.Restart(stack.ProcessID(p))
	errs := make(chan error, 1)
	c.net.Do(stack.ProcessID(p), func() { errs <- c.wire(p, node) })
	err = <-errs
	// The wiring closure ran on p's loop after everything the dead
	// incarnation ever ran there, so its handle has no user left; exactly one
	// of the two handles survives this call.
	unused := old
	if err != nil {
		c.net.Crash(stack.ProcessID(p)) // no stack was wired: p stays down, Restart can be retried
		c.stores[p], unused = old, store
	}
	if unused != c.stores[p] { // a MemStore is handed over, not reopened
		unused.Close()
	}
	return err
}

// reopenStore hands process p's store to its next incarnation: the same
// MemStore for in-memory persistence, a fresh FileStore handle on the same
// directory otherwise (the crashed incarnation's handle is dead — its event
// loop no longer runs — so the single-owner contract moves with the open).
func (c *Cluster) reopenStore(p int) (persist.Store, error) {
	if c.opts.Persist.Dir != "" {
		return openStore(c.opts.Persist, p)
	}
	ms := c.stores[p].(*persist.MemStore)
	ms.Reopen()
	return ms, nil
}

// Close shuts the cluster down and waits for all process goroutines.
func (c *Cluster) Close() {
	if c.msrv != nil {
		c.msrv.Close()
	}
	c.net.Close()
	// Close, not Discard: what was adelivered before the shutdown stays
	// readable through Next.
	for _, q := range c.queues[1:] {
		q.Close()
	}
	// Safe once the event loops have exited: the stores' single owners (the
	// engines) can no longer touch them. A New that failed half-way leaves
	// the tail nil.
	for _, s := range c.stores {
		if s != nil {
			s.Close()
		}
	}
}
