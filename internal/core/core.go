// Package core implements uniform atomic broadcast by reduction to
// consensus — Algorithm 1 of the paper — with pluggable ordering stacks:
//
//   - VariantConsensusMsgs: consensus directly on sets of *messages* (the
//     original reduction of Chandra & Toueg). Correct but slow for large
//     payloads, since every consensus message carries the payloads.
//   - VariantFaultyIDs: an *unmodified* consensus algorithm run directly on
//     message identifiers over plain reliable broadcast. This is the common
//     shortcut of earlier group-communication stacks; Section 2.2 shows it
//     violates the Validity property of atomic broadcast if one process
//     crashes. It is implemented here deliberately, both as the paper's
//     performance baseline (Figures 3 and 4) and to demonstrate the
//     violation (see the crash tests and examples/crashdemo).
//   - VariantIndirectCT / VariantIndirectMR: the paper's contribution —
//     indirect consensus on identifiers (Algorithms 2 and 3) over plain
//     reliable broadcast. Correct, and nearly as fast as the faulty stack.
//   - VariantURBIDs: unmodified consensus on identifiers over *uniform*
//     reliable broadcast — the alternative correct stack of Section 4.4,
//     which pays an extra communication step on every broadcast.
//
// Properties guaranteed by the correct variants: Validity, Uniform
// integrity, Uniform agreement, Uniform total order.
//
// Beyond the paper, Config.Pipeline generalizes Algorithm 1 from one
// outstanding consensus instance to a window of W concurrent instances with
// disjoint identifier batches; decisions are still consumed in serial
// instance order, so every correctness property above is preserved while
// the throughput ceiling imposed by MaxBatch × instance latency is
// multiplied by W.
//
// This file is Algorithm 1 and its pipeline. The sets it speaks of —
// receivedp, unorderedp, orderedp, adelivered — are one record per message in
// table.go; the repair planes (recovery.go, snapshot.go, persist.go,
// membership.go, adaptive.go) drive the same table through the same
// transitions.
package core

import (
	"fmt"
	"time"

	"abcast/internal/adapt"
	"abcast/internal/consensus"
	"abcast/internal/fd"
	"abcast/internal/metrics"
	"abcast/internal/msg"
	"abcast/internal/persist"
	"abcast/internal/rbcast"
	"abcast/internal/relink"
	"abcast/internal/stack"
	"abcast/internal/stats"
	"abcast/internal/trace"
)

// Variant selects an atomic broadcast stack.
type Variant int

// Available stacks.
const (
	VariantConsensusMsgs Variant = iota + 1
	VariantFaultyIDs
	VariantIndirectCT
	VariantIndirectMR
	VariantURBIDs
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantConsensusMsgs:
		return "consensus-on-messages"
	case VariantFaultyIDs:
		return "faulty-consensus-on-ids"
	case VariantIndirectCT:
		return "indirect-consensus-CT"
	case VariantIndirectMR:
		return "indirect-consensus-MR"
	case VariantURBIDs:
		return "consensus-on-ids+urb"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Correct reports whether the variant satisfies all atomic broadcast
// properties under crashes (VariantFaultyIDs does not).
func (v Variant) Correct() bool { return v != VariantFaultyIDs }

// Deliver is the adeliver upcall, invoked in delivery order.
type Deliver func(app *msg.App)

// Config parameterizes an atomic broadcast engine.
type Config struct {
	// Variant selects the ordering stack.
	Variant Variant
	// RB selects the diffusion broadcast for the id-based variants
	// (KindEager = O(n²) or KindLazy = O(n)). VariantURBIDs always uses
	// uniform reliable broadcast; if RB is zero it defaults to KindEager.
	RB rbcast.Kind
	// Detector is the ◇S failure detector shared by the stack's layers. Nil
	// means a heartbeat detector with fd.DefaultConfig, its counters in
	// Metrics, made by New.
	Detector fd.Detector
	// RcvCheckCost is the CPU time charged per identifier by the rcv
	// predicate (models the id-set bookkeeping the paper measures as the
	// overhead of indirect consensus). Zero is valid.
	RcvCheckCost time.Duration
	// MaxBatch caps the number of identifiers proposed per consensus
	// instance (0 = unlimited, the paper's Algorithm 1, which proposes
	// the whole unordered set). A cap trades ordering latency under
	// burst for bounded per-instance work — an extension knob, ablated
	// in bench_test.go.
	MaxBatch int
	// Pipeline is the number of consensus instances this process may have
	// in flight concurrently (0 or 1 = the paper's serial Algorithm 1,
	// which starts instance k+1 only after consuming instance k's
	// decision). With W > 1 the engine proposes disjoint identifier
	// batches to instances kNext..kNext+W-1 concurrently; decisions are
	// still *consumed* in serial k order, so uniform total order and the
	// No loss invariant are untouched. Pipelining pays off when MaxBatch
	// bounds per-instance work: serial throughput is capped at
	// MaxBatch/instance-latency, and W concurrent instances multiply that
	// ceiling (see the pipeline ablation in internal/bench).
	Pipeline int
	// Adaptive enables the adaptive control plane: a feedback
	// controller (internal/adapt) samples the engine's signals every
	// control tick — unordered backlog, delivered rate, smoothed
	// propose→decide latency, per-link RTT estimates — and retargets the
	// pipeline width and MaxBatch between instances (AIMD on backlog), plus
	// the relink anti-entropy cadence when Recover is also set. Pipeline
	// and MaxBatch become the controller's *initial* values; zero MaxBatch
	// starts at the controller's minimum batch, since unbounded batching
	// hides the backlog signal the controller steers by. See
	// Engine.Observe, Engine.Retarget and docs/ARCHITECTURE.md.
	Adaptive bool
	// Recover, when non-nil, enables the recovery subsystem — the relink
	// reliable-link layer, the consensus decide-relay and the engine's
	// payload fetch — which restores the model's reliable-channel
	// assumption over lossy links: with it, correct processes reach full
	// delivery in total order even across drop-mode (black-hole) network
	// partitions. See RecoverConfig. Snapshot and Persist imply it (see
	// resolve): nil then means the zero RecoverConfig.
	Recover *RecoverConfig
	// Snapshot enables snapshot state transfer on top of the relay/fetch
	// repairs (implying Recover): a peer behind by more than DecisionLogCap
	// consensus instances — beyond the decide-relay's horizon — is shipped
	// the delivered prefix plus engine state (the Raft-snapshot analogue)
	// instead of a decision replay it can no longer use. Without it,
	// recovery covers only lags the decision log can replay. See snapshot.go
	// and docs/ARCHITECTURE.md.
	Snapshot bool
	// PreferPeers, when non-empty, lists the repair targets to try first:
	// both rotating repair paths (payload fetch, decision sync) cycle
	// through the preferred peers before the rest. The Cluster API fills it
	// with this process's same-site peers on Topology setups, so repair
	// traffic stays off the expensive inter-site links when a local peer can
	// serve it. Peers outside the current view (or self) are ignored; empty
	// leaves the rotation unchanged, and without recovery it is unused.
	PreferPeers []stack.ProcessID
	// Persist, when non-nil, enables crash-recovery persistence with bounded
	// memory: the engine checkpoints its delivered-prefix digest to the
	// configured store, prunes payloads and bookkeeping below the boundary
	// every member has durably passed, and a process restarted with the same
	// store resumes from its checkpoint and catches the tail through the
	// recovery paths. It implies Snapshot (the restart catch-up path; see
	// resolve). See persist.go and internal/persist.
	Persist *PersistConfig
	// Members, when non-nil, enables dynamic membership: the sorted initial
	// member set (a subset of the universe 1..N; this process need not be in
	// it). Membership then changes only through configuration messages
	// riding the total order (BroadcastConfig): a delivered change switches
	// the transport-level view (diffusion, heartbeats, relink) immediately
	// and the consensus-level view — quorums, coordinator rotation,
	// per-instance fan-out — at instance deliveryPoint+ConfigLag, so every
	// process resolves the same member set for the same instance. Nil (the
	// default) is the static full group: no view bookkeeping, no behavioral
	// change anywhere.
	Members []stack.ProcessID
	// Deliver receives adelivered messages, in total order. Configuration
	// messages are consumed by the engine at the delivery boundary and do
	// not reach this callback.
	Deliver Deliver
	// OnDecision, if set, is invoked at the instant this process learns
	// each consensus decision, before the decision is applied. Tests use
	// it to check the paper's No loss invariant (a decided identifier set
	// must be held, in full, by at least one correct process at decision
	// time).
	OnDecision func(k uint64, v consensus.Value)
	// Trace, when non-nil, records every message's lifecycle spans —
	// abroadcast → receive → propose → decide → ordered → adeliver, plus
	// the recovery events (retransmit, fetch, rediffuse, snapshot install,
	// restart) — stamped with the process clock, which is virtual time on
	// the simulator, so a trace is byte-reproducible under the seed. Nil
	// (the default) records nothing: every hook is a pointer test, made
	// before the event is stamped (Engine.record).
	Trace *trace.Recorder
	// Metrics, when non-nil, is the registry the engine's counters and
	// gauges (core.*, persist.*) register into; it is also handed down to
	// the consensus and relink layers. Nil leaves every handle standalone —
	// the Stats views work either way, and updates never allocate or
	// schedule, so enabling a registry cannot perturb a simulated run.
	Metrics *metrics.Registry

	// snapshotChunk and snapshotMax bound a snapshot transfer (entries per
	// chunk message, entries per round; see snapshot.go). Fields rather than
	// the bare constants resolve fills in only so the in-package multi-round
	// test can shrink them.
	snapshotChunk, snapshotMax int
}

// resolve flattens the implications between the repair features, on the
// engine's own copy of the configuration: Persist ⇒ Snapshot ⇒ Recover. It is
// the only place that knows them — callers set exactly the features they
// were asked for. Recover is replaced by an engine-owned copy either way, so
// the caller's RecoverConfig is never mutated (initPersist rewires its Link).
func (c *Config) resolve() {
	if c.Persist != nil {
		c.Snapshot = true
	}
	if c.snapshotChunk == 0 {
		c.snapshotChunk = snapshotChunk
	}
	if c.snapshotMax == 0 {
		c.snapshotMax = snapshotMax
	}
	if c.Recover == nil && !c.Snapshot {
		return
	}
	rc := RecoverConfig{}
	if c.Recover != nil {
		rc = *c.Recover
	}
	c.Recover = &rc
}

// Engine is the per-process atomic broadcast engine (Algorithm 1).
//
//abcheck:eventloop all Engine state is owned by the process's event loop
type Engine struct {
	ctx  stack.Context
	cfg  Config
	node *stack.Node // retained for view retargeting (dynamic membership)
	rb   rbcast.Broadcaster
	cons *consensus.Service

	// Observability (Config.Trace / Config.Metrics): the possibly-nil span
	// recorder and the engine's metric cells. Counter/gauge handles are
	// always non-nil (standalone without a registry), so update sites need
	// no gating; see internal/metrics and internal/trace.
	tr           *trace.Recorder
	broadcasts   *metrics.Counter
	deliveredC   *metrics.Counter
	decisions    *metrics.Counter
	rediffusions *metrics.Counter
	winGauge     *metrics.Gauge
	batchGauge   *metrics.Gauge

	seq uint64 // per-sender sequence numbers for id(m)

	// Dynamic membership state (Config.Members): the view log — one entry
	// per applied configuration change, never pruned (a handful of entries
	// per run). See membership.go.
	views []viewRec

	// msgs is receivedp, unorderedp, orderedp and the adelivered set of
	// Algorithm 1: one record per identifier, see table.go.
	msgs msgTable

	kNext    uint64                     // next consensus instance to consume
	kPropose uint64                     // next consensus instance to propose to (≥ kNext)
	window   int                        // pipeline width W (≥ 1; retargetable, see Retarget)
	maxBatch int                        // per-instance id cap (0 = unlimited; retargetable)
	inFlight map[uint64]proposal        // our outstanding proposals, by instance
	needed   map[uint64]bool            // foreign-live instances we have not joined
	pending  map[uint64]consensus.Value // decisions not yet consumed

	maxInFlight int // high-water mark of len(inFlight), for tests/diagnostics

	// Adaptive control plane state (Config.Adaptive): the controller, the
	// smoothed propose→decide latency of our own proposals, and a retarget
	// counter for tests. See adaptive.go.
	ctrl      *adapt.Controller
	decLat    stats.Ewma
	retargets *metrics.Counter

	// Recovery state (Config.Recover): the ProtoSync sending helper, the
	// single outstanding fetch timer, the rotating fetch target, and a
	// fetch counter for tests.
	sync         stack.Proto
	link         *relink.Link
	fetchArmed   bool
	rediffArmed  bool
	syncArmed    bool
	fetchAttempt int
	syncAttempt  int
	fetches      *metrics.Counter
	syncReqs     *metrics.Counter

	// Snapshot state (Config.Snapshot): the ProtoSnapshot sending
	// helper, the delivered-prefix log (delivery order with ordering
	// serials, the producer side's source of truth), the installer's
	// in-progress transfer, and counters for tests. See snapshot.go.
	snap         stack.Proto
	deliveredLog []ordRec
	snapTarget   uint64          // highest serial an offer has promised; behind until kNext reaches it
	snapFrom     stack.ProcessID // producer of the transfer in progress (0 = none)
	snapStarted  time.Time       // when the transfer was accepted (stall detection)
	snapBoundary uint64          // transfer header, fixed by the first chunk
	snapStart    uint64
	snapTotal    int
	snapMore     bool
	snapChunks   map[int][]SnapEntry
	snapsServed  *metrics.Counter
	snapsDone    *metrics.Counter

	// Crash-recovery persistence state (Config.Persist): the checkpoint/WAL
	// store, the durable frontiers peers have announced, and the prune
	// bookkeeping. deliveredN is maintained unconditionally (the delivered
	// set itself is msgs.delivered). See persist.go.
	pstore        persist.Store
	ckptEvery     time.Duration
	deliveredN    int                        // total adelivered count
	logBase       uint64                     // deliveredLog entries pruned below deliveredLog[0]
	peerFrontier  map[stack.ProcessID]uint64 // durable frontiers announced per process
	lastCkptF     uint64                     // frontier of the last saved checkpoint
	linkReserve   uint64                     // WAL'd relink sequence reservation
	prunedTo      uint64                     // boundary of the last prune round
	restartProbes int                        // post-restart sync probes still owed
	held          *fd.Heartbeat              // a restarted incarnation's detector until it rejoins (see rejoin)
	ckpts         *metrics.Counter
	prunes        *metrics.Counter
	persistErrs   *metrics.Counter
}

// proposal is one outstanding proposal of this process: the identifiers it
// claimed and, for the adaptive controller's latency signal, when it was made.
type proposal struct {
	ids msg.IDSet
	at  time.Time
}

// ordRec is one entry of the ordered/delivered sequences: an identifier plus
// the consensus instance that ordered it. The serial lets the snapshot
// producer truncate a transfer exactly at an instance boundary.
type ordRec struct {
	id msg.ID
	k  uint64
}

// New wires an atomic broadcast engine and all its substrate layers into
// the node. Every handler and timer callback the engine ever runs is
// registered (directly or transitively) here.
//
//abcheck:entry constructor; runs before the event loop starts
func New(node *stack.Node, cfg Config) (*Engine, error) {
	if cfg.Deliver == nil {
		return nil, fmt.Errorf("core: nil Deliver upcall")
	}
	if cfg.Variant < VariantConsensusMsgs || cfg.Variant > VariantURBIDs {
		return nil, fmt.Errorf("core: unknown variant %v", cfg.Variant)
	}
	if cfg.RB == 0 {
		cfg.RB = rbcast.KindEager
	}
	if cfg.Pipeline < 0 {
		return nil, fmt.Errorf("core: negative pipeline window %d", cfg.Pipeline)
	}
	window := cfg.Pipeline
	if window < 1 {
		window = 1
	}
	if cfg.Persist != nil && cfg.Persist.Store == nil {
		return nil, fmt.Errorf("core: Persist with nil Store")
	}
	cfg.resolve()
	var cp *persist.Checkpoint
	if cfg.Persist != nil {
		// Read once, here: whether this is a restarted incarnation decides how
		// its detector starts.
		var err error
		if cp, err = persist.Recover(cfg.Persist.Store); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	var held *fd.Heartbeat
	if cfg.Detector == nil {
		// The default ◇S detector. Made here — after validation, before any
		// other layer is wired — so its first heartbeat and timers are
		// scheduled where every hand-assembled stack used to schedule them.
		// A restarted incarnation's starts held (see rejoin); a detector the
		// caller supplies is never held.
		hb := fd.DefaultConfig()
		hb.Metrics = cfg.Metrics
		if cp != nil {
			held = fd.NewHeldHeartbeat(node, hb)
			cfg.Detector = held
		} else {
			cfg.Detector = fd.NewHeartbeat(node, hb)
		}
	}
	e := &Engine{
		ctx:      node.Context(),
		cfg:      cfg,
		node:     node,
		msgs:     msgTable{entries: make(map[msg.ID]msgEntry), retain: cfg.Recover != nil},
		kNext:    1,
		kPropose: 1,
		window:   window,
		maxBatch: cfg.MaxBatch,
		inFlight: make(map[uint64]proposal),
		needed:   make(map[uint64]bool),
		pending:  make(map[uint64]consensus.Value),
		held:     held,
	}
	// Metric handles before any init step that may bump them (rehydrate
	// restores the delivered count; a failing store surfaces errors).
	e.tr = cfg.Trace
	e.broadcasts = cfg.Metrics.Counter("core.broadcasts")
	e.deliveredC = cfg.Metrics.Counter("core.delivered")
	e.decisions = cfg.Metrics.Counter("core.decisions")
	e.fetches = cfg.Metrics.Counter("core.fetches")
	e.syncReqs = cfg.Metrics.Counter("core.sync_requests")
	e.rediffusions = cfg.Metrics.Counter("core.rediffusions")
	e.retargets = cfg.Metrics.Counter("core.retargets")
	e.snapsServed = cfg.Metrics.Counter("core.snapshots_served")
	e.snapsDone = cfg.Metrics.Counter("core.snapshots_installed")
	e.ckpts = cfg.Metrics.Counter("persist.checkpoints")
	e.prunes = cfg.Metrics.Counter("persist.prunes")
	e.persistErrs = cfg.Metrics.Counter("persist.errors")
	e.winGauge = cfg.Metrics.Gauge("core.window")
	e.batchGauge = cfg.Metrics.Gauge("core.max_batch")
	if cfg.Adaptive {
		e.initAdapt()
	}
	if cfg.Members != nil {
		if err := e.initMembership(); err != nil {
			return nil, err
		}
	}
	if cfg.Persist != nil {
		// After initMembership (rehydrating may replace the seed view log),
		// before initRecovery (which consumes the Link config initPersist
		// rewires).
		e.initPersist(cp)
	}

	// Diffusion layer.
	if cfg.Variant == VariantURBIDs {
		e.rb = rbcast.NewUniform(node, e.onRDeliver)
	} else {
		e.rb = rbcast.New(cfg.RB, node, cfg.Detector, e.onRDeliver)
	}

	// Recovery subsystem (reliable link + payload fetch here, decide-relay
	// via the consensus config below).
	if cfg.Recover != nil {
		e.initRecovery(node)
	}

	// Ordering layer.
	ccfg := consensus.Config{
		Detector: cfg.Detector,
		Decide:   e.onDecide,
		Metrics:  cfg.Metrics,
	}
	if e.dynamic() {
		ccfg.ViewAt = e.viewAt
	}
	if cfg.Recover != nil {
		ccfg.Relay = true
		ccfg.DecisionLogCap = cfg.Recover.DecisionLogCap
		if cfg.Snapshot {
			// Deep lag (a peer behind the decision log's floor) is answered
			// with a snapshot offer instead of a futile relay.
			ccfg.OnDeepLag = e.onDeepLag
		}
	}
	if e.pipelined() {
		// Serial operation needs no participation callback: an instance's
		// identifiers always diffuse to everyone and pull them in. Only a
		// pipelined engine can face an instance it has nothing to say
		// about (see maybePropose) — and an adaptive engine counts as
		// pipelined even at W=1, since the controller may widen the window
		// at any tick (and peers' own controllers may already have).
		ccfg.OnNeed = e.onNeed
	}
	switch cfg.Variant {
	case VariantConsensusMsgs, VariantFaultyIDs, VariantURBIDs:
		ccfg.Algo = consensus.CT
	case VariantIndirectCT:
		ccfg.Algo = consensus.CT
		ccfg.Indirect = true
		ccfg.Rcv = e.rcv
	case VariantIndirectMR:
		ccfg.Algo = consensus.MR
		ccfg.Indirect = true
		ccfg.Rcv = e.rcv
	}
	cons, err := consensus.NewService(node, ccfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e.cons = cons
	if e.ctrl != nil {
		// Start the control loop only now that every layer is wired and
		// construction can no longer fail.
		e.armAdapt()
	}
	if e.pstore != nil {
		// Same rule for the checkpoint loop — and a restarted incarnation
		// starts probing for the tail it missed while down — held, unless
		// its group cannot decide without it (n ≤ 2; see rejoin).
		e.armCkpt()
		e.rejoin()
		e.armSyncReq()
	}
	e.winGauge.Set(int64(e.window))
	e.batchGauge.Set(int64(e.maxBatch))
	return e, nil
}

// ABroadcast atomically broadcasts a payload (Algorithm 1 lines 7-8): the
// message is R-broadcast once; ordering happens on its identifier.
// It returns the new message's identifier.
//
//abcheck:entry public API; callers invoke it on the owning event loop (simnet.World.Do / live mailbox)
func (e *Engine) ABroadcast(payload []byte) msg.ID {
	e.seq++
	e.noteSeq()
	app := &msg.App{
		ID:      msg.ID{Sender: e.ctx.ID(), Seq: e.seq},
		Payload: payload,
	}
	e.broadcasts.Inc()
	e.record(trace.Event{Kind: trace.KindABroadcast, ID: app.ID})
	e.rb.Broadcast(app)
	return app.ID
}

// record stamps ev with this process and its clock and records it — when a
// recorder is attached. The test comes first: a disabled trace costs one
// pointer test per hook point, not a clock reading.
func (e *Engine) record(ev trace.Event) {
	if e.tr.Enabled() {
		ev.At, ev.P = e.ctx.Now(), e.ctx.ID()
		e.tr.Record(ev)
	}
}

// rcv is the predicate of Algorithm 1 lines 9-10: true iff every identifier
// in the proposal has a received message — held, or already delivered here: a
// lagging proposer may still name a message this process has delivered and
// forgotten. The per-identifier CPU charge models the real cost of these
// checks — the overhead the paper measures in Figures 3 and 4.
func (e *Engine) rcv(v consensus.Value) bool {
	ids := idsOfValue(v)
	if e.cfg.RcvCheckCost > 0 {
		e.ctx.Work(time.Duration(len(ids)) * e.cfg.RcvCheckCost)
	}
	held := true
	for _, id := range ids {
		if !e.msgs.has(id) {
			held = false
			if e.cfg.Recover == nil {
				break
			}
			// A failed check names messages a peer holds but this process
			// never received — with recovery enabled, fetch them rather
			// than rely on a diffusion that may have been black-holed.
			e.msgs.wanted.Add(id)
		}
	}
	if !held {
		e.armFetch()
	}
	return held
}

// onRDeliver handles R-delivery of a message (Algorithm 1 lines 11-14).
func (e *Engine) onRDeliver(app *msg.App) {
	var now time.Time // entered-unordered instant: read only by the recovery re-diffusion
	if e.cfg.Recover != nil {
		now = e.ctx.Now()
	}
	if !e.msgs.receive(app, now, true) {
		return // a duplicate, or a straggling copy of a delivered and forgotten message
	}
	e.record(trace.Event{Kind: trace.KindReceive, ID: app.ID})
	e.armRediffuse()
	e.tryDeliver() // the head of orderedp may have been waiting for this payload
	e.maybePropose()
}

// maybePropose starts consensus instances while the pipeline window has
// room. With window 1 this is exactly Algorithm 1 lines 15-17: propose the
// unordered set to kNext when no proposal is outstanding. With window W > 1
// the engine proposes *disjoint* batches of unordered identifiers to
// instances kPropose, kPropose+1, ... until W instances are in flight;
// identifiers claimed by an outstanding proposal are skipped, and become
// proposable again when their instance is consumed without ordering them
// (some other process's batch won the instance — see onDecide).
//
// A pipelined proposal cannot rely on the serial liveness argument (its
// identifiers may all be ordered by an earlier instance's decision before
// the instance runs, after which diffusion pulls nobody in), so proposing
// beyond kNext — or proposing an empty batch — broadcasts a participation
// beacon (consensus.OpenMsg). Conversely, when another process opens an
// instance this process has no identifiers for, it joins with an empty
// batch so quorums stay reachable.
//
// A restarted incarnation proposes nothing, and so casts no vote, until it
// rejoins.
func (e *Engine) maybePropose() {
	if e.held != nil {
		return
	}
	for len(e.inFlight) < e.window {
		k := e.kPropose
		if _, decided := e.pending[k]; decided {
			// Already decided by others; nothing to contribute.
			delete(e.needed, k)
			e.kPropose++
			continue
		}
		if e.dynamic() {
			if k >= e.viewFrontier()+ConfigLag {
				// Instance k's member set is not locally determined yet: a
				// configuration change still queued for delivery could take
				// effect at or below k. Stop proposing until delivery (or
				// recovery) advances the frontier — every instance below
				// frontier+ConfigLag has its view pinned by the already-
				// applied prefix, so serial operation is never gated.
				return
			}
			if !e.selfInView(k) {
				// Not a member of instance k (still a joiner, or already
				// retired): never propose, claim, or beacon for it — its
				// members decide it, and the decision reaches this process
				// point-to-point if it is in the instance's view, or via
				// relay/snapshot catch-up otherwise.
				delete(e.needed, k)
				e.kPropose = k + 1
				continue
			}
		}
		batch := e.msgs.claimBatch(e.maxBatch)
		if len(batch) == 0 && !((e.pipelined() || e.dynamic()) && e.needed[k]) {
			return
		}
		delete(e.needed, k)
		set := msg.IDSetFromSorted(batch)
		prop := proposal{ids: set}
		if e.ctrl != nil {
			prop.at = e.ctx.Now() // read by onDecide, under Adaptive only
		}
		e.inFlight[k] = prop
		e.maxInFlight = max(e.maxInFlight, len(e.inFlight))
		e.kPropose = k + 1
		if e.pipelined() && (k > e.kNext || len(batch) == 0) {
			// An adaptive engine beacons even at W=1: its window may have
			// shrunk back to serial while kPropose is still ahead of kNext,
			// and the serial liveness argument does not cover those
			// instances.
			e.cons.Open(k)
		}
		e.record(trace.Event{Kind: trace.KindPropose, K: k, N: len(batch)})
		switch e.cfg.Variant {
		case VariantConsensusMsgs:
			msgs := make([]*msg.App, 0, len(batch))
			for _, id := range batch {
				msgs = append(msgs, e.msgs.payload(id))
			}
			e.cons.Propose(k, NewMsgSetValue(msgs))
		default:
			e.cons.Propose(k, IDSetValue{Set: set})
		}
	}
}

// onNeed joins a consensus instance some other process is running. Invoked
// by the consensus service (only when pipelining) on traffic for an
// instance this process has not proposed to.
func (e *Engine) onNeed(k uint64) {
	if k < e.kNext {
		return // settled locally; stale traffic
	}
	e.needed[k] = true
	e.maybePropose()
}

// onDecide records the decision of instance k and consumes decisions in
// serial order (Algorithm 1 lines 18-21).
func (e *Engine) onDecide(k uint64, v consensus.Value) {
	if _, dup := e.pending[k]; dup || k < e.kNext {
		return
	}
	if p, ours := e.inFlight[k]; ours && e.ctrl != nil {
		// Propose→decide latency of our own proposal: the consensus-level
		// congestion signal of the adaptive control plane.
		e.decLat.Observe(float64(e.ctx.Now().Sub(p.at)))
	}
	if e.cfg.OnDecision != nil {
		e.cfg.OnDecision(k, v)
	}
	e.decisions.Inc()
	if e.tr.Enabled() {
		// idsOfValue allocates for a message-set value, so the batch size is
		// computed only when a recorder is attached.
		e.record(trace.Event{Kind: trace.KindDecide, K: k, N: len(idsOfValue(v))})
	}
	e.pending[k] = v
	e.consumePending()
	// Consumed instances are settled locally and our decide relay is out:
	// their consensus state can be released.
	e.cons.PruneBelow(e.kNext)
	// Decisions left pending mean kNext is missing here — a hole that,
	// after a lossy episode, only an explicit sync may fill.
	e.armSyncReq()
	e.rejoin()
	e.maybePropose()
}

// consumePending consumes decisions in serial order from the pending set,
// advancing kNext as far as the contiguous prefix reaches. Shared by the
// decide upcall and the snapshot installer (which jumps kNext past a gap and
// may thereby unlock already-held later decisions).
func (e *Engine) consumePending() {
	for {
		next, ok := e.pending[e.kNext]
		if !ok {
			break
		}
		delete(e.pending, e.kNext)
		if p, ours := e.inFlight[e.kNext]; ours {
			// Release our proposal for the consumed instance. Identifiers
			// the decision did not order (another process's batch won) are
			// still in unordered and, unclaimed again, get re-proposed to
			// a later instance by maybePropose.
			delete(e.inFlight, e.kNext)
			e.msgs.release(p.ids.RawIDs())
		}
		delete(e.needed, e.kNext)
		k := e.kNext
		e.kNext++
		e.applyDecision(k, next)
	}
	if e.kPropose < e.kNext {
		// Instances decided entirely without us; never propose below kNext.
		e.kPropose = e.kNext
	}
}

// applyDecision appends the identifiers decided by instance k, in
// deterministic order, to the ordered sequence and delivers what it can.
func (e *Engine) applyDecision(k uint64, v consensus.Value) {
	if mv, ok := v.(MsgSetValue); ok {
		// Consensus on messages: the decision itself carries the
		// payloads, so every decider can deliver them even if the
		// diffusion broadcast has not reached it yet. (Not proposable,
		// so there is no entered-unordered instant to stamp.)
		for _, a := range mv.Msgs {
			if e.msgs.receive(a, time.Time{}, false) {
				e.record(trace.Event{Kind: trace.KindReceive, ID: a.ID})
			}
		}
	}
	for _, id := range idsOfValue(v) {
		if e.msgs.order(id, k) {
			e.record(trace.Event{Kind: trace.KindOrdered, ID: id, K: k})
		}
	}
	e.tryDeliver()
}

// tryDeliver adelivers ordered messages whose payload has been received
// (Algorithm 1 lines 23-25). With a correct variant the head never blocks
// forever: No loss (or uniform diffusion) guarantees the payload arrives.
func (e *Engine) tryDeliver() {
	for {
		rec, app := e.msgs.deliverNext()
		if app == nil {
			// Nothing queued, or the head is ordered but not yet received:
			// with recovery enabled, arrange to fetch the payload if the
			// stall persists (armFetch is a no-op when nothing is missing).
			e.armFetch()
			return
		}
		e.deliveredN++
		e.deliveredC.Inc()
		e.record(trace.Event{Kind: trace.KindADeliver, ID: rec.id, K: rec.k})
		if e.cfg.Snapshot {
			// The delivered prefix, in order and with ordering serials, is
			// what snapshot transfers ship; see snapshot.go.
			e.deliveredLog = append(e.deliveredLog, rec)
		}
		if app.Config != nil && e.dynamic() {
			// A configuration change is consumed at its delivery boundary:
			// the quorum switch it defines takes effect at instance
			// rec.k+ConfigLag, the transport-level view immediately. It is
			// not an application delivery.
			e.applyConfig(rec.k, app.Config)
			continue
		}
		e.cfg.Deliver(app)
	}
}

// Blocked reports whether the engine is stuck: an identifier is at the head
// of the ordered sequence with no corresponding message. Transient in
// correct stacks; permanent in the faulty stack's Section 2.2 scenario.
func (e *Engine) Blocked() bool { return e.msgs.blocked() }

// BlockedOn returns the identifier the engine is waiting on, if Blocked.
func (e *Engine) BlockedOn() (msg.ID, bool) {
	if e.Blocked() {
		return e.msgs.ordered[0].id, true
	}
	return msg.ID{}, false
}

// HasReceived reports whether this process has received the message with
// the given identifier (the receivedp set of Algorithm 1): it holds the
// payload, or has delivered it. Used by invariant checkers.
func (e *Engine) HasReceived(id msg.ID) bool { return e.msgs.has(id) }

// Stats reports engine counters for diagnostics and tests.
type Stats struct {
	// Received is the number of payloads currently held: received and not
	// yet forgotten — at delivery without a repair plane, at the prune
	// boundary with Persist, never with Recover alone.
	Received  int
	Delivered int
	Unordered int
	OrderedQ  int
	Instances uint64
	// InFlight is the number of this process's currently outstanding
	// consensus proposals; MaxInFlight is its high-water mark. Serial
	// operation (Pipeline ≤ 1) never exceeds 1.
	InFlight    int
	MaxInFlight int
	// Window and MaxBatch are the currently applied pipeline width and
	// per-instance batch cap — equal to the Config values for a static
	// engine, moving targets under the adaptive control plane. Retargets
	// counts how often Retarget changed either.
	Window    int
	MaxBatch  int
	Retargets int
	// Persistence counters (zero without Config.Persist): the retained
	// delivered-log suffix length, the absolute position it starts at
	// (entries pruned below it), and checkpoint/prune round counts.
	DeliveredLog int
	LogBase      uint64
	Checkpoints  int
	Prunes       int
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Received:     e.msgs.held,
		Delivered:    e.deliveredN,
		Unordered:    e.msgs.unordered.Len(),
		DeliveredLog: len(e.deliveredLog),
		LogBase:      e.logBase,
		Checkpoints:  int(e.ckpts.Value()),
		Prunes:       int(e.prunes.Value()),
		OrderedQ:     len(e.msgs.ordered),
		Instances:    e.kNext - 1,
		InFlight:     len(e.inFlight),
		MaxInFlight:  e.maxInFlight,
		Window:       e.window,
		MaxBatch:     e.maxBatch,
		Retargets:    int(e.retargets.Value()),
	}
}

// idsOfValue extracts identifiers, in canonical order, from either value
// type. The slice may be the value's own: callers only read it.
func idsOfValue(v consensus.Value) []msg.ID {
	switch vv := v.(type) {
	case IDSetValue:
		return vv.Set.RawIDs()
	case MsgSetValue:
		return vv.IDs()
	default:
		return nil
	}
}
