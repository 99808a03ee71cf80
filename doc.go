// Package abcast is a uniform atomic broadcast library built on *indirect
// consensus*, reproducing "Solving Atomic Broadcast with Indirect
// Consensus" (Ekwall & Schiper, DSN 2006).
//
// Atomic broadcast delivers messages to all processes in the same total
// order. The classic reduction runs consensus on sets of full messages,
// which saturates the network as payloads grow. Running consensus on
// message *identifiers* fixes the cost but, done naively, breaks the
// Validity property when a process crashes: an identifier can be ordered
// whose message no correct process holds, blocking delivery forever.
// Indirect consensus adds a "No loss" guarantee — a decided identifier set
// always has its messages at one correct process — restoring correctness at
// nearly the naive stack's speed.
//
// The top-level package offers a ready-to-use in-memory cluster running on
// goroutines and channels:
//
//	c, err := abcast.New(3, abcast.Options{})
//	if err != nil { ... }
//	defer c.Close()
//	c.Broadcast(1, []byte("hello"))
//	d, ok := c.Next(2, time.Second) // same order at every process
//
// Beyond the paper's serial ordering loop, Options.Pipeline runs up to W
// consensus instances concurrently (decisions are still consumed in serial
// order, so delivery order and crash safety are unchanged). Pipelining
// matters when Options.MaxBatch caps the identifiers ordered per instance:
// the serial engine's throughput is then bounded by MaxBatch divided by the
// consensus round-trip, and W concurrent instances multiply that ceiling —
// with unbounded batching (the paper's Algorithm 1), load is absorbed into
// ever larger batches instead and W buys little. The trade-off is
// quantified by the `abench -fig p1` ablation.
//
// # WAN / geo-replication
//
// The paper evaluates only two LAN test beds; this reproduction extends the
// scenario space to geo-replicated deployments. A netmodel.Topology assigns
// every process to a site and every ordered site pair a directed link
// (latency, jitter, bandwidth — asymmetric routes allowed); Options.Topology
// selects one for the live cluster, and the simulator applies it per link.
// netmodel.WAN3Sites is a calibrated 3-site profile: 1 ms intra-site links,
// 40-126 ms asymmetric inter-site links at ~100 Mbit/s. Precedence is
// explicit: an adversarial Params.LatencyFn overrides the topology, which
// overrides the uniform latency/jitter.
//
// The simulator adds runtime partition injection: simnet World.Partition
// splits the system into groups and severs cross-group messages at their
// arrival instant, either dropping them (PartitionDrop — a black hole,
// which violates the quasi-reliable channel assumption while it lasts) or
// holding them until World.Heal (PartitionDelay — TCP-like buffering, under
// which every protocol property survives the episode and the minority side
// catches up at the heal). Both compose with Crash and stay deterministic
// under the simulation seed. Figures g1 (WAN latency vs pipeline width) and
// g2 (delivered throughput across a minority-site partition-and-heal
// episode) quantify the scenario: `abench -fig g1,g2`, with -topo and
// -partition available to impose a topology or an episode on any figure.
//
// # Recovery: surviving lossy links
//
// The paper's model assumes quasi-reliable channels, so a drop-mode
// partition steps outside it: traffic black-holed at the cut is gone, and
// once the original DecideMsgs and payload diffusions are lost, the minority
// side of a healed cut would stay behind forever. Options.Recovery (engine
// side: core.Config.Recover) installs the recovery subsystem that restores
// the channel assumption end to end:
//
//   - a reliable-link layer (internal/relink) that sequence-numbers every
//     remote send, keeps a bounded per-peer retransmission buffer, and runs
//     periodic anti-entropy (receiver digests, sender probes) to find and
//     repair gaps — with an eviction watermark so bounded buffers degrade
//     to give-ups instead of infinite NACKs;
//   - a consensus decide-relay: decisions outlive pruning in a bounded log,
//     and peers whose stale traffic or explicit sync requests reveal them
//     as behind are re-sent the decisions they missed;
//   - engine-level payload repair: ordered identifiers whose message never
//     arrived are fetched from a peer by identifier (No loss guarantees a
//     holder exists), and messages stuck unordered too long are
//     re-diffused, since the reliable broadcasts relay only on first
//     receipt.
//
// Recovery's repairs are replay-bounded: relink by its retransmission
// buffers, the decide-relay by its decision log. A process cut off for more
// consensus instances than the log retains (DecisionLogCap) falls off that
// horizon — the decisions it needs first are evicted everywhere, so no
// replay can catch it up. Options.Snapshot (engine side:
// core.Config.Snapshot; implies Recovery) adds the Raft-snapshot
// analogue: the deep-lagged peer is shipped the delivered prefix plus
// engine state in bounded chunked rounds, atomically advanced past the gap,
// and the relay/fetch paths finish the tail — so the broadcast contract
// holds for arbitrarily long outages.
//
// The partition-mode guarantee matrix, pinned by the property tests in
// internal/core/partition_test.go and internal/core/snapshot_test.go
// ("deep" = the minority missed more instances than the decision log
// retains):
//
//	mode        recovery     during the cut                after the heal
//	delay       any          majority progresses; safety   full delivery everywhere
//	                         (total order, No loss) holds  (channels were never lost)
//	drop        off          majority progresses; safety   minority may stay behind
//	                         holds                         forever (documented gap)
//	drop        on           majority progresses; safety   full delivery everywhere —
//	                         holds                         drop behaves like delay
//	deep drop   on, no       majority progresses; safety   minority pinned below the
//	            snapshots    holds                         log floor forever
//	deep drop   on +         majority progresses; safety   full delivery everywhere —
//	            snapshots    holds                         snapshot, then relay/fetch
//
// Figure g3 (`abench -fig g3`) shows the delivered-rate flatline without
// recovery and the post-heal catch-up with it, including with buffers so
// small that only the decide-relay/fetch path (not raw replay) can finish
// the job; figure g4 repeats the comparison in the deep-lag regime, where
// relay-only recovery flatlines and only snapshot state transfer converges.
// `abench -recover` and `-snapshot` impose the subsystems on any figure.
//
// # Adaptive control plane
//
// Every performance knob above is a static number, and the right value is
// workload- and topology-dependent: the pipeline ablations show the best W
// differs between a metro network and the WAN. Options.Adaptive (engine
// side: core.Config.Adaptive) replaces the hand-tuning with feedback: each
// process samples its own signals — unordered backlog, delivered rate,
// smoothed propose→decide latency, per-link round-trip estimates from the
// relink probe/ack exchanges — on a control tick and retargets its pipeline
// width and MaxBatch (AIMD: grow W while the backlog outruns a pipeline
// round and decisions keep pace, revert growth that adds no delivered
// throughput, decay toward serial when the backlog drains; batches escalate
// only once the window is exhausted) plus, with Recovery on, the relink
// anti-entropy cadence (a multiple of the slowest link's measured RTT
// instead of a constant). Width changes only gate how many new consensus
// instances may start — in-flight instances always drain and release their
// identifier claims at consumption — so total order and crash safety are
// exactly the static engine's. Figure p2 (`abench -fig p2`) ramps the
// offered load on the metro and WAN topologies and shows the controller
// matching the best hand-picked static W on both without retuning;
// `abench -adaptive` imposes the controller on any figure.
//
// # Configuration
//
// Options is the whole public configuration surface, and every field of it
// is set by some test, example or benchmark workload (CI checks). It is
// translated once per New into the engine's core.Config, the single
// description of a stack that the simulator harness and the benchmarks use
// directly. The repair features imply each other — Persist ⇒ Snapshot ⇒
// Recovery — and the engine resolves that in one place when it is built
// (core.New); set only the feature you want. Protocol timing that no caller
// ever needed to change (fetch and relay delays, snapshot chunking, the
// controller's bounds, the failure detector's timeouts, the membership
// switch lag) is fixed; docs/OPERATIONS.md "Fixed constants" lists the
// values.
//
// The tuning-knob matrix (defaults in parentheses; each knob also exists on
// core.Config for engine-level embedding):
//
//	knob        (default)     effect
//	Pipeline    (1)           consensus instances run concurrently; raises
//	                          the ordering ceiling W× when MaxBatch binds
//	MaxBatch    (0 = ∞)       identifiers ordered per instance; bounds
//	                          per-instance work, trades burst latency
//	Recovery    (off)         relink retransmission + anti-entropy,
//	                          decide-relay, payload fetch: drop-mode cuts
//	                          become survivable
//	Snapshot    (off)         state transfer past the decision-log horizon
//	                          (implies Recovery): arbitrarily deep lags heal
//	Adaptive    (off)         backlog-driven W/MaxBatch retargeting plus
//	                          RTT-driven anti-entropy cadence; Pipeline and
//	                          MaxBatch become initial values
//	Membership  (nil=static)  dynamic ordering group: Join/Leave changes
//	                          ride the total order; pair with Recovery
//	                          (and Snapshot for arbitrarily old joiners)
//	Persist     (nil=off)     checkpoint/WAL store per process (implies
//	                          Recovery+Snapshot): bounded memory via
//	                          delivered-prefix pruning, Crash becomes
//	                          reversible through Restart
//	Trace       (off)         lifecycle span log per message, exported via
//	                          WriteTrace (JSONL / Chrome trace_event)
//	Metrics     (off)         per-process metric registries, readable via
//	                          MetricsSnapshot; MetricsAddr adds the HTTP
//	                          /metrics + pprof exporter
//
// # Dynamic membership
//
// Options.Membership (engine side: core.Config.Members) turns the fixed
// n-process group into a dynamic one: only the listed processes form the
// initial ordering group, and Cluster.Join / Cluster.Leave change it at
// runtime. A membership change is not a side channel — it is atomically
// broadcast like any payload and takes a position in the total order, so
// every process observes it at the same delivery point. That point defines
// the switch: consensus instances at or above deliverySerial+ConfigLag (a
// constant, 32) run
// under the new member set (quorum thresholds, coordinator rotation,
// per-instance fan-out), everything below drains under the old one, and the
// transport-level view (payload diffusion, heartbeat monitoring, relink
// anti-entropy) retargets immediately at the delivery point. The lag exists
// because pipelining may already have instances proposed beyond the
// delivery frontier; proposing is gated so no instance's member set can
// change retroactively.
//
// A joiner bootstraps through the recovery machinery, not a separate
// protocol: members that apply the join introduce it with a decision replay
// (or a snapshot offer when it is behind the decision log's floor), decide
// dissemination includes the latest applied view so the joiner follows the
// tail of pre-switch instances even if the group then goes quiescent, and
// payload fetch fills in the messages it never saw diffused. A leaver
// drains every instance below the switch, then retires; the failure
// detectors mark it suspected the instant the change applies, so instances
// still draining under old views rotate past it without timeout waits.
//
// The churn guarantee matrix, pinned by the property-test families in
// internal/core/membership_test.go and the public-API test in
// cluster_test.go:
//
//	event                    guarantee
//	join                     applied at one serial everywhere; the joiner
//	                         reconstructs the full pre-join history in
//	                         order (relay + fetch; snapshot when deep)
//	leave                    instances below the switch drain with the
//	                         leaver counted; above it quorums shrink —
//	                         ordering never stalls on the departed member
//	churn + partition/crash  total order, integrity and validity hold
//	                         under any composition; safety is never
//	                         traded for the switch
//	quiescent switch         the switch completes without application
//	                         load: members drive the pipeline to the
//	                         effective serial with empty instances
//
// Dynamic membership wants Recovery on (Snapshot for joiners arbitrarily
// far behind): payloads diffused before a join miss the joiner by
// construction, and the fetch path is what repairs that. Figure m1
// (`abench -fig m1`) measures delivered throughput across a join+leave
// episode against a static group, on the metro and WAN profiles.
//
// # Crash recovery: persistence and bounded memory
//
// The paper's model is crash-stop: a crashed process is gone, and a process
// that peers may ask for history (Options.Recovery, Options.Snapshot) keeps
// its full delivered history in memory to answer them; a default cluster,
// which nobody can ask, forgets a message when it delivers it. Options.Persist
// (engine side: core.Config.Persist, stores in internal/persist) upgrades
// both at once, because they are the same mechanism. Each process
// checkpoints a digest of its delivered prefix — per-sender contiguous
// floors plus a sparse residue, the applied view log, and the consensus
// frontier — to a pluggable store (in-memory, or a directory via
// PersistOptions.Dir), lazily on a timer: a stale checkpoint only lengthens
// the redelivered suffix after a restart, never changes the order. Two
// counters are the exception and go through a write-ahead log before use —
// the process's own broadcast sequence number and the relink stream
// reservation — because reusing either after a restart would let a new
// message alias an old identifier and be deduplicated away, a Validity
// violation.
//
// Durable frontiers are gossiped, and once every current member's durable
// frontier has passed a consensus instance, everything below it is pruned
// from memory: payload buffers, delivered-set bookkeeping, the delivered
// log's prefix (snapshot state transfer then ships the retained suffix,
// which the checkpoint boundary invariant keeps sufficient for any peer
// that can still need one). A long-running cluster thus holds a bounded
// working set instead of its full history — the soak property test in
// internal/core/persist_test.go pins memory flat over hours of simulated
// churn. Cluster.Restart (simulator: bench Experiment.RestartProc) revives
// a crashed process from its store: rehydrate the checkpoint, replay the
// WAL, catch the tail through the recovery paths, and rejoin. Until it has
// caught up, the restarted process sends no heartbeat and proposes nothing,
// so the others keep suspecting it and never wait for it as a consensus
// coordinator; its first heartbeat leaves once it knows of no decision it
// lacks, or at once if the others could no longer decide without its vote
// (a group of two, or a peer it suspects has crashed).
//
// The crash-recovery guarantee matrix, pinned by the restart property tests
// in internal/core/persist_test.go and cluster_test.go:
//
//	event                    guarantee
//	crash, persist off       crash-stop (the paper's model): survivors keep
//	                         ordering while a majority remains; the crashed
//	                         process never returns
//	crash + restart          the incarnation resumes at its checkpoint and
//	                         redelivers from there: at-least-once delivery
//	                         across the crash, order unchanged (its
//	                         deduplicated sequence is a prefix-suffix match
//	                         of every correct process's order)
//	restart + new broadcast  WAL'd counters: no new message ever aliases a
//	                         pre-crash identifier, so post-restart
//	                         broadcasts deliver everywhere exactly once
//	crash + churn/partition  composes: checkpoint boundaries respect the
//	                         applied view, so pruning never outruns a
//	                         member that could still need the state
//
// The failure model is a process crash, not a power loss: the operating
// system outlives the process. persist.FileStore writes through the page
// cache without fsync, so what it wrote survives the process but not the
// host; a deployment that needs power-loss durability wraps it with an
// fsyncing store behind the same interface.
//
// Delivery to the application is at-least-once across a restart — the
// suffix above the last checkpoint is redelivered in unchanged order — so a
// consumer keeps one high-water mark per sender and skips anything at or
// below it (examples/restartable-kv shows the pattern). Figure r1
// (`abench -fig r1`) measures restart-from-checkpoint against staying down
// as a function of downtime.
//
// # Observability
//
// Options.Trace records every message's lifecycle — abroadcast, first
// payload receipt, consensus propose/decide, ordering, adelivery, plus the
// recovery events that repair a run — as typed spans stamped on each
// process's own clock (internal/trace); Cluster.WriteTrace exports them as
// byte-stable JSONL or Chrome trace_event JSON, and figure o1 decomposes
// end-to-end latency into diffusion/consensus/queue stages from the same
// events. Options.Metrics collects every layer's counters into per-process
// registries (internal/metrics; Cluster.MetricsSnapshot), and
// Options.MetricsAddr serves them with the standard pprof endpoints over
// HTTP. Both planes are built so observation cannot perturb the run:
// recording is an event-loop append with a nil-recorder fast path, and
// counters are always-on atomic cells whether or not a registry collects
// them — the pinned benchmark trajectory proves the instrumented stack
// byte-identical with both off. docs/OPERATIONS.md carries the metric
// catalog and the profiling workflow.
//
// The building blocks live under internal/: the ◇S consensus algorithms
// (Chandra–Toueg and Mostéfaoui–Raynal) and their indirect adaptations,
// reliable/uniform broadcast, heartbeat failure detection, the Algorithm 1
// engine, the recovery stack above, a deterministic discrete-event
// simulator, and the benchmark harness that regenerates every figure of the
// paper (cmd/abench). docs/ARCHITECTURE.md has the full layer map and a
// message walk-through.
//
// # Simulation-path vs wall-clock packages
//
// The internal packages split into two worlds, and the split is enforced
// statically by the abcheck analyzers (internal/analysis, cmd/abcheck).
// Simulation-path packages — sim, simnet, core, consensus, relink, rbcast,
// fd, adapt, msg, stack, bench, persist, plus the pure models netmodel and
// wire — run under the virtual clock: they may only read time through
// the runtime context (stack.Context.Now, SetTimer) and draw randomness
// from the per-process seeded source, which is what makes seeded runs
// bit-for-bit reproducible. Wall-clock packages — this root package
// (caller-side timeouts), the evloop process runtime and its two
// transports live and tcpnet, stats, and everything under cmd/ and
// examples/ — face the host clock and real sockets and are exempt.
// docs/ARCHITECTURE.md ("Determinism invariants") states the full rules
// and the //abcheck annotation grammar.
package abcast
