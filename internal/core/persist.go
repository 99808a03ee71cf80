package core

// Crash-recovery persistence and bounded memory: the engine-side half of
// internal/persist.
//
// Without persistence the engine keeps every received payload and the whole
// delivered log for the lifetime of the process — that is what lets it serve
// any fetch or snapshot request, but it also means memory grows linearly
// with history. Config.Persist bounds both at once, around one invariant:
//
//	the checkpoint boundary: a consensus instance k may be forgotten
//	(payloads dropped from the message table and the diffusion layer,
//	entries dropped from deliveredLog, decisions evicted from the relay
//	log) only once every current member's *durable* delivered frontier has
//	passed k.
//
// The pieces, all in this file:
//
//   - Checkpointing: on a timer (PersistConfig.Interval) the engine saves a
//     persist.Checkpoint — delivered frontier, the retained delivered-log
//     suffix, the delivered set in its exported form (msg.SeenSet: floors
//     plus residue), the applied view log, and the two monotone counters — then
//     truncates the WAL and broadcasts FrontierMsg announcing the durable
//     frontier.
//   - Pruning: every process tracks the durable frontiers its peers
//     announce. Once the minimum over the current members passes a
//     boundary, the delivered prefix below it is dropped: payloads leave
//     the table and the broadcast (rbcast.Broadcaster.Release), entries
//     leave deliveredLog (logBase records how many), and
//     consensus.RaiseFloor routes lagging peers to the snapshot path
//     instead of a replay naming unfetchable payloads. Snapshot transfers
//     become suffix-only: positions below logBase are never re-shipped.
//   - The WAL: the engine's own broadcast sequence number and the relink
//     stream reservation are logged write-ahead (noteSeq, onLinkReserve) —
//     restoring either stale would alias a new message or envelope to an
//     old identity. Everything else restores stale-safely: an old
//     checkpoint only lengthens the redelivered suffix.
//   - Restart: New finds the store non-empty, rehydrates (rehydrate), and
//     probes peers for the tail (restartProbes rides the existing sync
//     timer, at catchupDelay): the decide-relay replays what its log still
//     holds, and a deeper gap arrives as a snapshot. Deliveries since the
//     last checkpoint repeat — atomic broadcast across a crash is
//     at-least-once, in unchanged total order (see doc.go's guarantee
//     matrix).
//   - Rejoin: until it has caught up, a restarted incarnation with the
//     default detector sends no heartbeat and proposes nothing (rejoin), so
//     the group does not wait for it as a coordinator — unless the peers it
//     trusts could not decide without it, which ends the hold at once.
//
// Every behavior here is gated on cfg.Persist; with it nil the engine is
// byte-for-byte the pre-persistence engine (the pinned benchmark trajectory
// pins this).

import (
	"time"

	"abcast/internal/persist"
	"abcast/internal/stack"
	"abcast/internal/trace"
)

// DefaultCheckpointInterval is the default checkpoint cadence. Checkpoints
// are cheap (bookkeeping only, no payloads) and stale-safe, so the cadence
// trades restart redelivery length against store traffic, nothing else.
const DefaultCheckpointInterval = 250 * time.Millisecond

// PersistConfig enables crash-recovery persistence and bounded memory. It
// implies the recovery subsystem with snapshot transfer (the restart
// catch-up path; see Config.resolve); Config.Recover may still be set to
// tune it.
type PersistConfig struct {
	// Store is the checkpoint/WAL store: a persist.MemStore for restart
	// within the OS process (simulator, tests, bench), a persist.FileStore
	// for restart across processes. Required.
	Store persist.Store
	// Interval is the checkpoint cadence (0 = DefaultCheckpointInterval).
	Interval time.Duration
}

// FrontierMsg announces the sender's durable delivered frontier: every
// consensus instance below Frontier is fully delivered *and checkpointed*
// there. Broadcast after each checkpoint (stack.ProtoSync); the minimum over
// the current members defines the prune boundary.
type FrontierMsg struct {
	Frontier uint64
}

// WireSize implements stack.Message.
func (m FrontierMsg) WireSize() int { return 9 }

// initPersist adopts the store, rehydrates the previous incarnation's state
// from cp (the checkpoint New recovered; nil for a fresh process), and wires
// the WAL-backed relink reservation (called from New when cfg.Persist is set
// — after initMembership, whose seed view rehydrate may replace, and before
// initRecovery, which consumes the Link config).
//
//abcheck:entry constructor path; runs before the event loop starts
func (e *Engine) initPersist(cp *persist.Checkpoint) {
	pc := e.cfg.Persist
	e.pstore = pc.Store
	e.ckptEvery = pc.Interval
	if e.ckptEvery <= 0 {
		e.ckptEvery = DefaultCheckpointInterval
	}
	e.peerFrontier = make(map[stack.ProcessID]uint64)
	if cp != nil {
		e.rehydrate(cp)
	}
	// The relink layer must never reuse a stream sequence number a previous
	// incarnation assigned: start at the WAL'd reservation and log each new
	// block write-ahead. e.cfg.Recover is the engine's own copy (see New),
	// so this cannot mutate caller state.
	if e.linkReserve > 0 {
		e.cfg.Recover.Link.StartSeq = e.linkReserve
	}
	e.cfg.Recover.Link.OnReserve = e.onLinkReserve
}

// rehydrate restores the engine from a recovered checkpoint: resume
// consumption at the frontier, reload the delivered digest (suffix log,
// floors, residue), replay the view log, and restore the monotone counters.
// The restarted engine then catches the tail through the normal repair
// paths, driven by restartProbes.
func (e *Engine) rehydrate(cp *persist.Checkpoint) {
	e.seq = cp.Seq
	e.linkReserve = cp.LinkReserve
	if cp.Frontier > 0 {
		e.kNext = cp.Frontier
		e.kPropose = cp.Frontier
	}
	e.logBase = cp.LogBase
	e.deliveredLog = make([]ordRec, len(cp.Entries))
	for i, en := range cp.Entries {
		e.deliveredLog[i] = ordRec{id: en.ID, k: en.K}
	}
	e.deliveredN = int(cp.LogBase) + len(cp.Entries)
	e.deliveredC.Add(int64(e.deliveredN))
	e.msgs.delivered.Load(cp.Floors, cp.Residue)
	if len(cp.Views) > 0 && e.dynamic() {
		views := make([]viewRec, len(cp.Views))
		for i, v := range cp.Views {
			views[i] = viewRec{eff: v.Eff, members: append([]stack.ProcessID(nil), v.Members...)}
		}
		e.views = views
		e.applyGroup(views[len(views)-1].members)
	}
	e.lastCkptF = cp.Frontier
	// Ask around for the tail: enough probes that the rotation reaches a
	// live peer even under concurrent crashes, then the normal needsSync
	// conditions take over.
	e.restartProbes = 2 * e.ctx.N()
	e.record(trace.Event{Kind: trace.KindRestart, K: cp.Frontier, N: len(cp.Entries)})
}

// rejoin ends a restarted incarnation's hold — one heartbeat at once, and
// proposals again — the first time it knows of no decision it lacks (restart
// probes spent, no hole below a pending decision, snapshot target reached),
// or the first time the peers it trusts are no quorum without it. It is
// checked where those change: New, syncTick (every catchupDelay while
// held), onDecide, installSnapshot. Until then the others keep suspecting it
// from its downtime and run every round it would coordinate past it; a
// process that proposes nothing casts no vote, so the hold changes who is
// waited for, never what is decided. Nor whether: while its vote is withheld
// the others are a quorum, and once one of them crashes the detector's
// completeness ends the hold (docs/ARCHITECTURE.md, "Rejoin").
func (e *Engine) rejoin() {
	if e.held == nil || (e.needsSync() && e.quorumWithoutSelf()) {
		return
	}
	e.held.Release()
	e.held = nil
	e.maybePropose()
}

// quorumWithoutSelf reports whether the peers a held engine trusts are a
// majority of its group on their own. A lone process, or one of two, never
// is: the others cannot decide without its vote.
func (e *Engine) quorumWithoutSelf() bool {
	n, trusted := e.ctx.N(), 0
	for q := stack.ProcessID(1); int(q) <= n; q++ {
		// Outside the view counts as suspected (fd.Heartbeat.Suspects).
		if q != e.ctx.ID() && !e.held.Suspects(q) {
			trusted++
		}
	}
	if e.dynamic() {
		n = len(e.views[len(e.views)-1].members)
	}
	return trusted > n/2
}

// noteSeq write-ahead-logs the engine's own broadcast sequence number,
// called immediately after each increment and before the broadcast leaves:
// a restarted engine must never reuse a sequence number, or the new message
// would alias the old identifier and be deduplicated away (a Validity
// violation). No-op without persistence.
func (e *Engine) noteSeq() {
	if e.pstore == nil {
		return
	}
	e.logWAL(persist.WALRecord{Kind: persist.WALSeq, Value: e.seq})
}

// onLinkReserve is the relink.Config.OnReserve callback: log the new stream
// sequence reservation write-ahead before the link uses numbers from the
// block.
//
//abcheck:entry relink callback; invoked synchronously from on-loop sends
func (e *Engine) onLinkReserve(limit uint64) {
	e.linkReserve = limit
	e.logWAL(persist.WALRecord{Kind: persist.WALLinkReserve, Value: limit})
}

// logWAL appends one WAL record, surfacing (but not propagating) store
// errors: a failing store degrades restart fidelity, not live operation.
func (e *Engine) logWAL(rec persist.WALRecord) {
	if err := e.pstore.AppendWAL(rec); err != nil {
		e.persistErrs.Inc()
		e.ctx.Logf("persist: WAL append: %v", err)
	}
}

// armCkpt schedules the next checkpoint tick. Unlike the recovery timers the
// checkpoint loop never quiesces: an idle engine still re-checks, which is
// what publishes the final frontier after a burst ends.
func (e *Engine) armCkpt() {
	e.ctx.SetTimer(e.ckptEvery, e.ckptTick)
}

// ckptTick runs one checkpoint round and re-arms.
func (e *Engine) ckptTick() {
	e.checkpointNow()
	e.armCkpt()
}

// checkpointNow saves a checkpoint if the delivered frontier advanced since
// the last one, truncates the WAL it subsumes, and announces the new durable
// frontier to the group. Skipping an unmoved frontier is safe because
// checkpoints are stale-tolerant; only the WAL'd counters are freshness-
// critical, and they are appended as they change.
func (e *Engine) checkpointNow() {
	f := e.viewFrontier()
	if f <= e.lastCkptF {
		return
	}
	if err := e.pstore.SaveCheckpoint(e.buildCheckpoint(f)); err != nil {
		e.persistErrs.Inc()
		e.ctx.Logf("persist: checkpoint: %v", err)
		return
	}
	if err := e.pstore.TruncateWAL(); err != nil {
		e.persistErrs.Inc()
		e.ctx.Logf("persist: truncate WAL: %v", err)
	}
	e.lastCkptF = f
	e.ckpts.Inc()
	e.noteFrontier(e.ctx.ID(), f)
	e.sync.BroadcastOthers(0, FrontierMsg{Frontier: f})
}

// buildCheckpoint snapshots the engine's durable state with frontier f:
// everything a restarted incarnation needs to resume, and nothing it can
// re-derive or re-fetch (payloads deliberately excluded).
func (e *Engine) buildCheckpoint(f uint64) *persist.Checkpoint {
	cp := &persist.Checkpoint{
		Frontier:    f,
		Seq:         e.seq,
		LinkReserve: e.linkReserve,
		LogBase:     e.logBase,
	}
	cp.Entries = make([]persist.Entry, len(e.deliveredLog))
	for i, rec := range e.deliveredLog {
		cp.Entries[i] = persist.Entry{ID: rec.id, K: rec.k}
	}
	cp.Floors, cp.Residue = e.msgs.delivered.Export()
	if e.dynamic() {
		cp.Views = make([]persist.View, len(e.views))
		for i, v := range e.views {
			cp.Views[i] = persist.View{Eff: v.eff, Members: append([]stack.ProcessID(nil), v.members...)}
		}
	}
	return cp
}

// noteFrontier records a durable-frontier announcement (own or a peer's) and
// prunes if the group-wide minimum advanced.
func (e *Engine) noteFrontier(q stack.ProcessID, f uint64) {
	if f <= e.peerFrontier[q] {
		return
	}
	e.peerFrontier[q] = f
	e.maybePrune()
}

// pruneBoundary returns the highest instance every current member's durable
// frontier has passed (0 until every member has announced one). Keying the
// minimum on *durable* frontiers is the crash-safety of pruning: state below
// the boundary survives a restart of any member inside its own checkpoint,
// so no one will ever need it from us again.
func (e *Engine) pruneBoundary() uint64 {
	members := e.node.Group()
	if e.dynamic() {
		members = e.views[len(e.views)-1].members
	}
	b := uint64(0)
	for _, q := range members {
		f := e.peerFrontier[q]
		if f == 0 {
			return 0
		}
		if b == 0 || f < b {
			b = f
		}
	}
	return b
}

// maybePrune drops the delivered prefix below the prune boundary: payloads
// leave the message table and the diffusion layer, entries leave the
// delivered log (logBase advances by the count), and the consensus relay
// floor rises so lagging peers route to the snapshot path rather than a
// replay naming pruned payloads.
func (e *Engine) maybePrune() {
	b := e.pruneBoundary()
	if b <= e.prunedTo {
		return
	}
	e.prunedTo = b
	idx := 0
	for idx < len(e.deliveredLog) && e.deliveredLog[idx].k < b {
		e.msgs.prune(e.deliveredLog[idx].id)
		e.rb.Release(e.deliveredLog[idx].id)
		idx++
	}
	if idx == 0 {
		return
	}
	// Reallocate rather than re-slice: a re-slice would pin the pruned
	// prefix in the backing array, defeating the point.
	e.deliveredLog = append([]ordRec(nil), e.deliveredLog[idx:]...)
	e.logBase += uint64(idx)
	e.prunes.Inc()
	e.cons.RaiseFloor(b)
}

// PersistStats reports persistence counters for tests and diagnostics:
// checkpoints saved, prune rounds applied, and store errors surfaced.
func (e *Engine) PersistStats() (ckpts, prunes, errs int) {
	return int(e.ckpts.Value()), int(e.prunes.Value()), int(e.persistErrs.Value())
}

var _ stack.Message = FrontierMsg{}
