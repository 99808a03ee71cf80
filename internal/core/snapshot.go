package core

// Snapshot state transfer: deep catch-up beyond the decide-relay's horizon.
//
// The recovery subsystem of recovery.go repairs bounded loss: relink replays
// envelopes its buffers still hold, and the consensus decide-relay replays
// decisions its bounded log still retains. A peer behind by more than
// DecisionLogCap consensus instances falls off that horizon — the decisions
// it needs first are evicted everywhere, relaying the logged tail only parks
// it in the peer's pending set, and a minority process cannot decide the gap
// instances itself (no quorum will join instances the rest of the system has
// pruned). Without more machinery, such a peer is behind for good.
//
// This file is the Raft-snapshot analogue that closes the gap: instead of
// replaying every decision, a current process ships the lagging peer its
// *delivered prefix* (the decided identifier sequence with payloads, which
// by uniform total order is identical at every correct process) plus the
// engine state needed to resume — the next-expected serial and the decided
// ids still awaiting payloads. The flow, all over stack.ProtoSnapshot:
//
//	lagging peer                         current peer
//	  │  stale traffic / SyncReqMsg  ───▶  consensus.Config.OnDeepLag fires
//	  │                                    (requested serial < log floor)
//	  │  ◀────────────  SnapOfferMsg{boundary, entries}
//	  │  SnapAcceptMsg{delivered} ───▶     (how much prefix I already have)
//	  │  ◀────────────  SnapChunkMsg × n   (bounded chunks, one round
//	  │                                     truncated at snapshotMax entries,
//	  │                                     always on an instance boundary)
//	  ▼  install: atomically advance kNext past the snapshot boundary,
//	     reconcile in-flight proposals / pending decisions / unordered ids,
//	     deliver the prefix, then let relay + fetch finish the tail.
//
// The offer/accept round trip exists because the producer does not know how
// much prefix the peer already delivered; the accept names the position to
// stream from, so a snapshot never re-ships what the peer holds. Transfers
// are bounded twice over: each chunk carries at most snapshotChunk entries,
// and each round at most snapshotMax — a deeper gap is closed over several
// rounds (More flag), each re-requested by the installer, so neither side
// ever buffers an unbounded transfer. Lost offers, accepts, or chunks are
// all survivable: the installer keeps the engine's sync-request timer armed
// until it has reached every serial an offer promised (Engine.snapTarget),
// and each re-request eventually produces a fresh offer.
//
// Installation is atomic with respect to the protocol: it runs inside one
// event-loop callback, so no consensus or broadcast event can observe a
// half-advanced engine. Total order is preserved by construction — the
// installed prefix is the decided sequence itself, and the engine's own
// delivered sequence is a prefix of it (uniform total order), so appending
// the remainder cannot reorder anything.

import (
	"maps"
	"time"

	"abcast/internal/consensus"
	"abcast/internal/msg"
	"abcast/internal/stack"
	"abcast/internal/trace"
)

// Snapshot transfer bounds (Config.snapshotChunk / Config.snapshotMax).
const (
	// snapshotChunk caps entries per SnapChunkMsg; the transfer is split into
	// ceil(n/chunk) chunks so no single envelope carries an unbounded
	// payload.
	snapshotChunk = 256
	// snapshotMax caps entries per snapshot round. A gap larger than the cap
	// is closed over several offer/accept rounds, each truncated at a
	// consensus-instance boundary, bounding producer burst and installer
	// buffering regardless of how far behind the peer is.
	snapshotMax = 2048
	// snapStallDelay is how long an accepted transfer may sit incomplete
	// before a competing offer is allowed to restart it.
	snapStallDelay = 4 * fetchDelay
)

// SnapOfferMsg tells a deeply lagged peer that the sender can snapshot it
// forward to Boundary, the sender's next-expected consensus serial. Sent
// (rate-limited by the decide-relay cooldown) instead of a decision replay
// the peer could not use.
type SnapOfferMsg struct {
	Boundary uint64
}

// WireSize implements stack.Message.
func (m SnapOfferMsg) WireSize() int { return 9 }

// SnapAcceptMsg accepts an offer: Delivered is the acceptor's delivered
// count, i.e. the position in the common decided sequence to stream from.
type SnapAcceptMsg struct {
	Delivered uint64
}

// WireSize implements stack.Message.
func (m SnapAcceptMsg) WireSize() int { return 9 }

// SnapEntry is one element of the transferred decided sequence: an
// identifier, the consensus instance that ordered it, and the payload if the
// producer holds it (Missing marks the producer's own blocked tail — the
// installer fetches those by identifier like any other ordered-but-missing
// payload).
type SnapEntry struct {
	ID      msg.ID
	K       uint64
	Missing bool
	Payload []byte
	// Cfg carries the configuration change when the entry's message was a
	// membership change: the installer replays the view log by re-delivering
	// these in order, so a joiner's quorum view converges with the group's.
	Cfg *msg.ConfigChange
}

// wireSize is the entry's wire footprint (id + serial + missing flag +
// payload + optional config change).
func (en SnapEntry) wireSize() int {
	n := msg.IDWireBytes + 9 + len(en.Payload)
	if en.Cfg != nil {
		n += 8
	}
	return n
}

// SnapChunkMsg carries one bounded slice of a snapshot transfer. All chunks
// of one transfer share (Boundary, Start, Total); Seq orders them. More
// marks a round truncated at the producer's snapshotMax — the installer
// re-requests after installing, and the next round continues from its new
// delivered count.
type SnapChunkMsg struct {
	Boundary uint64 // serial the complete set advances the installer to
	Start    uint64 // decided-sequence position of the transfer's first entry
	Seq      int    // chunk index within the transfer
	Total    int    // chunk count of the transfer
	More     bool   // truncated round: more state remains beyond Boundary
	Entries  []SnapEntry
}

// WireSize implements stack.Message.
func (m SnapChunkMsg) WireSize() int {
	size := 2 + 8 + 8 + 4 + 4 + 1
	for _, en := range m.Entries {
		size += en.wireSize()
	}
	return size
}

// SnapshotStats reports snapshot counters for tests and diagnostics: rounds
// served to lagging peers, and rounds installed locally.
func (e *Engine) SnapshotStats() (served, installed int) {
	return int(e.snapsServed.Value()), int(e.snapsDone.Value())
}

// onDeepLag is the consensus.Config.OnDeepLag callback: peer q revealed
// itself behind the decision log's floor, so no relay can catch it up —
// offer a snapshot instead. The callback shares the relay's per-peer
// cooldown, which rate-limits offers too.
func (e *Engine) onDeepLag(q stack.ProcessID, _ uint64) {
	if q == e.ctx.ID() {
		return
	}
	e.snap.Send(q, 0, SnapOfferMsg{Boundary: e.kNext})
}

// onSnapshot handles snapshot transfer traffic (stack.ProtoSnapshot).
func (e *Engine) onSnapshot(from stack.ProcessID, _ uint64, m stack.Message) {
	switch mm := m.(type) {
	case SnapOfferMsg:
		e.onSnapOffer(from, mm)
	case SnapAcceptMsg:
		e.serveSnapshot(from, mm.Delivered)
	case SnapChunkMsg:
		e.onSnapChunk(from, mm)
	}
}

// onSnapOffer accepts a snapshot offer if this engine is actually behind the
// offered boundary and no healthy transfer is already in progress. Accepting
// names the delivered count, so the producer streams only the missing
// suffix.
func (e *Engine) onSnapOffer(from stack.ProcessID, m SnapOfferMsg) {
	if m.Boundary <= e.kNext {
		return // not behind this producer (or not anymore)
	}
	if e.snapFrom != 0 && e.ctx.Now().Sub(e.snapStarted) < snapStallDelay {
		return // a transfer is in progress and not stalled; ignore competing offers
	}
	e.resetTransfer()
	e.snapFrom = from
	e.snapStarted = e.ctx.Now()
	if m.Boundary > e.snapTarget {
		// Stay in catch-up (sync requests keep firing) until kNext reaches
		// the promised serial, no matter which repair path gets it there.
		e.snapTarget = m.Boundary
	}
	e.snap.Send(from, 0, SnapAcceptMsg{Delivered: e.logBase + uint64(len(e.deliveredLog))})
	e.armSyncReq()
}

// serveSnapshot streams one bounded snapshot round to q: the decided
// sequence from position `from`, truncated at an instance boundary once
// snapshotMax entries are exceeded, split into snapshotChunk-sized chunks.
func (e *Engine) serveSnapshot(q stack.ProcessID, from uint64) {
	total := e.logBase + uint64(len(e.deliveredLog)+len(e.msgs.ordered))
	if q == e.ctx.ID() || from >= total {
		return // nothing to transfer (the peer caught up some other way)
	}
	if from < e.logBase {
		// The prefix below logBase is pruned: only a fresh joiner can be
		// this far back (every member's durable frontier passed the prune
		// boundary), and a joiner jump-starts at the base — the pruned
		// prefix is checkpointed by everyone and needed by no one.
		from = e.logBase
	}
	maxEntries := e.cfg.snapshotMax
	boundary := e.kNext
	more := false
	recs := make([]ordRec, 0, min(total-from, uint64(maxEntries)+1))
	for i := from; i < total; i++ {
		r := e.decidedAt(i)
		if len(recs) >= maxEntries && r.k != recs[len(recs)-1].k {
			// Truncate, but only at an instance boundary: the installer may
			// advance kNext only past instances whose identifiers it holds
			// in full.
			boundary = recs[len(recs)-1].k + 1
			more = true
			break
		}
		recs = append(recs, r)
	}
	entries := make([]SnapEntry, len(recs))
	for i, r := range recs {
		en := SnapEntry{ID: r.id, K: r.k}
		if app := e.msgs.payload(r.id); app != nil {
			en.Payload = app.Payload
			en.Cfg = app.Config
		} else {
			en.Missing = true // our own blocked tail; the installer fetches it
		}
		entries[i] = en
	}
	chunk := e.cfg.snapshotChunk
	totalChunks := (len(entries) + chunk - 1) / chunk
	for i := 0; i < totalChunks; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if hi > len(entries) {
			hi = len(entries)
		}
		e.snap.Send(q, 0, SnapChunkMsg{
			Boundary: boundary,
			Start:    from,
			Seq:      i,
			Total:    totalChunks,
			More:     more,
			Entries:  entries[lo:hi],
		})
	}
	e.snapsServed.Inc()
}

// decidedAt returns the element at absolute position i of this engine's
// decided sequence: the retained delivered log (which starts at position
// logBase; callers never index below it) followed by the
// ordered-but-undelivered tail.
func (e *Engine) decidedAt(i uint64) ordRec {
	i -= e.logBase
	if i < uint64(len(e.deliveredLog)) {
		return e.deliveredLog[i]
	}
	return e.msgs.ordered[i-uint64(len(e.deliveredLog))]
}

// onSnapChunk collects transfer chunks and installs once the set is
// complete. The first chunk fixes the transfer header; chunks of a
// superseded transfer (different header) are dropped.
func (e *Engine) onSnapChunk(from stack.ProcessID, m SnapChunkMsg) {
	if from != e.snapFrom {
		return // not the producer we accepted from
	}
	if m.Boundary <= e.kNext {
		e.resetTransfer() // we advanced past this transfer in the meantime
		return
	}
	if e.snapChunks == nil {
		if m.Start > e.logBase+uint64(len(e.deliveredLog)) && len(e.deliveredLog) > 0 {
			// Gap before the transfer start; wait for a fresh offer. An
			// engine with no retained log may accept a start beyond its
			// count — the joiner jump of installSnapshot (a member's count
			// is always ≥ every producer's logBase, so for members the gap
			// check is exactly the pre-persistence one).
			return
		}
		e.snapBoundary, e.snapStart, e.snapTotal, e.snapMore = m.Boundary, m.Start, m.Total, m.More
		e.snapChunks = make(map[int][]SnapEntry, m.Total)
	} else if m.Boundary != e.snapBoundary || m.Start != e.snapStart || m.Total != e.snapTotal {
		return // chunk of a superseded transfer
	}
	if m.Seq < 0 || m.Seq >= e.snapTotal {
		return
	}
	if _, dup := e.snapChunks[m.Seq]; dup {
		return
	}
	e.snapChunks[m.Seq] = m.Entries
	if len(e.snapChunks) < e.snapTotal {
		return
	}
	entries := make([]SnapEntry, 0, e.snapTotal*len(m.Entries))
	for i := 0; i < e.snapTotal; i++ {
		entries = append(entries, e.snapChunks[i]...)
	}
	producer, boundary, start, more := e.snapFrom, e.snapBoundary, e.snapStart, e.snapMore
	e.resetTransfer()
	e.installSnapshot(producer, boundary, start, entries, more)
}

// resetTransfer discards the in-progress transfer state (not the catch-up
// target: needsSync keeps the engine asking until kNext reaches it).
func (e *Engine) resetTransfer() {
	e.snapFrom = 0
	e.snapStarted = time.Time{}
	e.snapBoundary, e.snapStart, e.snapTotal, e.snapMore = 0, 0, 0, false
	e.snapChunks = nil
}

// installSnapshot atomically advances the engine past the snapshot boundary:
// the transferred decided suffix replaces the local ordered queue (by
// uniform total order they agree on the overlap, and the snapshot also
// covers the gap), stale proposals and pending decisions below the boundary
// are reconciled, the prefix is delivered, and the normal relay/fetch
// machinery is left to finish the tail.
func (e *Engine) installSnapshot(producer stack.ProcessID, boundary, start uint64, entries []SnapEntry, more bool) {
	delivered := e.logBase + uint64(len(e.deliveredLog))
	if boundary <= e.kNext {
		return
	}
	if start > delivered {
		if len(e.deliveredLog) > 0 {
			return
		}
		// Fresh joiner behind the group's prune boundary: the prefix below
		// start is checkpointed by every member and pruned group-wide, so
		// the transfer legitimately begins at the producer's log base.
		// Adopt it — the joiner's application then observes the suffix
		// only, like any replica bootstrapped from a snapshot.
		e.logBase = start
		delivered = start
	}
	// Skip what this engine delivered since the accept (defensive: during a
	// deep lag the prefix cannot normally grow mid-transfer).
	skip := delivered - start
	if skip > uint64(len(entries)) {
		skip = uint64(len(entries))
	}
	entries = entries[skip:]

	// Rebuild the ordered queue from the snapshot's decided suffix.
	e.msgs.unqueue()
	for _, en := range entries {
		if !en.Missing && e.msgs.payload(en.ID) == nil &&
			e.msgs.receive(&msg.App{ID: en.ID, Payload: en.Payload, Config: en.Cfg}, time.Time{}, false) {
			e.record(trace.Event{Kind: trace.KindReceive, ID: en.ID})
		}
		if e.msgs.order(en.ID, en.K) {
			e.record(trace.Event{Kind: trace.KindOrdered, ID: en.ID, K: en.K})
		}
	}

	// Advance past the boundary. Instances below it are settled by the
	// snapshot: our outstanding proposals to them are moot (their unordered
	// identifiers, unclaimed again, will be re-proposed to live instances),
	// and pending decisions below it are subsumed.
	e.kNext = boundary
	for k, p := range e.inFlight {
		if k < boundary {
			delete(e.inFlight, k)
			e.msgs.release(p.ids.RawIDs())
		}
	}
	maps.DeleteFunc(e.pending, func(k uint64, _ consensus.Value) bool { return k < boundary })
	maps.DeleteFunc(e.needed, func(k uint64, _ bool) bool { return k < boundary })
	if e.kPropose < e.kNext {
		e.kPropose = e.kNext
	}
	e.snapsDone.Inc()
	e.record(trace.Event{Kind: trace.KindSnapInstall, K: boundary, Peer: producer, N: len(entries)})

	// Decisions already held at/after the boundary are now contiguous with
	// it; consume them, release the settled consensus state, and deliver
	// everything whose payload came with the transfer.
	e.consumePending()
	e.cons.PruneBelow(e.kNext)
	e.tryDeliver()
	if more {
		// The round was truncated at the producer's cap: accept the next
		// one directly. Going back through SyncReq → OnDeepLag would both
		// wait out the sync timer and risk the producer's relay cooldown
		// swallowing the re-request; a fresh accept streams immediately,
		// and the sync timer remains the backstop if it is lost.
		e.snap.Send(producer, 0, SnapAcceptMsg{Delivered: e.logBase + uint64(len(e.deliveredLog))})
	}
	e.armFetch()
	e.armSyncReq()
	e.rejoin()
	e.maybePropose()
}

var (
	_ stack.Message = SnapOfferMsg{}
	_ stack.Message = SnapAcceptMsg{}
	_ stack.Message = SnapChunkMsg{}
)
