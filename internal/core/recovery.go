package core

// Recovery: the engine-level half of the drop-partition recovery subsystem.
//
// internal/relink repairs lost *envelopes* within its bounded retransmission
// window, and the consensus decide-relay replays lost *decisions*. What
// remains is the payload gap, which shows up in two directions:
//
//   - Ordered but never received: a process learns (via a relayed decision)
//     that an identifier is ordered while the diffusion broadcast that
//     carried the message was black-holed and evicted from every
//     retransmission buffer. Algorithm 1 then blocks at the head of the
//     ordered sequence. The paper's No loss property guarantees some correct
//     process still holds the message.
//   - Proposed but never diffused: a healed process proposes identifiers of
//     messages only its side of the former cut ever received. The indirect
//     algorithms correctly refuse to order them (rcv fails at the other
//     side), and the eager/lazy diffusion broadcasts relay only on first
//     receipt — so without repair the messages would stay unordered forever
//     and Validity-style full delivery would never be reached.
//
// Both directions resolve the same way: the engine notes the identifiers it
// is missing (the blocked head of the ordered queue, and every identifier a
// failed rcv check reveals), and past fetchDelay asks a peer for them by
// identifier (FetchMsg); the peer answers with the messages it holds
// (SupplyMsg). Supplied messages enter through the normal R-deliver path, so
// integrity, ordering and re-proposal are untouched.

import (
	"time"

	"abcast/internal/consensus"
	"abcast/internal/msg"
	"abcast/internal/relink"
	"abcast/internal/stack"
	"abcast/internal/trace"
)

// RecoverConfig enables and tunes the recovery subsystem. Wiring it into a
// Config turns on all three repair layers for the process:
//
//   - the relink reliable-link layer (sequencing, bounded retransmission,
//     anti-entropy) under every protocol of the stack;
//   - the consensus decide-relay (consensus.Config.Relay), so peers that
//     missed pruned decisions are caught up on demand;
//   - the engine's payload fetch, so ordered-but-never-received messages are
//     pulled from a peer that holds them.
//
// With recovery enabled, a drop-mode (black-hole) partition behaves like a
// delay-mode one at the model level: after the heal, every correct process
// reaches full delivery in total order. See docs/ARCHITECTURE.md.
type RecoverConfig struct {
	// Link tunes the reliable-link layer (zero values = relink defaults).
	Link relink.Config
	// DecisionLogCap bounds the consensus decide-relay's decision log
	// (0 = consensus.DefaultLogCap).
	DecisionLogCap int
}

// fetchDelay is how long the engine stays blocked on a missing payload
// before fetching it from a peer, and the retry cadence thereafter: far above
// any LAN/WAN diffusion latency, so it only fires on genuine loss.
const fetchDelay = 100 * time.Millisecond

// catchupDelay is the decision-sync cadence while a restarted incarnation is
// held (see rejoin): half the decide-relay's per-peer cooldown, so rotating
// over two or more peers asks no responder twice inside its cooldown, and
// answers of up to 64 decisions outpace what a loaded group decides.
const catchupDelay = consensus.RelayCooldown / 2

// rediffuseDelay is how long a received message may sit unordered before
// this process re-R-broadcasts it. The reliable broadcasts relay only on
// first receipt, so a message whose relays were black-holed and evicted is
// otherwise never offered to the other side again — and an identifier nobody
// else holds the message for is never ordered (the round-1 coordinator only
// proposes its own estimate, so Validity rides on diffusion completing).
// Ordering normally completes within a couple of consensus round trips, so
// only messages stranded by loss are re-offered.
const rediffuseDelay = 400 * time.Millisecond

// rediffuseBatch caps re-diffusions per tick, bounding the post-heal burst.
const rediffuseBatch = 64

// fetchBatch caps identifiers per FetchMsg (and so messages per SupplyMsg
// reply), bounding the burst while a long backlog is repaired; the engine
// re-fetches until unblocked.
const fetchBatch = 256

// FetchMsg asks a peer for the messages with the given identifiers
// (recovery path; stack.ProtoSync).
type FetchMsg struct {
	IDs []msg.ID
}

// WireSize implements stack.Message.
func (m FetchMsg) WireSize() int { return 2 + len(m.IDs)*msg.IDWireBytes }

// SupplyMsg answers a FetchMsg with the requested messages the sender
// holds.
type SupplyMsg struct {
	Apps []*msg.App
}

// WireSize implements stack.Message.
func (m SupplyMsg) WireSize() int {
	size := 2
	for _, a := range m.Apps {
		size += a.WireSize()
	}
	return size
}

// initRecovery wires the recovery subsystem into the engine (called from New
// when cfg.Recover is set; the consensus-relay half is configured there).
func (e *Engine) initRecovery(node *stack.Node) {
	// The link registers its counters and records retransmit spans through
	// the engine's observability config; work on a copy so the engine-owned
	// RecoverConfig stays as the caller tuned it.
	lcfg := e.cfg.Recover.Link
	lcfg.Metrics = e.cfg.Metrics
	lcfg.Trace = e.tr
	e.link = relink.New(node, lcfg)
	e.sync = node.Proto(stack.ProtoSync)
	node.Register(stack.ProtoSync, stack.HandlerFunc(e.onSync))
	if e.cfg.Snapshot {
		e.snap = node.Proto(stack.ProtoSnapshot)
		node.Register(stack.ProtoSnapshot, stack.HandlerFunc(e.onSnapshot))
	}
}

// LinkStats reports the reliable-link layer's counters (zero value when
// recovery is disabled). For tests and diagnostics.
func (e *Engine) LinkStats() relink.Stats {
	if e.link == nil {
		return relink.Stats{}
	}
	return e.link.Stats()
}

// needsFetch reports whether any payload is known missing: the ordered
// queue's head (delivery is blocked) or an identifier seen in a proposal.
func (e *Engine) needsFetch() bool {
	return e.msgs.blocked() || !e.msgs.wanted.Empty()
}

// armFetch schedules a payload fetch if one is warranted and none is
// pending. Called whenever delivery stalls (tryDeliver) or a rcv check
// fails — harmless noise in healthy runs, because the timer re-checks
// before sending and diffusion normally wins the race.
func (e *Engine) armFetch() {
	if e.cfg.Recover == nil || e.fetchArmed || e.ctx.N() < 2 || !e.needsFetch() {
		return
	}
	e.fetchArmed = true
	e.ctx.SetTimer(fetchDelay, e.fetchTick)
}

// fetchTick fires after fetchDelay of unresolved loss: request the missing
// payloads from one peer, rotating the target each attempt so a crashed or
// equally-behind peer cannot starve recovery.
func (e *Engine) fetchTick() {
	e.fetchArmed = false
	if !e.needsFetch() {
		return
	}
	missing := e.msgs.missing(fetchBatch)
	q := e.nextPeer(e.fetchAttempt)
	e.fetchAttempt++
	if q == 0 {
		e.armFetch() // sole survivor of a shrunken view: retry later
		return
	}
	e.fetches.Inc()
	e.record(trace.Event{Kind: trace.KindFetch, Peer: q, N: len(missing)})
	e.sync.Send(q, 0, FetchMsg{IDs: missing})
	e.armFetch() // stay armed until nothing is missing
}

// nextPeer returns the attempt-th repair target: the other processes in
// rotation, never self. Both repair paths (payload fetch, decision sync)
// share it so a change to target selection cannot silently diverge. Under
// dynamic membership the rotation covers the current transport view instead
// of the full universe — a retired process may be gone, and an un-joined one
// has nothing to serve; note the view need not contain self (a joiner's
// transport view is the member set it bootstraps from). Returns 0 when no
// peer is available.
func (e *Engine) nextPeer(attempt int) stack.ProcessID {
	self := e.ctx.ID()
	prefer := e.cfg.PreferPeers
	if e.dynamic() {
		peers := make([]stack.ProcessID, 0, len(e.views[len(e.views)-1].members))
		for _, q := range e.views[len(e.views)-1].members {
			if q != self {
				peers = append(peers, q)
			}
		}
		if len(peers) == 0 {
			return 0
		}
		if len(prefer) > 0 {
			peers = preferFirst(peers, prefer)
		}
		return peers[attempt%len(peers)]
	}
	n := e.ctx.N()
	if len(prefer) > 0 {
		peers := make([]stack.ProcessID, 0, n-1)
		for i := 0; i < n-1; i++ {
			peers = append(peers, stack.ProcessID((int(self)+i%(n-1))%n+1))
		}
		peers = preferFirst(peers, prefer)
		return peers[attempt%len(peers)]
	}
	return stack.ProcessID((int(self)+attempt%(n-1))%n + 1)
}

// preferFirst reorders a repair rotation so the preferred targets come
// first, preserving relative order within each half. Preferred peers not in
// the rotation (outside the view, or self) simply do not match.
func preferFirst(peers, prefer []stack.ProcessID) []stack.ProcessID {
	pref := make(map[stack.ProcessID]bool, len(prefer))
	for _, q := range prefer {
		pref[q] = true
	}
	out := make([]stack.ProcessID, 0, len(peers))
	for _, q := range peers {
		if pref[q] {
			out = append(out, q)
		}
	}
	for _, q := range peers {
		if !pref[q] {
			out = append(out, q)
		}
	}
	return out
}

// needsSync reports whether this engine knows it is behind on decisions: it
// holds decisions for later instances while earlier ones are missing
// (e.pending non-empty means kNext itself is undecided here), or a snapshot
// offer has promised a serial this engine has not reached yet (see
// snapshot.go; the condition self-clears once kNext catches up, however the
// gap ends up closed).
func (e *Engine) needsSync() bool {
	return len(e.pending) > 0 || e.kNext < e.snapTarget || e.restartProbes > 0
}

// armSyncReq schedules a decision-sync request: a hole in the decision
// sequence, after a black-holed partition, may never resolve on its own —
// the original DecideMsgs are lost and a behind process can be parked in a
// round it coordinates itself, emitting no stale traffic for the implicit
// relay to react to. The same timer keeps a deep-lagged engine asking until
// a snapshot transfer completes, which makes lost offers, accepts, and
// chunks all recoverable (each re-request eventually produces a fresh
// offer).
func (e *Engine) armSyncReq() {
	if e.cfg.Recover == nil || e.syncArmed || e.ctx.N() < 2 || !e.needsSync() {
		return
	}
	e.syncArmed = true
	delay := fetchDelay
	if e.held != nil {
		delay = catchupDelay
	}
	e.ctx.SetTimer(delay, e.syncTick)
}

// syncTick requests the missing decisions from one peer, rotating the
// target each attempt, and re-arms while the hole persists. In healthy runs
// the hole closes within a round trip and the timer finds nothing to do.
func (e *Engine) syncTick() {
	e.syncArmed = false
	if e.needsSync() {
		q := e.nextPeer(e.syncAttempt)
		e.syncAttempt++
		if q != 0 { // 0: the sole survivor of a shrunken view, nobody to ask yet
			e.syncReqs.Inc()
			e.cons.RequestSync(q, e.kNext)
			if e.restartProbes > 0 {
				// A restarted engine probes a bounded number of peers for the
				// tail it missed while down; each answer is a relay (shallow
				// gap) or a snapshot offer (behind the relay floor), and the
				// other needsSync conditions carry the catch-up from there.
				e.restartProbes--
			}
		}
	}
	e.rejoin()
	e.armSyncReq()
}

// armRediffuse schedules the next unordered-age check if one is warranted.
func (e *Engine) armRediffuse() {
	if e.cfg.Recover == nil || e.rediffArmed || e.ctx.N() < 2 || e.msgs.unordered.Empty() {
		return
	}
	e.rediffArmed = true
	e.ctx.SetTimer(rediffuseDelay, e.rediffuseTick)
}

// rediffuseTick re-R-broadcasts messages that have sat unordered for at
// least rediffuseDelay, then re-arms while unordered identifiers remain.
// Scanning in canonical identifier order keeps the simulation
// deterministic.
func (e *Engine) rediffuseTick() {
	e.rediffArmed = false
	for _, app := range e.msgs.stale(e.ctx.Now(), rediffuseDelay, rediffuseBatch) {
		e.rb.Rebroadcast(app)
		e.rediffusions.Inc()
		e.record(trace.Event{Kind: trace.KindRediffuse, ID: app.ID})
	}
	e.armRediffuse()
}

// onSync handles recovery fetch/supply traffic (stack.ProtoSync).
func (e *Engine) onSync(from stack.ProcessID, _ uint64, m stack.Message) {
	switch mm := m.(type) {
	case FetchMsg:
		apps := make([]*msg.App, 0, len(mm.IDs))
		for _, id := range mm.IDs {
			if a := e.msgs.payload(id); a != nil {
				apps = append(apps, a)
			}
		}
		if len(apps) > 0 {
			e.sync.Send(from, 0, SupplyMsg{Apps: apps})
		}
	case SupplyMsg:
		// Supplied messages enter through the normal R-deliver path:
		// deduplication, head delivery and re-proposal all behave exactly
		// as if the diffusion broadcast had finally arrived.
		for _, a := range mm.Apps {
			e.onRDeliver(a)
		}
	case FrontierMsg:
		if e.pstore != nil {
			e.noteFrontier(from, mm.Frontier)
		}
	}
}

var (
	_ stack.Message = FetchMsg{}
	_ stack.Message = SupplyMsg{}
)
