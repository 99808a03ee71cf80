// Package consensus implements ◇S failure-detector-based consensus:
//
//   - the Chandra–Toueg rotating-coordinator algorithm (CT), and
//   - the Mostéfaoui–Raynal quorum-based algorithm (MR),
//
// each in two flavours: the original algorithm on opaque values, and the
// paper's *indirect consensus* adaptation that decides on message-identifier
// sets and consults an rcv predicate before adopting an estimate
// (Algorithms 2 and 3 of the paper; Config.Indirect selects them).
//
// Indirect consensus (Section 2.3) is consensus whose proposals are pairs
// (v, rcv): v a set of message identifiers, rcv a predicate true only when
// the proposing process holds msgs(v). On top of the usual Termination,
// Uniform integrity, Uniform agreement and Uniform validity, it guarantees
//
//	No loss: if a process decides v at time t, then one correct process
//	has received msgs(v) at time t.
//
// The paper shows No loss holds iff every v-valent configuration (any
// future decision can only be v) is also v-stable (f+1 processes hold
// msgs(v)). Indirect CT keeps the original's resilience f < n/2. Indirect
// MR's drops to f < n/3: its Phase 2 quorum grows to TwoThirds(n) so that
// any two quorums of n−f processes intersect in at least n−2f ≥ f+1 of
// them (Figure 2: n=7, f=2, overlap 3). MaxFaulty states both.
//
// A Service multiplexes an unbounded sequence of independent consensus
// instances (the serial numbers k of Algorithm 1) over a single protocol id.
// State is one record per key: an instance per k, inside it one record per
// round (rounds, instance.go), and one failure-detector subscription for the
// whole service, which hands a suspicion to its live instances in
// increasing k.
package consensus

import (
	"fmt"
	"time"

	"abcast/internal/fd"
	"abcast/internal/metrics"
	"abcast/internal/stack"
)

// Value is a consensus proposal/decision. Key must be a canonical encoding:
// two Values are the same value iff their Keys are equal. It is the identity
// the history oracle (internal/check) compares when it checks that every
// process decided one value per instance.
type Value interface {
	stack.Message
	Key() string
}

// Rcv is the predicate of indirect consensus: rcv(v) is true only if the
// calling process has received msgs(v), the messages whose identifiers are
// in v. It is supplied by the atomic broadcast algorithm (Algorithm 1,
// lines 9-10).
type Rcv func(v Value) bool

// DecideFn is the decision upcall: instance k decided v. It is invoked
// exactly once per instance per process.
type DecideFn func(k uint64, v Value)

// Algo selects the consensus algorithm.
type Algo int

// Available algorithms.
const (
	CT Algo = iota + 1 // Chandra-Toueg ◇S (rotating coordinator, f < n/2)
	MR                 // Mostéfaoui-Raynal ◇S (quorum based; f < n/2, or f < n/3 when indirect)
)

// String implements fmt.Stringer.
func (a Algo) String() string {
	switch a {
	case CT:
		return "CT"
	case MR:
		return "MR"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// Majority returns ⌈(n+1)/2⌉.
func Majority(n int) int { return (n + 2) / 2 }

// TwoThirds returns ⌈(2n+1)/3⌉, the Phase 2 quorum of the indirect MR
// algorithm (Algorithm 3, line 22).
func TwoThirds(n int) int { return (2*n + 3) / 3 }

// ThirdPlus returns ⌈(n+1)/3⌉, the adoption threshold of the indirect MR
// algorithm (Algorithm 3, line 28).
func ThirdPlus(n int) int { return (n + 3) / 3 }

// MaxFaulty returns the resilience of the chosen configuration: the largest
// number of crashes under which all properties (including No loss for the
// indirect flavours) are guaranteed.
func MaxFaulty(a Algo, indirect bool, n int) int {
	if a == MR && indirect {
		return (n - 1) / 3 // f < n/3 — the paper's headline resilience loss
	}
	return (n - 1) / 2 // f < n/2
}

// Config parameterizes a consensus Service.
type Config struct {
	// Algo selects CT or MR.
	Algo Algo
	// Indirect enables the paper's indirect-consensus modifications.
	Indirect bool
	// Rcv is the received-messages predicate; required when Indirect.
	// The original algorithms ignore it — running them directly on
	// message identifiers is exactly the faulty configuration of
	// Section 2.2.
	Rcv Rcv
	// Detector is the ◇S failure detector.
	Detector fd.Detector
	// Decide is the decision upcall.
	Decide DecideFn
	// OnNeed, if set, is invoked when traffic arrives for an instance this
	// process has not proposed to (and that is neither decided nor pruned).
	// A pipelined atomic broadcast engine uses it to join instances it has
	// no identifiers of its own for; without a proposal the process would
	// never ack, echo, or coordinate, and the instance could stall. The
	// callback may synchronously call Propose for the same instance.
	OnNeed func(k uint64)
	// Relay enables the decide-relay: decisions are retained in a bounded
	// log after their instance is pruned, and a peer observed sending
	// algorithm traffic for an already-pruned instance — the signature of a
	// process that missed decisions, e.g. across a drop-mode partition — is
	// sent the decisions it is missing. Without Relay (the default), stale
	// traffic is silently dropped and a peer cut off by a black-hole
	// partition can stay behind forever once the original DecideMsgs are
	// lost. Part of the recovery subsystem (see internal/relink and
	// core.RecoverConfig).
	Relay bool
	// DecisionLogCap bounds the relay's decision log (0 = DefaultLogCap).
	// A peer behind by more than the log can no longer be caught up by the
	// relay alone; the cap is the state-transfer analogue of a Raft log
	// truncated without snapshots.
	DecisionLogCap int
	// OnDeepLag, if set, is invoked — instead of a decision replay — when a
	// peer's stale traffic or explicit SyncReqMsg reveals it behind the
	// decision log's floor: the decisions it needs first have already been
	// evicted, so no amount of relaying can catch it up. The callback is the
	// seam for snapshot state transfer (the layer above offers the peer its
	// delivered prefix plus engine state; see core's snapshot subsystem).
	// Invocations share the per-peer RelayCooldown rate limit with ordinary
	// relays. Without the callback, a deep-lagged peer gets the best-effort
	// logged tail, which cannot close its gap.
	OnDeepLag func(q stack.ProcessID, from uint64)
	// ViewAt, if set, resolves the member set of instance k — the dynamic
	// membership seam. The returned slice must be sorted, deterministic for
	// a given k across all processes (the atomic broadcast engine derives it
	// from configuration changes riding the total order itself), and stable
	// once any process may have proposed to k. Quorum thresholds, the
	// rotating coordinator, and the broadcast fan-out of instance k are all
	// computed over ViewAt(k) instead of the full group; algorithm traffic
	// from a process outside instance k's view is ignored (decisions are
	// always accepted — they are self-certifying). Nil = the node's group at
	// construction (1..N), for every k.
	ViewAt func(k uint64) []stack.ProcessID
	// Metrics, when non-nil, is the registry the service's counters
	// (consensus.*) register into. Nil leaves them standalone — the
	// OpenTraffic/RelayCount/DeepLagCount views work either way, and
	// counter updates never allocate or schedule, so enabling a registry
	// cannot perturb a simulated run.
	Metrics *metrics.Registry
}

// DefaultLogCap is the decision-log retention of a zero DecisionLogCap.
const DefaultLogCap = 4096

// Fixed protocol timing.
const (
	// openDelay bounds how long an Open announcement may wait for a ride on
	// outgoing algorithm traffic before the remaining destinations get a
	// standalone OpenMsg beacon. Announcements piggyback on every algorithm
	// message sent while pending, so under load most beacons cost no extra
	// network messages; the delay is the worst-case join latency added to an
	// otherwise idle pipelined instance — small against any consensus round
	// trip.
	openDelay = 250 * time.Microsecond
	// RelayCooldown rate-limits relays per peer: a peer's stale traffic
	// triggers at most one relay batch per cooldown, which both bounds the
	// cost of traffic that merely crossed a prune on the wire and paces
	// multi-batch catch-up.
	RelayCooldown = 50 * time.Millisecond
	// relayBatch caps decisions sent per relay, bounding the burst a healed
	// peer receives; its next stale message (or decide re-broadcast) after
	// the cooldown triggers the next batch.
	relayBatch = 64
)

// Service multiplexes consensus instances over stack.ProtoCons.
//
//abcheck:eventloop all Service state is owned by the process's event loop
type Service struct {
	proto stack.Proto
	cfg   Config
	// group is the member set of every instance when Config.ViewAt is nil:
	// the node's group at construction, 1..N.
	group       []stack.ProcessID
	insts       map[uint64]*instance
	prunedBelow uint64
	maxProposed uint64 // highest instance this process has proposed to

	// pendingOpen holds, per peer, the open announcements still waiting for
	// a ride on outgoing algorithm traffic (see Open); flushArmed guards the
	// single outstanding flush timer.
	pendingOpen map[stack.ProcessID][]uint64
	flushArmed  bool

	// Beacon traffic accounting, surfaced through OpenTraffic. The cells
	// register into Config.Metrics when one is set.
	opensAnnounced   *metrics.Counter
	opensPiggybacked *metrics.Counter
	opensStandalone  *metrics.Counter

	// Decide-relay state (Config.Relay): the bounded decision log, the
	// per-peer rate limiter, and a counter surfaced through RelayCount.
	decisions  map[uint64]Value
	decLow     uint64 // lowest retained decision (0 = log empty)
	maxDecided uint64
	lastRelay  map[stack.ProcessID]time.Time
	relaysSent *metrics.Counter
	deepLags   *metrics.Counter // deep-lag detections handed to OnDeepLag
}

// NewService wires a consensus service into the node.
//
//abcheck:entry constructor; runs before the event loop starts
func NewService(node *stack.Node, cfg Config) (*Service, error) {
	if cfg.Detector == nil {
		return nil, fmt.Errorf("consensus: nil failure detector")
	}
	if cfg.Indirect && cfg.Rcv == nil {
		return nil, fmt.Errorf("consensus: indirect %v requires an rcv predicate", cfg.Algo)
	}
	if cfg.Algo != CT && cfg.Algo != MR {
		return nil, fmt.Errorf("consensus: unknown algorithm %v", cfg.Algo)
	}
	s := &Service{
		proto:       node.Proto(stack.ProtoCons),
		cfg:         cfg,
		group:       node.Group(),
		insts:       make(map[uint64]*instance),
		pendingOpen: make(map[stack.ProcessID][]uint64),

		opensAnnounced:   cfg.Metrics.Counter("consensus.opens_announced"),
		opensPiggybacked: cfg.Metrics.Counter("consensus.opens_piggybacked"),
		opensStandalone:  cfg.Metrics.Counter("consensus.opens_standalone"),
		relaysSent:       cfg.Metrics.Counter("consensus.relays_sent"),
		deepLags:         cfg.Metrics.Counter("consensus.deep_lags"),
	}
	if cfg.Relay {
		s.decisions = make(map[uint64]Value)
		s.lastRelay = make(map[stack.ProcessID]time.Time)
	}
	node.Register(stack.ProtoCons, stack.HandlerFunc(s.receive))
	cfg.Detector.Subscribe(s.onSuspicion)
	return s, nil
}

// onSuspicion is the service's one failure-detector subscription: a new
// suspicion is handed to every instance this process has proposed to and not
// seen decided, in increasing serial number (the order in which they react
// is the order of the round messages they send). An instance PruneBelow has
// dropped is not retained, so it can no longer react.
func (s *Service) onSuspicion(q stack.ProcessID, suspected bool) {
	if !suspected {
		return
	}
	for k := s.prunedBelow; k <= s.maxProposed; k++ {
		if inst := s.insts[k]; inst != nil && inst.proposed && !inst.decided {
			inst.impl.onSuspect(q)
		}
	}
}

// Propose starts instance k with initial value v (propose(k, v, rcv) in the
// paper). Proposing twice for the same instance is a no-op.
//
//abcheck:entry cross-package API; the engine calls it from its own event-loop callbacks
func (s *Service) Propose(k uint64, v Value) {
	if k < s.prunedBelow {
		return
	}
	// A decision that arrived before this process got around to proposing
	// has already fired the upcall; nothing to do.
	if inst := s.instance(k); !inst.proposed && !inst.decided {
		s.maxProposed = max(s.maxProposed, k)
		inst.propose(v)
	}
}

// instance returns (creating if needed) the state of instance k.
func (s *Service) instance(k uint64) *instance {
	inst, ok := s.insts[k]
	if !ok {
		inst = newInstance(s, k)
		s.insts[k] = inst
	}
	return inst
}

// Open announces instance k to all other processes. Callers (the pipelined
// atomic broadcast engine) invoke it when proposing to an instance beyond
// their lowest undecided serial number, or when proposing an empty batch: in
// both cases the usual guarantee — that the proposal's identifiers diffuse
// to everyone and pull them into the instance — does not apply, so the
// beacon carries the news instead.
//
// The announcement is not broadcast immediately: it piggybacks (as a
// PiggyMsg wrapper) on whatever algorithm traffic this process sends within
// openDelay, and only the peers that saw no traffic in that window
// get a standalone OpenMsg — one beacon covering every instance still
// pending for them. Under pipelined load this turns the former n-1 beacon
// messages per pipelined propose into (usually) zero extra messages.
//
//abcheck:entry cross-package API; the engine calls it from its own event-loop callbacks
func (s *Service) Open(k uint64) {
	if k < s.prunedBelow {
		return
	}
	self := s.proto.Ctx().ID()
	for _, q := range s.membersOf(k) {
		if q == self {
			continue
		}
		if !containsU64(s.pendingOpen[q], k) {
			s.pendingOpen[q] = append(s.pendingOpen[q], k)
			s.opensAnnounced.Inc()
		}
	}
	s.armOpenFlush()
}

// membersOf resolves instance k's member set: sorted, never nil.
func (s *Service) membersOf(k uint64) []stack.ProcessID {
	if s.cfg.ViewAt == nil {
		return s.group
	}
	return s.cfg.ViewAt(k)
}

// armOpenFlush schedules the standalone-beacon fallback for pending open
// announcements, if not already scheduled.
func (s *Service) armOpenFlush() {
	if s.flushArmed || len(s.pendingOpen) == 0 {
		return
	}
	s.flushArmed = true
	s.proto.Ctx().SetTimer(openDelay, s.flushOpens)
}

// flushOpens sends one standalone OpenMsg to every peer whose announcements
// found no ride within the piggyback window.
func (s *Service) flushOpens() {
	s.flushArmed = false
	ctx := s.proto.Ctx()
	self := ctx.ID()
	for q := stack.ProcessID(1); q <= stack.ProcessID(ctx.N()); q++ {
		if q == self {
			continue
		}
		opens := s.takeOpens(q)
		if len(opens) == 0 {
			continue
		}
		s.opensStandalone.Add(int64(len(opens)))
		s.proto.Send(q, opens[0], OpenMsg{Also: opens[1:]})
	}
}

// takeOpens removes and returns the still-live open announcements pending
// for q; announcements for instances that have settled (decided or pruned)
// in the meantime are elided — those peers learn of the outcome from the
// decide relay instead.
func (s *Service) takeOpens(q stack.ProcessID) []uint64 {
	ks := s.pendingOpen[q]
	if len(ks) == 0 {
		return nil
	}
	delete(s.pendingOpen, q)
	live := ks[:0]
	for _, k := range ks {
		if k < s.prunedBelow {
			continue
		}
		if inst, ok := s.insts[k]; ok && inst.decided {
			continue
		}
		live = append(live, k)
	}
	return live
}

// send transmits an algorithm message for instance k to q, letting pending
// open announcements for q hitch a ride. All algorithm traffic (ct, mr,
// decide dissemination) flows through here.
func (s *Service) send(q stack.ProcessID, k uint64, m stack.Message) {
	if q != s.proto.Ctx().ID() {
		if opens := s.takeOpens(q); len(opens) > 0 {
			s.opensPiggybacked.Add(int64(len(opens)))
			s.proto.Send(q, k, PiggyMsg{Opens: opens, M: m})
			return
		}
	}
	s.proto.Send(q, k, m)
}

// broadcast is stack.Proto.Broadcast through the piggybacking send path
// (self-delivery last, preserving the live runtime's ordering contract).
func (s *Service) broadcast(k uint64, m stack.Message) {
	s.broadcastOthers(k, m)
	s.proto.Send(s.proto.Ctx().ID(), k, m)
}

// broadcastDecideMsg disseminates a decide to the union of instance k's
// view and the latest applied view (self-copy last when includeSelf, which
// preserves the live runtime's ordering contract). Quorum-bearing algorithm
// traffic must stay inside the instance's view, but a decision is safe to
// hand to any process — and a joiner admitted by a change whose quorum
// switch is still ahead depends on exactly these decides: instances between
// the change's delivery point and its effective serial run under old views
// that exclude the joiner, so if the group quiesces before the switch,
// decides restricted to the old view would strand it with no evidence of
// the tail to sync on.
func (s *Service) broadcastDecideMsg(k uint64, m stack.Message, includeSelf bool) {
	self := s.proto.Ctx().ID()
	targets := s.membersOf(k)
	if latest := s.membersOf(^uint64(0)); !sameView(targets, latest) {
		targets = unionViews(targets, latest)
	}
	for _, q := range targets {
		if q != self {
			s.send(q, k, m)
		}
	}
	if includeSelf {
		s.proto.Send(self, k, m)
	}
}

// sameView reports whether a and b are the same view slice — the common
// case (always, for a static group; between membership changes otherwise),
// which lets decide dissemination skip building the union.
func sameView(a, b []stack.ProcessID) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// unionViews merges two sorted member sets into one sorted set.
func unionViews(a, b []stack.ProcessID) []stack.ProcessID {
	out := make([]stack.ProcessID, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case a[0] > b[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// broadcastOthers is stack.Proto.BroadcastOthers through the piggybacking
// send path, restricted to instance k's view.
func (s *Service) broadcastOthers(k uint64, m stack.Message) {
	self := s.proto.Ctx().ID()
	for _, q := range s.membersOf(k) {
		if q != self {
			s.send(q, k, m)
		}
	}
}

// OpenTraffic reports beacon accounting: announced is the number of
// per-peer announcement obligations Open created, piggybacked how many rode
// on algorithm traffic for free, standalone how many needed an OpenMsg of
// their own. announced - piggybacked - standalone is the number elided
// because the instance settled before any send. Tests use it to pin the
// message-count reduction over the naive scheme (which always paid
// standalone == announced).
func (s *Service) OpenTraffic() (announced, piggybacked, standalone int) {
	return int(s.opensAnnounced.Value()), int(s.opensPiggybacked.Value()), int(s.opensStandalone.Value())
}

// containsU64 reports whether xs contains k (the pending lists are a few
// entries long at most).
func containsU64(xs []uint64, k uint64) bool {
	for _, x := range xs {
		if x == k {
			return true
		}
	}
	return false
}

// PruneBelow releases all state of instances with serial number < k and
// ignores their future traffic. Callers (the atomic broadcast engine) prune
// only instances they have locally decided and consumed: by then this
// process's decide relay has already been sent, so discarding the state
// cannot strand a correct peer.
//
//abcheck:entry cross-package API; the engine calls it from its own event-loop callbacks
func (s *Service) PruneBelow(k uint64) {
	if k <= s.prunedBelow {
		return
	}
	for i := range s.insts {
		if i < k {
			delete(s.insts, i)
		}
	}
	s.prunedBelow = k
}

// ForgetDecided drops the settled instance records with serial number ≥
// from, so that a re-received (relayed) DecideMsg recreates the instance and
// fires the Decide upcall again. It exists for transient-fault recovery: an
// engine whose volatile decision bookkeeping was corrupted re-learns the
// lost decisions through the decide-relay, but a settled instance record
// would silently swallow the re-delivery (onDecide deduplicates). Undecided
// instances are untouched — they will still decide and fire on their own.
//
//abcheck:entry cross-package API; the engine calls it from its own event-loop callbacks
func (s *Service) ForgetDecided(from uint64) {
	for k, inst := range s.insts {
		if k >= from && inst.decided {
			delete(s.insts, k)
		}
	}
}

// InstanceCount reports the number of retained instances (for tests and
// monitoring).
func (s *Service) InstanceCount() int { return len(s.insts) }

// Undecided reports the number of retained instances this process has
// proposed to whose decision has not arrived yet — the consensus-level
// congestion signal of the adaptive control plane (core.Engine.Observe):
// a count persistently at the pipeline width while the backlog grows means
// the instances themselves, not the supply of proposals, are the
// bottleneck. It is also the window-retarget boundary: a width change never
// touches these instances (they drain at their own pace and release their
// claimed identifiers only when consumed), it only changes how many new
// ones may start.
func (s *Service) Undecided() int {
	n := 0
	for _, inst := range s.insts {
		if inst.proposed && !inst.decided {
			n++
		}
	}
	return n
}

// receive routes an incoming consensus message to its instance.
func (s *Service) receive(from stack.ProcessID, k uint64, m stack.Message) {
	if pm, ok := m.(PiggyMsg); ok {
		// Piggybacked open announcements are independent of the carried
		// message's instance: process them before the prune check on k.
		for _, ko := range pm.Opens {
			s.noteOpen(ko)
		}
		m = pm.M
	}
	if om, ok := m.(OpenMsg); ok {
		// Beacons carry no algorithm state: just surface the instances to
		// the layer above if this process has not joined them yet. Each
		// announced instance is judged on its own (noteOpen checks the
		// prune watermark per instance), so a batched beacon whose envelope
		// instance is already pruned here still delivers its live Also
		// entries.
		s.noteOpen(k)
		for _, ko := range om.Also {
			s.noteOpen(ko)
		}
		return
	}
	if sr, ok := m.(SyncReqMsg); ok {
		// An explicit relay request from a peer that knows it is behind.
		s.maybeRelay(from, sr.From)
		return
	}
	if k < s.prunedBelow {
		// Stale traffic for a settled, pruned instance. Algorithm traffic
		// (not a decision: those mean the sender already knows the outcome)
		// marks the sender as behind — relay what it missed, if enabled.
		if _, isDecide := m.(DecideMsg); !isDecide {
			s.maybeRelay(from, k)
		}
		return
	}
	inst := s.instance(k)
	// Decisions short-circuit everything, including the pre-propose
	// buffer: a process can decide without having proposed.
	if d, ok := m.(DecideMsg); ok {
		inst.onDecide(m, d.Est)
		return
	}
	if inst.decided {
		return // stale traffic for a settled instance
	}
	if !inst.proposed {
		// Buffer until this process proposes; asynchronous channels make
		// this indistinguishable from delayed delivery. The buffered
		// message doubles as a participation signal: OnNeed may propose
		// synchronously, in which case propose() replays the buffer.
		inst.buffer = append(inst.buffer, bufferedMsg{from: from, m: m})
		if s.cfg.OnNeed != nil {
			s.cfg.OnNeed(k)
		}
		return
	}
	inst.dispatch(from, m)
}

// noteOpen surfaces an open announcement (beacon or piggybacked) for
// instance k to the layer above, unless this process has already joined or
// settled the instance.
func (s *Service) noteOpen(k uint64) {
	if k < s.prunedBelow {
		return
	}
	if inst, exists := s.insts[k]; exists && (inst.proposed || inst.decided) {
		return
	}
	if s.cfg.OnNeed != nil {
		s.cfg.OnNeed(k)
	}
}

// logDecision retains a decided value for the decide-relay (no-op unless
// Config.Relay). The log is bounded: beyond DecisionLogCap the lowest serial
// numbers are evicted, and peers behind the floor can no longer be caught up
// by the relay alone.
func (s *Service) logDecision(k uint64, v Value) {
	if s.decisions == nil {
		return
	}
	if _, dup := s.decisions[k]; dup {
		return
	}
	s.decisions[k] = v
	if k > s.maxDecided {
		s.maxDecided = k
	}
	if s.decLow == 0 || k < s.decLow {
		s.decLow = k
	}
	limit := s.cfg.DecisionLogCap
	if limit <= 0 {
		limit = DefaultLogCap
	}
	for len(s.decisions) > limit {
		// Evict the lowest retained serial number. Decisions arrive nearly
		// in order, so decLow is almost always the victim directly; the
		// scan below only runs when pipelining decided out of order.
		if _, ok := s.decisions[s.decLow]; !ok {
			low := uint64(0)
			for j := range s.decisions {
				if low == 0 || j < low {
					low = j
				}
			}
			s.decLow = low
		}
		delete(s.decisions, s.decLow)
		s.decLow++
	}
}

// maybeRelay answers stale algorithm traffic from a peer that is behind:
// re-send it the logged decisions from its apparent position onward, rate
// limited per peer. The relayed DecideMsgs flow through the normal decide
// path on the receiver (settle instance, fire the upcall), so the engine
// above consumes them exactly like first-hand decisions.
//
// A peer whose apparent position lies below the log's floor is *deeply*
// lagged: the decisions it needs first are evicted, and relaying the logged
// tail would only park them in the peer's pending set forever. When
// Config.OnDeepLag is set, such a peer is handed to it (snapshot state
// transfer) instead of being relayed to.
func (s *Service) maybeRelay(q stack.ProcessID, k uint64) {
	if len(s.decisions) == 0 {
		// Relay disabled, or nothing logged yet.
		return
	}
	now := s.proto.Ctx().Now()
	if last, ok := s.lastRelay[q]; ok && now.Sub(last) < RelayCooldown {
		return
	}
	s.lastRelay[q] = now
	if k < s.decLow && s.cfg.OnDeepLag != nil {
		s.deepLags.Inc()
		s.cfg.OnDeepLag(q, k)
		return
	}
	start := k
	if start < s.decLow {
		start = s.decLow // best effort: older decisions are evicted
	}
	sent := 0
	last := uint64(0)
	for j := start; j <= s.maxDecided && sent < relayBatch; j++ {
		if v, ok := s.decisions[j]; ok {
			s.send(q, j, DecideMsg{Est: v})
			sent++
			last = j
		}
	}
	if s.cfg.ViewAt != nil && sent == relayBatch && last < s.maxDecided {
		// Dynamic membership: a truncated replay also pins the horizon by
		// sending the newest decision. The peer parks it in its pending set,
		// which keeps its sync loop pulling batch after batch until it
		// actually reaches maxDecided — without this, a joiner catching up
		// from a quiescent group consumes one batch, finds its pending set
		// empty, and stops asking. (Static relays are unchanged: there the
		// peer's own stale instances keep re-triggering relay.)
		if v, ok := s.decisions[s.maxDecided]; ok {
			s.send(q, s.maxDecided, DecideMsg{Est: v})
			sent++
		}
	}
	s.relaysSent.Add(int64(sent))
}

// Introduce hands a freshly joined process the decision history: a direct
// relay from the log's origin, which replays decisions to a shallow joiner
// and routes one behind the decision-log floor to Config.OnDeepLag (the
// snapshot path). The dynamic-membership engine calls it from every member
// applying a join, so the joiner bootstraps even if the group never orders
// another message; the per-peer cooldown keeps the n-fold call cheap.
//
//abcheck:entry cross-package API; the engine calls it from its own event-loop callbacks
func (s *Service) Introduce(q stack.ProcessID) {
	s.maybeRelay(q, 1)
}

// RelayCount reports how many decisions the decide-relay has re-sent (for
// tests and diagnostics).
func (s *Service) RelayCount() int { return int(s.relaysSent.Value()) }

// DeepLagCount reports how many deep-lag detections were handed to
// Config.OnDeepLag (for tests and diagnostics).
func (s *Service) DeepLagCount() int { return int(s.deepLags.Value()) }

// LogFloor returns the lowest serial number still retained by the
// decide-relay's decision log (0 = log empty). A peer whose next-expected
// serial is below the floor cannot be caught up by the relay alone.
func (s *Service) LogFloor() uint64 { return s.decLow }

// RaiseFloor evicts every logged decision with serial number < k and raises
// the relay floor to at least k. The engine calls it when the delivered
// prefix below k is pruned from memory (bounded-memory checkpointing): a
// decision replay below the prune boundary would name payloads no process
// retains, so lagging peers are instead routed through Config.OnDeepLag to
// the snapshot path, which starts from the peer's own delivered position.
//
//abcheck:entry cross-package API; the engine calls it from its own event-loop callbacks
func (s *Service) RaiseFloor(k uint64) {
	if s.decisions == nil || k <= s.decLow {
		return
	}
	for j := range s.decisions {
		if j < k {
			delete(s.decisions, j)
		}
	}
	s.decLow = k
}

// RequestSync asks q to relay the decisions of instances ≥ from that it
// still has logged. Used by the engine above when it detects a hole in its
// decision sequence that no implicit path is filling (see SyncReqMsg).
//
//abcheck:entry cross-package API; the engine calls it from its own event-loop callbacks
func (s *Service) RequestSync(q stack.ProcessID, from uint64) {
	s.proto.Send(q, from, SyncReqMsg{From: from})
}

// bufferedMsg is a message queued before the local propose.
type bufferedMsg struct {
	from stack.ProcessID
	m    stack.Message
}
