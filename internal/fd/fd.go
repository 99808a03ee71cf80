// Package fd provides failure detectors of class ◇S (eventually strong).
//
// The consensus algorithms of the paper are built on an unreliable failure
// detector D_p queried as "c_p ∈ D_p". Two implementations are provided:
//
//   - Heartbeat: the usual heartbeat/adaptive-timeout detector. It satisfies
//     strong completeness (a crashed process is eventually suspected by
//     every correct process) and, in runs where message delays stabilize,
//     eventual weak accuracy — which is the ◇S behaviour the algorithms
//     need for termination.
//   - Scripted: a detector whose suspicions are driven explicitly by tests,
//     used to build the adversarial schedules of Sections 2.2 and 3.3.
//
// A detector is shared by the layers of one stack, each subscribing once, at
// construction; notification is in subscription order and costs no
// allocation.
//
// A Heartbeat may start held (NewHeldHeartbeat): it monitors its peers as
// usual but sends no heartbeat until Release, so the others keep suspecting
// it. The atomic broadcast engine holds the detector of a restarted
// incarnation until it has caught up — or until the peers it trusts could no
// longer decide without it — which keeps it from being waited for as a
// coordinator while it can contribute nothing (see internal/core).
package fd

import (
	"slices"
	"time"

	"abcast/internal/metrics"
	"abcast/internal/stack"
)

// Detector is the query interface used by consensus ("c ∈ D_p") plus a
// subscription mechanism so that event-driven protocols learn about
// suspicion changes without polling.
type Detector interface {
	// Suspects reports whether q is currently suspected.
	Suspects(q stack.ProcessID) bool
	// Subscribe registers fn to be called, for the detector's lifetime,
	// whenever the suspicion status of any process changes. Subscribers are
	// the layers of one stack (the lazy broadcast, then the consensus
	// service — which fans out to its instances itself), wired once at
	// construction.
	Subscribe(fn func(q stack.ProcessID, suspected bool))
}

// subscriptions is shared by the detector implementations: the subscribers
// in the order they registered, which is the order they are notified in —
// the order in which layers react to a suspicion decides the order of the
// messages they send, so it must not depend on a map.
type subscriptions []func(stack.ProcessID, bool)

func (s subscriptions) notify(q stack.ProcessID, suspected bool) {
	for _, fn := range s {
		fn(q, suspected)
	}
}

// HeartbeatMsg is the periodic liveness message.
type HeartbeatMsg struct{}

// WireSize implements stack.Message.
func (HeartbeatMsg) WireSize() int { return 4 }

// Config parameterizes the heartbeat detector.
type Config struct {
	// Interval between heartbeats.
	Interval time.Duration
	// InitialTimeout before first suspecting a silent process.
	InitialTimeout time.Duration
	// TimeoutIncrement is added to a process's timeout whenever it is
	// suspected wrongly (a heartbeat arrives while suspected). This is
	// the standard adaptation that yields eventual accuracy.
	TimeoutIncrement time.Duration
	// MaxTimeout caps adaptation.
	MaxTimeout time.Duration
	// Metrics, when non-nil, is the registry the detector's counters (fd.*)
	// register into; nil leaves them standalone. Counter updates never
	// allocate or schedule, so enabling a registry cannot perturb a run.
	Metrics *metrics.Registry
}

// DefaultConfig returns heartbeat parameters suitable for the simulated
// LAN: suspicions within ~100ms of a crash, negligible background load.
func DefaultConfig() Config {
	return Config{
		Interval:         25 * time.Millisecond,
		InitialTimeout:   120 * time.Millisecond,
		TimeoutIncrement: 60 * time.Millisecond,
		MaxTimeout:       2 * time.Second,
	}
}

// Heartbeat is a push-style heartbeat failure detector.
type Heartbeat struct {
	proto stack.Proto
	cfg   Config

	// peers has one record per monitored process, in increasing id; a
	// process is monitored iff it has one. Initially that is everyone but
	// self, SetMembers retargets it. Any other process counts as permanently
	// suspected (a retired member must never block a quorum wait).
	peers    []*peer
	subs     subscriptions
	stopped  bool
	cancelHB func() // the armed heartbeat timer; nil until the first tick (held)

	// Counter cells, registered under fd.* when Config.Metrics is set.
	heartbeats   *metrics.Counter
	suspicions   *metrics.Counter
	unsuspicions *metrics.Counter
}

// peer is the detector's state for one monitored process.
type peer struct {
	id        stack.ProcessID
	suspected bool
	timeout   time.Duration // current, adapted on every wrong suspicion
	cancel    func()        // the armed suspicion timer
}

// MemberAware is implemented by detectors that can retarget their monitored
// peer set when the group membership changes (see Heartbeat.SetMembers). The
// dynamic-membership engine feeds delivered configuration changes to any
// detector implementing it.
type MemberAware interface {
	SetMembers(members []stack.ProcessID)
}

var _ Detector = (*Heartbeat)(nil)

// NewHeartbeat wires a heartbeat detector into the node under
// stack.ProtoFD and starts emitting heartbeats.
func NewHeartbeat(node *stack.Node, cfg Config) *Heartbeat {
	h := NewHeldHeartbeat(node, cfg)
	h.tick()
	return h
}

// NewHeldHeartbeat is NewHeartbeat for a detector that starts held: it
// monitors its peers — suspecting the silent, trusting them again on their
// heartbeats — but sends no heartbeat, not even the one NewHeartbeat sends at
// construction, until Release.
func NewHeldHeartbeat(node *stack.Node, cfg Config) *Heartbeat {
	h := &Heartbeat{
		proto: node.Proto(stack.ProtoFD),
		cfg:   cfg,

		heartbeats:   cfg.Metrics.Counter("fd.heartbeats_sent"),
		suspicions:   cfg.Metrics.Counter("fd.suspicions"),
		unsuspicions: cfg.Metrics.Counter("fd.unsuspicions"),
	}
	node.Register(stack.ProtoFD, stack.HandlerFunc(h.receive))
	ctx := h.proto.Ctx()
	for q := stack.ProcessID(1); q <= stack.ProcessID(ctx.N()); q++ {
		if q != ctx.ID() {
			h.monitor(q)
		}
	}
	return h
}

// Release ends the hold of a detector made by NewHeldHeartbeat: one heartbeat
// leaves at once, then they follow at the normal cadence. It is a no-op on a
// detector that is not held, stopped or crashed.
func (h *Heartbeat) Release() {
	if h.cancelHB == nil {
		h.tick()
	}
}

// monitor starts monitoring q, trusted with a fresh InitialTimeout.
func (h *Heartbeat) monitor(q stack.ProcessID) {
	p := &peer{id: q, timeout: h.cfg.InitialTimeout}
	i := slices.IndexFunc(h.peers, func(o *peer) bool { return o.id > q })
	if i < 0 {
		i = len(h.peers)
	}
	h.peers = slices.Insert(h.peers, i, p) // kept in increasing id
	h.armTimeout(p)
}

// peer returns q's record, nil if q is not monitored.
func (h *Heartbeat) peer(q stack.ProcessID) *peer {
	for _, p := range h.peers {
		if p.id == q {
			return p
		}
	}
	return nil
}

// Stop halts heartbeat emission and all timeout timers.
func (h *Heartbeat) Stop() {
	h.stopped = true
	if h.cancelHB != nil {
		h.cancelHB()
	}
	for _, p := range h.peers {
		p.cancel()
	}
}

// SetMembers retargets the monitored peer set to the given view (the
// dynamic-membership engine calls it at each delivered configuration
// change). A removed peer's timer is cancelled and the peer is marked
// suspected immediately — it has retired and must never again block a quorum
// or coordinator wait, so instances still draining under an old view rotate
// past it at once. A newly added peer starts trusted with a fresh
// InitialTimeout.
//
//abcheck:entry cross-package API; the engine calls it from its own event-loop callbacks
func (h *Heartbeat) SetMembers(members []stack.ProcessID) {
	// Drop retired peers one at a time, in process order: subscribers see
	// each suspicion with the peers after it still monitored.
	for i := 0; i < len(h.peers); {
		p := h.peers[i]
		if slices.Contains(members, p.id) {
			i++
			continue
		}
		p.cancel()
		h.peers = slices.Delete(h.peers, i, i+1)
		if !p.suspected {
			h.suspicions.Inc()
			h.subs.notify(p.id, true)
		}
	}
	// Admit new peers, in member order (the caller passes a sorted view).
	// Everyone starts out monitored, so a process being admitted was dropped
	// — reported suspected — before: take that back first.
	for _, q := range members {
		if h.peer(q) != nil || q == h.proto.Ctx().ID() {
			continue
		}
		h.unsuspicions.Inc()
		h.subs.notify(q, false)
		h.monitor(q)
	}
}

var _ MemberAware = (*Heartbeat)(nil)

// tick emits a heartbeat to all other processes and re-arms itself.
func (h *Heartbeat) tick() {
	if h.stopped || h.proto.Ctx().Crashed() {
		return
	}
	h.proto.BroadcastOthers(0, HeartbeatMsg{})
	h.heartbeats.Inc()
	h.cancelHB = h.proto.Ctx().SetTimer(h.cfg.Interval, h.tick)
}

// receive handles an incoming heartbeat from q.
func (h *Heartbeat) receive(q stack.ProcessID, _ uint64, m stack.Message) {
	p := h.peer(q)
	if _, ok := m.(HeartbeatMsg); !ok || h.stopped || p == nil {
		return // p == nil: a retired peer's in-flight heartbeat must not re-arm it
	}
	if p.suspected {
		// Wrong suspicion: restore trust and adapt the timeout.
		p.suspected = false
		p.timeout += h.cfg.TimeoutIncrement
		if h.cfg.MaxTimeout > 0 && p.timeout > h.cfg.MaxTimeout {
			p.timeout = h.cfg.MaxTimeout
		}
		h.unsuspicions.Inc()
		h.subs.notify(q, false)
	}
	h.armTimeout(p)
}

// armTimeout (re)starts p's suspicion timer.
func (h *Heartbeat) armTimeout(p *peer) {
	if p.cancel != nil {
		p.cancel()
	}
	p.cancel = h.proto.Ctx().SetTimer(p.timeout, func() {
		if h.stopped || p.suspected {
			return
		}
		p.suspected = true
		h.suspicions.Inc()
		h.subs.notify(p.id, true)
	})
}

// Suspects implements Detector. A non-monitored process other than self
// counts as suspected: consensus instances draining an old view that still
// names a retired member must rotate past it without waiting out a heartbeat
// timeout that will never be re-armed.
func (h *Heartbeat) Suspects(q stack.ProcessID) bool {
	if p := h.peer(q); p != nil {
		return p.suspected
	}
	return q != h.proto.Ctx().ID()
}

// Subscribe implements Detector.
func (h *Heartbeat) Subscribe(fn func(stack.ProcessID, bool)) { h.subs = append(h.subs, fn) }

// Scripted is a failure detector fully controlled by the test harness.
type Scripted struct {
	suspected map[stack.ProcessID]bool
	subs      subscriptions
}

var _ Detector = (*Scripted)(nil)

// NewScripted returns a detector that initially suspects nobody.
func NewScripted() *Scripted {
	return &Scripted{suspected: make(map[stack.ProcessID]bool)}
}

// SetSuspected changes the suspicion status of q and notifies subscribers.
func (s *Scripted) SetSuspected(q stack.ProcessID, suspected bool) {
	if s.suspected[q] == suspected {
		return
	}
	s.suspected[q] = suspected
	s.subs.notify(q, suspected)
}

// Suspects implements Detector.
func (s *Scripted) Suspects(q stack.ProcessID) bool { return s.suspected[q] }

// Subscribe implements Detector.
func (s *Scripted) Subscribe(fn func(stack.ProcessID, bool)) { s.subs = append(s.subs, fn) }
