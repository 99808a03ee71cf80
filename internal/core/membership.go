package core

// Dynamic membership: join/leave as configuration changes riding the total
// order itself.
//
// The classic trick: a membership change is just another atomically
// broadcast message (msg.App with a non-nil Config), so every process
// delivers it at the same position of the common total order — and that
// *delivery point* defines the switch. Two views change hands, on different
// schedules:
//
//   - The transport-level view (diffusion fan-out, heartbeat monitoring,
//     relink anti-entropy) switches immediately at the delivery point, via
//     stack.Node.SetGroup and fd.MemberAware.SetMembers. This is safe to do
//     eagerly because none of those layers carries quorum semantics, and it
//     is what lets a joiner start receiving payloads and heartbeats at once.
//   - The consensus-level view — quorum thresholds, coordinator rotation,
//     per-instance fan-out — switches at instance deliveryPoint+ConfigLag:
//     instances at or above that serial use the new member set, everything
//     below drains under the old one. The lag exists because of pipelining:
//     up to W instances beyond the delivery frontier may already be proposed
//     to, and their member set must not change retroactively. maybePropose
//     refuses to propose to any instance whose view could still be altered
//     by an undelivered change (k ≥ viewFrontier+ConfigLag), which makes
//     viewAt exact wherever it is consulted: any change effective at or
//     below such a k was delivered — hence applied — locally.
//
// A joiner bootstraps with no new machinery: once the join's delivery point
// passes, decide broadcasts for post-switch instances reach it (it is in
// their view), which puts decisions in its pending set while kNext is still
// 1 — the existing needsSync logic then drives RequestSync, and the peer
// answers with a decision replay (shallow lag) or a snapshot offer (behind
// the decision-log floor), exactly as for a partition-healed process. A
// leaver drains every instance below the switch under the old view, then
// retires: members mark it suspected at once (fd.SetMembers), so instances
// still draining rotate past it without waiting out timeouts, while its own
// engine keeps consuming decisions members still send it for old-view
// instances.
//
// Dynamic membership wants Config.Recover enabled: payloads diffused before
// a join (or after a leave) miss the processes the transport view did not
// yet (or no longer does) include, and the payload fetch is what repairs
// those gaps. The churn property tests and figure m1 run Recovery+Snapshot.

import (
	"fmt"
	"sort"

	"abcast/internal/adapt"
	"abcast/internal/fd"
	"abcast/internal/msg"
	"abcast/internal/stack"
	"abcast/internal/trace"
)

// ConfigLag is the number of ordering serials between a configuration
// change's delivery point and the first consensus instance that uses the new
// member set. Instances up to viewFrontier+ConfigLag-1 may be proposed to
// concurrently — their views are already locally determined — so the propose
// gate binds before the pipeline window does only if the window reaches
// ConfigLag; it comfortably exceeds the adaptive controller's cap, which the
// declaration below checks at compile time.
const ConfigLag = 32

const _ = uint(ConfigLag - adapt.MaxWindow - 1) // ConfigLag > adapt.MaxWindow

// viewRec is one entry of the view log: the member set in force for
// consensus instances k with eff ≤ k < next entry's eff.
type viewRec struct {
	eff     uint64 // first consensus instance using this view
	members []stack.ProcessID
}

// initMembership validates Config.Members and seeds the view log (called
// from New when Members is non-nil).
//
//abcheck:entry constructor path; runs before the event loop starts
func (e *Engine) initMembership() error {
	if len(e.cfg.Members) == 0 {
		return fmt.Errorf("core: empty initial member set")
	}
	members := append([]stack.ProcessID(nil), e.cfg.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	for i, q := range members {
		if q < 1 || int(q) > e.ctx.N() {
			return fmt.Errorf("core: member %d outside universe 1..%d", q, e.ctx.N())
		}
		if i > 0 && members[i-1] == q {
			return fmt.Errorf("core: duplicate member %d", q)
		}
	}
	e.views = []viewRec{{eff: 1, members: members}}
	e.applyGroup(members)
	return nil
}

// dynamic reports whether this engine runs with dynamic membership.
func (e *Engine) dynamic() bool { return len(e.views) > 0 }

// viewAt resolves the member set of consensus instance k from the applied
// view log. It is exact for every instance the propose gate admits (see the
// package comment above); for larger k it returns the latest applied view,
// which callers treat as provisional. The returned slice is shared — do not
// mutate.
func (e *Engine) viewAt(k uint64) []stack.ProcessID {
	ms := e.views[0].members
	for _, v := range e.views[1:] {
		if v.eff > k {
			break
		}
		ms = v.members
	}
	return ms
}

// viewFrontier is the lowest consensus instance whose configuration payload
// could still be undelivered locally: the instance that ordered the blocked
// head of the delivery queue, or kNext when nothing is queued. Every
// configuration change ordered below it has been delivered and applied.
func (e *Engine) viewFrontier() uint64 {
	if len(e.msgs.ordered) > 0 {
		return e.msgs.ordered[0].k
	}
	return e.kNext
}

// selfInView reports whether this process is a member of instance k's view.
func (e *Engine) selfInView(k uint64) bool {
	self := e.ctx.ID()
	for _, q := range e.viewAt(k) {
		if q == self {
			return true
		}
	}
	return false
}

// applyConfig applies a configuration change delivered at ordering serial k:
// append the new view (effective at k+ConfigLag) and retarget the transport
// immediately. A change that would empty the view is ignored — the group
// must always retain at least one member to order the next change.
func (e *Engine) applyConfig(k uint64, ch *msg.ConfigChange) {
	cur := e.views[len(e.views)-1].members
	next := make([]stack.ProcessID, 0, len(cur)+1)
	for _, q := range cur {
		if q != ch.Leave {
			next = append(next, q)
		}
	}
	if j := ch.Join; j >= 1 && int(j) <= e.ctx.N() {
		i := sort.Search(len(next), func(i int) bool { return next[i] >= j })
		if i == len(next) || next[i] != j {
			next = append(next, 0)
			copy(next[i+1:], next[i:])
			next[i] = j
		}
	}
	if len(next) == 0 {
		return
	}
	eff := k + ConfigLag
	e.views = append(e.views, viewRec{eff: eff, members: next})
	e.applyGroup(next)
	// Drive the pipeline to the switch: the new view takes effect only once
	// consumption reaches eff, so every instance below it must decide even
	// if the payload backlog runs dry first — mark them needed, and
	// maybePropose fills them (with empty batches when there is nothing to
	// order). Without this, a group that goes quiescent before eff never
	// completes the switch. Bounded by ConfigLag plus the pipeline window.
	for j := e.kPropose; j < eff; j++ {
		if _, decided := e.pending[j]; !decided {
			e.needed[j] = true
		}
	}
	// Introduce a joiner instead of waiting for it to notice post-switch
	// traffic (none may ever come if the group goes quiescent): every
	// member that applies the join relays it the decision history, which
	// either replays directly or — for a joiner behind the decision log's
	// floor — hands it to the snapshot path. Rate-limited per peer, and a
	// no-op without the recovery relay (dynamic membership wants
	// Config.Recover for exactly this reason).
	if j := ch.Join; j != 0 && j != e.ctx.ID() {
		e.cons.Introduce(j)
	}
	e.maybePropose() // the frontier moved; gated instances may now open
}

// applyGroup points the transport-level layers at the given view: the
// node's broadcast fan-out (diffusion, heartbeats, relink all follow it) and
// the failure detector's monitored set.
func (e *Engine) applyGroup(members []stack.ProcessID) {
	e.node.SetGroup(members)
	if ma, ok := e.cfg.Detector.(fd.MemberAware); ok {
		ma.SetMembers(members)
	}
}

// BroadcastConfig atomically broadcasts a membership change. It is ordered
// and delivered like any payload; the quorum switch happens at its delivery
// point plus ConfigLag, identically at every process. Any current member may
// broadcast it — including on behalf of the joining process, which cannot
// reach the group itself yet. Returns the carrying message's identifier.
//
//abcheck:entry public API; callers invoke it on the owning event loop (simnet.World.Do / live mailbox)
func (e *Engine) BroadcastConfig(ch msg.ConfigChange) msg.ID {
	e.seq++
	e.noteSeq()
	app := &msg.App{
		ID:     msg.ID{Sender: e.ctx.ID(), Seq: e.seq},
		Config: &ch,
	}
	e.broadcasts.Inc()
	e.record(trace.Event{Kind: trace.KindABroadcast, ID: app.ID})
	e.rb.Broadcast(app)
	return app.ID
}

// ViewAt returns the member set of consensus instance k (a copy), or nil
// when the engine is static. Tests use it to prove a post-switch instance
// ran under the new quorum.
func (e *Engine) ViewAt(k uint64) []stack.ProcessID {
	if !e.dynamic() {
		return nil
	}
	return append([]stack.ProcessID(nil), e.viewAt(k)...)
}

// CurrentView returns the latest applied view: the first consensus instance
// it governs and its member set (a copy; nil members when static).
func (e *Engine) CurrentView() (eff uint64, members []stack.ProcessID) {
	if !e.dynamic() {
		return 0, nil
	}
	v := e.views[len(e.views)-1]
	return v.eff, append([]stack.ProcessID(nil), v.members...)
}
