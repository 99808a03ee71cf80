package consensus

import (
	"slices"

	"abcast/internal/stack"
)

// mrInst is the round machinery of the Mostéfaoui–Raynal ◇S algorithm,
// covering both the original algorithm and the paper's indirect adaptation
// (Algorithm 3).
//
// Each round has two phases. Phase 1: the round's coordinator broadcasts
// its estimate; every other process relays either that estimate or ⊥ (if it
// suspects the coordinator — or, in the indirect flavour, if rcv fails on
// the coordinator's value, lines 16-19). Phase 2: each process collects a
// quorum of relays; a unanimous quorum decides, a mixed quorum may adopt the
// valid value.
//
// The two flavours differ in their Phase 2 quorum and adoption rule:
//
//	original: quorum ⌈(n+1)/2⌉, adopt any valid value     (f < n/2)
//	indirect: quorum ⌈(2n+1)/3⌉, adopt v only if rcv(v)
//	          or v was received ⌈(n+1)/3⌉ times           (f < n/3)
//
// The resilience loss is the paper's second contribution: with quorum
// ⌈(2n+1)/3⌉ any two quorums share n−2f ≥ f+1 processes (Figure 2), which
// guarantees that a decided value is v-stable (No loss) while still forcing
// every process that could block a decision to adopt it (Uniform
// agreement).
type mrInst struct {
	in *instance

	estimate Value
	r        int

	rounds rounds[mrRound]
}

// mrRound is what a process knows about one round of one instance.
type mrRound struct {
	echoSent  bool     // this process already relayed
	coordVal  Value    // the coordinator's value, nil until received
	echoes    []mrEcho // relays, one per sender, in arrival order (Phase 2 examines the first quorum)
	evaluated bool
}

// mrEcho is one recorded relay.
type mrEcho struct {
	from stack.ProcessID
	est  Value // nil = ⊥
}

var _ algoImpl = (*mrInst)(nil)

func (m *mrInst) n() int                      { return len(m.in.members) } // the n of the quorum thresholds
func (m *mrInst) coord(r int) stack.ProcessID { return m.in.coordOf(r) }
func (m *mrInst) self() stack.ProcessID       { return m.in.ctx().ID() }

// quorum returns the Phase 2 wait threshold of the configured flavour.
func (m *mrInst) quorum() int {
	if m.in.svc.cfg.Indirect {
		return TwoThirds(m.n())
	}
	return Majority(m.n())
}

// propose implements algoImpl.
func (m *mrInst) propose(v Value) {
	m.estimate = v
	m.r = 0
	m.nextRound()
}

// nextRound starts round r+1.
func (m *mrInst) nextRound() {
	if m.in.decided {
		return
	}
	m.r++
	r := m.r
	co := m.coord(r)

	if co == m.self() {
		// Phase 1, coordinator: its broadcast is simultaneously the
		// round's proposal and its own relay (Algorithm 3 line 12).
		m.sendEcho(r, m.estimate)
	} else if v := m.rounds.at(r).coordVal; v != nil {
		m.handleCoordVal(r, v)
	} else if m.in.svc.cfg.Detector.Suspects(co) {
		m.sendEcho(r, nil)
	}
	m.tryEvaluate(r)
}

// handleCoordVal is a non-coordinator acting on the coordinator's Phase 1
// value.
func (m *mrInst) handleCoordVal(r int, v Value) {
	if m.r != r || m.rounds.at(r).echoSent {
		return
	}
	if m.in.svc.cfg.Indirect && !m.in.rcvHolds(v) {
		// Lines 16-19: without msgs(v), the process must not propagate
		// v — it relays ⊥ instead. This is what prevents a v-valent,
		// non-v-stable configuration.
		m.sendEcho(r, nil)
		return
	}
	m.sendEcho(r, v)
}

// sendEcho broadcasts this process's round-r relay (est or ⊥) exactly once.
func (m *mrInst) sendEcho(r int, est Value) {
	rd := m.rounds.at(r)
	if rd.echoSent {
		return
	}
	rd.echoSent = true
	m.in.svc.broadcast(m.in.k, MREchoMsg{R: r, Bottom: est == nil, Est: est})
}

// dispatch implements algoImpl.
func (m *mrInst) dispatch(from stack.ProcessID, raw stack.Message) {
	e, ok := raw.(MREchoMsg)
	if !ok {
		return
	}
	r := e.R
	if !e.Bottom && e.Est != nil && from == m.coord(r) {
		if rd := m.rounds.at(r); rd.coordVal == nil {
			rd.coordVal = e.Est
		}
		if m.r == r {
			m.handleCoordVal(r, e.Est)
		}
	}
	rd := m.rounds.at(r)
	if !slices.ContainsFunc(rd.echoes, func(have mrEcho) bool { return have.from == from }) {
		var est Value
		if !e.Bottom {
			est = e.Est
		}
		if rd.echoes == nil {
			rd.echoes = make([]mrEcho, 0, m.n()) // only members relay
		}
		rd.echoes = append(rd.echoes, mrEcho{from: from, est: est})
	}
	m.tryEvaluate(r)
}

// tryEvaluate is Phase 2: once a quorum of relays for the current round has
// arrived, examine exactly the first quorum received (the paper's "wait
// until received from Q processes").
func (m *mrInst) tryEvaluate(r int) {
	rd := m.rounds.at(r)
	q := m.quorum()
	if m.r != r || rd.evaluated || m.in.decided || len(rd.echoes) < q {
		return
	}
	rd.evaluated = true

	first := rd.echoes[:q]
	var v Value
	countV := 0
	for _, e := range first {
		if e.est != nil {
			v = e.est // all non-⊥ relays of a round carry the same value
			countV++
		}
	}

	if countV == q {
		// recp = {v}: unanimous quorum — decide (lines 24-26).
		m.estimate = v
		m.in.broadcastDecide(v)
		return
	}
	if countV > 0 {
		adopt := true
		if m.in.svc.cfg.Indirect {
			// Line 28: adopt v only with msgs(v) in hand, or with
			// ⌈(n+1)/3⌉ copies — i.e. at least one correct holder.
			adopt = m.in.rcvHolds(v) || countV >= ThirdPlus(m.n())
		}
		if adopt {
			m.estimate = v
		}
	}
	m.nextRound()
}

// onSuspect implements algoImpl: suspicion of the current coordinator
// releases the Phase 1 wait with a ⊥ relay.
func (m *mrInst) onSuspect(q stack.ProcessID) {
	if r := m.r; r >= 1 && q == m.coord(r) {
		if rd := m.rounds.at(r); !rd.echoSent && rd.coordVal == nil {
			m.sendEcho(r, nil)
		}
	}
}

// release implements algoImpl.
func (m *mrInst) release() { *m = mrInst{} }
