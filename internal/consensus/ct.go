package consensus

import (
	"slices"

	"abcast/internal/stack"
)

// ctInst is the round machinery of the Chandra–Toueg ◇S algorithm, covering
// both the original algorithm and the paper's indirect adaptation
// (Algorithm 2). The differences between the two are confined to
// actOnProposal (lines 25-30: accept the coordinator's proposal only if
// rcv(v) holds) and to the coordinator keeping the selected proposal in
// propVal (the paper's estimatec) separate from its own estimate.
//
// Resilience: f < n/2 in both flavours — the paper's point is that CT is
// "fairly easy" to adapt without losing resilience.
type ctInst struct {
	in *instance

	estimate Value
	ts       int // last round in which estimate was updated
	r        int // current round
	phase    int // 3 = waiting for coordinator proposal, 4 = coordinator collecting replies, 0 = settled

	rounds rounds[ctRound]
}

// ctRound is what a process knows about one round of one instance.
type ctRound struct {
	// As participant: the coordinator's proposal, nil until received (a nil
	// off the wire is no proposal).
	proposal Value
	// As coordinator: the Phase 1 estimates received (one per sender, the
	// latest), whether this process has proposed and what (the paper's
	// estimatec), and who has replied in Phase 4.
	ests        []ctEst
	propSent    bool
	propVal     Value
	acks, nacks []stack.ProcessID
}

// ctEst is one Phase 1 estimate and its sender.
type ctEst struct {
	from stack.ProcessID
	CTEstimateMsg
}

var _ algoImpl = (*ctInst)(nil)

func (c *ctInst) n() int                      { return len(c.in.members) } // the n of the quorum thresholds
func (c *ctInst) coord(r int) stack.ProcessID { return c.in.coordOf(r) }
func (c *ctInst) self() stack.ProcessID       { return c.in.ctx().ID() }

// propose implements algoImpl.
func (c *ctInst) propose(v Value) {
	c.estimate = v
	c.ts = 0
	c.r = 0
	c.nextRound()
}

// nextRound advances to round r+1 (the body of the while loop of
// Algorithm 2).
func (c *ctInst) nextRound() {
	if c.in.decided {
		return
	}
	c.r++
	c.phase = 3
	r := c.r
	co := c.coord(r)

	// Phase 1: send the current estimate to the round's coordinator
	// (skipped in round 1, where the coordinator uses its own estimate).
	if r > 1 {
		c.in.svc.send(co, c.in.k, CTEstimateMsg{R: r, TS: c.ts, Est: c.estimate})
	}

	// Phase 2 (coordinator): round 1 proposes the coordinator's own
	// estimate immediately; later rounds wait for a majority of
	// estimates.
	if co == c.self() {
		if r == 1 {
			c.coordinatorPropose(1, c.estimate)
		} else {
			c.tryCoordinatorPropose(r)
		}
	}

	// Phase 3 entry: the proposal (or grounds for suspicion) may already
	// be at hand.
	if c.rounds.at(r).proposal != nil {
		c.actOnProposal(r)
	} else if c.in.svc.cfg.Detector.Suspects(co) {
		c.refuse(r)
	}
}

// tryCoordinatorPropose fires when this process coordinates round r, has
// entered round r, and holds ⌈(n+1)/2⌉ Phase 1 estimates for it: it selects
// the estimate with the largest timestamp (line 17-18) and proposes it.
func (c *ctInst) tryCoordinatorPropose(r int) {
	rd := c.rounds.at(r)
	if c.r != r || c.coord(r) != c.self() || rd.propSent || len(rd.ests) < Majority(c.n()) {
		return
	}
	// Deterministic selection: among the largest timestamps, take the
	// estimate of the lowest process id.
	best := ctEst{CTEstimateMsg: CTEstimateMsg{TS: -1}}
	for _, e := range rd.ests {
		if e.TS > best.TS || (e.TS == best.TS && e.from < best.from) {
			best = e
		}
	}
	c.coordinatorPropose(r, best.Est)
}

// coordinatorPropose is Phase 2: broadcast v as round r's proposal. In the
// indirect algorithm v is estimatec, the coordinator's *proposal*,
// deliberately distinct from estimatep: the coordinator only updates its own
// estimate in Phase 3, and only if rcv holds (see the paper's "need for
// estimatec and estimatep").
func (c *ctInst) coordinatorPropose(r int, v Value) {
	rd := c.rounds.at(r)
	rd.propVal, rd.propSent = v, true
	c.in.svc.broadcast(c.in.k, CTProposalMsg{R: r, Est: v})
}

// actOnProposal is Phase 3 with a proposal at hand.
func (c *ctInst) actOnProposal(r int) {
	v := c.rounds.at(r).proposal
	if c.r != r || c.phase != 3 || v == nil {
		return
	}
	accept := true
	if c.in.svc.cfg.Indirect {
		// Line 25: check that all messages whose identifiers are in the
		// coordinator's proposal have been received.
		accept = c.in.rcvHolds(v)
	}
	co := c.coord(r)
	if accept {
		c.estimate = v
		c.ts = r
		c.in.svc.send(co, c.in.k, CTAckMsg{R: r})
	} else {
		// Line 30: the proposal names messages this process is missing.
		c.in.svc.send(co, c.in.k, CTAckMsg{R: r, Nack: true})
	}
	c.afterPhase3(r)
}

// refuse is Phase 3 when the coordinator is suspected before its proposal
// arrives.
func (c *ctInst) refuse(r int) {
	if c.r != r || c.phase != 3 {
		return
	}
	c.in.svc.send(c.coord(r), c.in.k, CTAckMsg{R: r, Nack: true})
	c.afterPhase3(r)
}

// afterPhase3 moves a non-coordinator to the next round; the coordinator
// enters Phase 4 to collect replies.
func (c *ctInst) afterPhase3(r int) {
	if c.coord(r) == c.self() {
		c.phase = 4
		c.tryCoordinatorResolve(r)
		return
	}
	c.nextRound()
}

// tryCoordinatorResolve is Phase 4: with ⌈(n+1)/2⌉ acks the coordinator
// R-broadcasts its decision; with any nack it moves on.
func (c *ctInst) tryCoordinatorResolve(r int) {
	if c.r != r || c.phase != 4 || c.in.decided {
		return
	}
	rd := c.rounds.at(r)
	if len(rd.acks) >= Majority(c.n()) {
		c.phase = 0
		c.in.broadcastDecide(rd.propVal)
		return
	}
	if len(rd.nacks) >= 1 {
		c.nextRound()
	}
}

// dispatch implements algoImpl.
func (c *ctInst) dispatch(from stack.ProcessID, m stack.Message) {
	switch mm := m.(type) {
	case CTEstimateMsg:
		rd := c.rounds.at(mm.R)
		if i := slices.IndexFunc(rd.ests, func(e ctEst) bool { return e.from == from }); i >= 0 {
			rd.ests[i].CTEstimateMsg = mm
		} else {
			if rd.ests == nil {
				rd.ests = make([]ctEst, 0, c.n()) // only members send estimates
			}
			rd.ests = append(rd.ests, ctEst{from: from, CTEstimateMsg: mm})
		}
		c.tryCoordinatorPropose(mm.R)
	case CTProposalMsg:
		if rd := c.rounds.at(mm.R); rd.proposal == nil {
			rd.proposal = mm.Est
		}
		c.actOnProposal(mm.R)
	case CTAckMsg:
		rd := c.rounds.at(mm.R)
		set := &rd.acks
		if mm.Nack {
			set = &rd.nacks
		}
		if !slices.Contains(*set, from) {
			if *set == nil {
				*set = make([]stack.ProcessID, 0, c.n()) // only members reply
			}
			*set = append(*set, from)
		}
		c.tryCoordinatorResolve(mm.R)
	}
}

// onSuspect implements algoImpl: a Phase 3 wait aborts when the current
// coordinator becomes suspected.
func (c *ctInst) onSuspect(q stack.ProcessID) {
	if c.phase == 3 && q == c.coord(c.r) && c.rounds.at(c.r).proposal == nil {
		c.refuse(c.r)
	}
}

// release implements algoImpl.
func (c *ctInst) release() { *c = ctInst{} }
