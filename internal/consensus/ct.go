package consensus

import "abcast/internal/stack"

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

	ests      map[int]map[stack.ProcessID]CTEstimateMsg // Phase 1 estimates, per round (coordinator)
	proposals map[int]Value                             // coordinator proposals received, per round
	propSent  map[int]bool                              // rounds for which this process, as coordinator, proposed
	propVal   map[int]Value                             // estimatec per round (coordinator)
	acks      map[int]map[stack.ProcessID]bool
	nacks     map[int]map[stack.ProcessID]bool
}

var _ algoImpl = (*ctInst)(nil)

func newCTInst(in *instance) *ctInst {
	return &ctInst{
		in:        in,
		ests:      make(map[int]map[stack.ProcessID]CTEstimateMsg),
		proposals: make(map[int]Value),
		propSent:  make(map[int]bool),
		propVal:   make(map[int]Value),
		acks:      make(map[int]map[stack.ProcessID]bool),
		nacks:     make(map[int]map[stack.ProcessID]bool),
	}
}

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
			c.propVal[1] = c.estimate
			c.propSent[1] = true
			c.in.svc.broadcast(c.in.k, CTProposalMsg{R: 1, Est: c.estimate})
		} else {
			c.tryCoordinatorPropose(r)
		}
	}

	// Phase 3 entry: the proposal (or grounds for suspicion) may already
	// be at hand.
	if _, ok := c.proposals[r]; ok {
		c.actOnProposal(r)
	} else if c.in.svc.cfg.Detector.Suspects(co) {
		c.refuse(r)
	}
}

// tryCoordinatorPropose fires when this process coordinates round r, has
// entered round r, and holds ⌈(n+1)/2⌉ Phase 1 estimates for it: it selects
// the estimate with the largest timestamp (line 17-18) and proposes it.
func (c *ctInst) tryCoordinatorPropose(r int) {
	if c.r != r || c.coord(r) != c.self() || c.propSent[r] {
		return
	}
	byProc := c.ests[r]
	if len(byProc) < Majority(c.n()) {
		return
	}
	// Deterministic selection: among the largest timestamps, take the
	// estimate of the lowest process id (the member list is sorted).
	best := CTEstimateMsg{TS: -1}
	for _, q := range c.in.members {
		if e, ok := byProc[q]; ok && e.TS > best.TS {
			best = e
		}
	}
	// In the indirect algorithm this value is estimatec, the
	// coordinator's *proposal*, deliberately distinct from estimatep: the
	// coordinator only updates its own estimate in Phase 3, and only if
	// rcv holds (see the paper's "need for estimatec and estimatep").
	c.propVal[r] = best.Est
	c.propSent[r] = true
	c.in.svc.broadcast(c.in.k, CTProposalMsg{R: r, Est: best.Est})
}

// actOnProposal is Phase 3 with a proposal at hand.
func (c *ctInst) actOnProposal(r int) {
	if c.r != r || c.phase != 3 {
		return
	}
	v := c.proposals[r]
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
	if len(c.acks[r]) >= Majority(c.n()) {
		c.phase = 0
		c.in.broadcastDecide(c.propVal[r])
		return
	}
	if len(c.nacks[r]) >= 1 {
		c.nextRound()
	}
}

// dispatch implements algoImpl.
func (c *ctInst) dispatch(from stack.ProcessID, m stack.Message) {
	switch mm := m.(type) {
	case CTEstimateMsg:
		byProc, ok := c.ests[mm.R]
		if !ok {
			byProc = make(map[stack.ProcessID]CTEstimateMsg)
			c.ests[mm.R] = byProc
		}
		byProc[from] = mm
		c.tryCoordinatorPropose(mm.R)
	case CTProposalMsg:
		if _, dup := c.proposals[mm.R]; !dup {
			c.proposals[mm.R] = mm.Est
		}
		c.actOnProposal(mm.R)
	case CTAckMsg:
		set := c.acks
		if mm.Nack {
			set = c.nacks
		}
		byProc, ok := set[mm.R]
		if !ok {
			byProc = make(map[stack.ProcessID]bool)
			set[mm.R] = byProc
		}
		byProc[from] = true
		c.tryCoordinatorResolve(mm.R)
	}
}

// onSuspect implements algoImpl: a Phase 3 wait aborts when the current
// coordinator becomes suspected.
func (c *ctInst) onSuspect(q stack.ProcessID) {
	if c.phase == 3 && q == c.coord(c.r) {
		if _, ok := c.proposals[c.r]; !ok {
			c.refuse(c.r)
		}
	}
}
