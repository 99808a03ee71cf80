package consensus

import "abcast/internal/stack"

// valueSize returns the wire footprint of a possibly-nil value.
func valueSize(v Value) int {
	if v == nil {
		return 0
	}
	return v.WireSize()
}

// CTEstimateMsg is Phase 1 of the CT algorithm: (p, r, estimate, ts) sent to
// the round's coordinator.
type CTEstimateMsg struct {
	R   int
	TS  int
	Est Value
}

// WireSize implements stack.Message.
func (m CTEstimateMsg) WireSize() int { return 9 + valueSize(m.Est) }

// CTProposalMsg is Phase 2 of the CT algorithm: the coordinator's proposal
// (p, r, estimatec) sent to all.
type CTProposalMsg struct {
	R   int
	Est Value
}

// WireSize implements stack.Message.
func (m CTProposalMsg) WireSize() int { return 5 + valueSize(m.Est) }

// CTAckMsg is Phase 3's reply: (p, r, ack) or (p, r, nack).
type CTAckMsg struct {
	R    int
	Nack bool
}

// WireSize implements stack.Message.
func (m CTAckMsg) WireSize() int { return 6 }

// MREchoMsg is the MR algorithm's per-round broadcast: the coordinator's
// initial send and every process's Phase 1 relay of est_from_c share this
// type (as in Algorithm 3, where both are "(p, rp, est_from_cp)"). Bottom
// encodes ⊥.
type MREchoMsg struct {
	R      int
	Bottom bool
	Est    Value
}

// WireSize implements stack.Message.
func (m MREchoMsg) WireSize() int { return 6 + valueSize(m.Est) }

// DecideMsg carries a decision; it is relayed once by every receiver, which
// gives it reliable-broadcast semantics (line 37 of Algorithm 2, line 26 of
// Algorithm 3).
type DecideMsg struct {
	Est Value
}

// WireSize implements stack.Message.
func (m DecideMsg) WireSize() int { return 2 + valueSize(m.Est) }

// OpenMsg is a participation beacon, not part of the paper's algorithms: a
// process that proposes to a *pipelined* instance (one beyond its lowest
// undecided serial number) announces the instance to all others. Without it,
// an instance whose every proposed identifier got ordered by an earlier
// instance's decision would generate no traffic that forces the remaining
// processes to join, and the rotating coordinator could wait forever on a
// correct process that never proposes. Receivers that have not proposed to
// the instance react through Config.OnNeed.
//
// A standalone OpenMsg is the fallback path: announcements first wait
// (briefly) for a ride on outgoing algorithm traffic as a PiggyMsg, and only
// destinations that saw no traffic within openDelay get the beacon as
// its own message. One beacon covers many instances: the envelope's Inst
// field carries the first, Also the rest.
type OpenMsg struct {
	// Also lists further open instances beyond the envelope's Inst.
	Also []uint64
}

// WireSize implements stack.Message.
func (m OpenMsg) WireSize() int { return 2 + 8*len(m.Also) }

// SyncReqMsg asks the receiver to relay the decisions of instances ≥ From
// that it has in its decision log (recovery path, Config.Relay). A process
// sends it when it can tell it is behind — it holds decisions for later
// instances while earlier ones are missing — which happens when a drop-mode
// partition black-holed the original DecideMsgs and eviction has emptied
// every retransmission buffer that could have replayed them. Stale algorithm
// traffic triggers the same relay implicitly; the explicit request covers a
// behind process that has gone quiet (e.g. parked in a round it coordinates
// itself, waiting for estimates that will never come).
type SyncReqMsg struct {
	From uint64
}

// WireSize implements stack.Message.
func (m SyncReqMsg) WireSize() int { return 9 }

// PiggyMsg decorates an algorithm message with open-instance announcements,
// so a pipelined propose costs no standalone beacon messages when the sender
// is already talking to the destination. The receiver processes Opens
// exactly like OpenMsg beacons, then handles M under the envelope's own
// instance.
type PiggyMsg struct {
	Opens []uint64
	M     stack.Message
}

// WireSize implements stack.Message.
func (m PiggyMsg) WireSize() int { return 1 + 8*len(m.Opens) + m.M.WireSize() }

var (
	_ stack.Message = CTEstimateMsg{}
	_ stack.Message = CTProposalMsg{}
	_ stack.Message = CTAckMsg{}
	_ stack.Message = MREchoMsg{}
	_ stack.Message = DecideMsg{}
	_ stack.Message = OpenMsg{}
	_ stack.Message = PiggyMsg{}
	_ stack.Message = SyncReqMsg{}
)
