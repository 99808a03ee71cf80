package consensus

import "abcast/internal/stack"

// instance is the per-serial-number consensus state shared by both
// algorithms: propose/decide lifecycle, pre-propose buffering and decide
// dissemination. The round logic itself lives in the algoImpl (ctInst or
// mrInst); suspicions reach it through Service.onSuspicion.
type instance struct {
	svc        *Service
	k          uint64
	proposed   bool
	decided    bool
	decideSent bool
	buffer     []bufferedMsg
	impl       algoImpl // allocated with the instance (newInstance)
	// members is the instance's view (sorted), cached at propose time — the
	// point where quorum math starts. (An instance can be created earlier, by
	// buffered traffic, when the local view may still be behind;
	// Config.ViewAt guarantees stability by then.)
	members []stack.ProcessID
}

// algoImpl is the algorithm-specific round machinery.
type algoImpl interface {
	// propose starts round 1 with the initial value.
	propose(v Value)
	// dispatch handles an algorithm message (never DecideMsg).
	dispatch(from stack.ProcessID, m stack.Message)
	// onSuspect reacts to the failure detector newly suspecting q.
	onSuspect(q stack.ProcessID)
	// release drops the round state once the instance has decided: it shares
	// the instance's allocation, which outlives the decision.
	release()
}

// rounds is an algorithm's per-round state, one record per round the process
// has entered or heard of, in the order first touched. A message may name any
// round (the number comes off the wire), so the table is searched, never
// indexed. The first two records live inline: a decision in round 1 is
// usually all there is, but every process other than the coordinator enters
// round 2 as soon as it has acknowledged round 1.
type rounds[T any] struct {
	recs   []roundRec[T] // inline[:n] until a third round moves them to the heap
	inline [2]roundRec[T]
}

type roundRec[T any] struct {
	r   int
	rec T
}

// at returns round r's record, made on first touch. The pointer is good until
// the next call: a new record may move the others.
func (t *rounds[T]) at(r int) *T {
	for i := range t.recs {
		if t.recs[i].r == r {
			return &t.recs[i].rec
		}
	}
	if t.recs == nil {
		t.recs = t.inline[:0]
	}
	t.recs = append(t.recs, roundRec[T]{r: r})
	return &t.recs[len(t.recs)-1].rec
}

// newInstance creates instance k in the not-yet-proposed state, in one
// allocation with the round machinery of the configured algorithm.
func newInstance(svc *Service, k uint64) *instance {
	if svc.cfg.Algo == MR {
		b := &struct {
			instance
			mr mrInst
		}{instance: instance{svc: svc, k: k}}
		b.mr.in, b.impl = &b.instance, &b.mr
		return &b.instance
	}
	b := &struct {
		instance
		ct ctInst
	}{instance: instance{svc: svc, k: k}}
	b.ct.in, b.impl = &b.instance, &b.ct
	return &b.instance
}

// ctx is a convenience accessor.
func (in *instance) ctx() stack.Context { return in.svc.proto.Ctx() }

// coordOf returns the rotating coordinator of round r within the instance's
// view. For the full group this is (r mod n) + 1, exactly the paper's rule,
// because the sorted member list of 1..n maps index r mod n to process
// r mod n + 1.
func (in *instance) coordOf(r int) stack.ProcessID {
	return in.members[r%len(in.members)]
}

// fromMember reports whether q belongs to the instance's view.
func (in *instance) fromMember(q stack.ProcessID) bool {
	for _, m := range in.members {
		if m == q {
			return true
		}
	}
	return false
}

// propose starts the instance locally and replays any buffered traffic.
func (in *instance) propose(v Value) {
	in.proposed = true
	in.members = in.svc.membersOf(in.k)
	in.impl.propose(v)
	// Replay messages that arrived before the local propose; the buffer
	// may grow during replay if handlers trigger further local sends, so
	// iterate by index.
	for i := 0; i < len(in.buffer); i++ {
		if in.decided {
			break
		}
		b := in.buffer[i]
		if !in.fromMember(b.from) {
			continue
		}
		in.impl.dispatch(b.from, b.m)
	}
	in.buffer = nil
}

// dispatch forwards algorithm traffic to the implementation. Traffic from a
// process outside the instance's view is dropped: a non-member must not
// count toward quorums computed over the view (decisions never come through
// here — they are accepted from anyone).
func (in *instance) dispatch(from stack.ProcessID, m stack.Message) {
	if in.decided {
		return
	}
	if !in.fromMember(from) {
		return
	}
	in.impl.dispatch(from, m)
}

// broadcastDecide disseminates a decision (R-broadcast of the decide
// message). The local decision fires when the self-copy is delivered, which
// keeps the decide path uniform across initiator and receivers.
func (in *instance) broadcastDecide(v Value) {
	if in.decided || in.decideSent {
		return
	}
	in.decideSent = true
	in.svc.broadcastDecideMsg(in.k, DecideMsg{Est: v}, true)
}

// onDecide handles a received decide message m carrying v: relay m once
// (reliable broadcast semantics), settle the instance, release its state,
// and fire the upcall.
func (in *instance) onDecide(m stack.Message, v Value) {
	if in.decided {
		return
	}
	if !in.decideSent {
		in.decideSent = true
		in.svc.broadcastDecideMsg(in.k, m, false)
	}
	in.decided = true
	in.svc.logDecision(in.k, v)
	in.impl.release()
	in.buffer = nil
	if in.svc.cfg.Decide != nil {
		in.svc.cfg.Decide(in.k, v)
	}
}

// rcvHolds evaluates the rcv predicate for indirect configurations; the
// original algorithms never call it.
func (in *instance) rcvHolds(v Value) bool {
	return in.svc.cfg.Rcv(v)
}
