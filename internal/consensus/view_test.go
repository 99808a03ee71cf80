package consensus

import (
	"reflect"
	"testing"
	"time"

	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// view returns a Config mutator installing a constant member-set resolver:
// every instance runs under exactly these members, regardless of serial.
func view(members ...stack.ProcessID) func(*Config) {
	return func(cfg *Config) {
		cfg.ViewAt = func(uint64) []stack.ProcessID { return members }
	}
}

// TestViewQuorumDecidesWithoutNonMembers pins the dynamic-membership quorum
// arithmetic: in a universe of 5 processes with the view restricted to
// {1,2,3}, quorums are computed over the view (majority of 3 = 2), so the
// three members decide even though they are a minority of the universe —
// and the non-members, who never see the algorithm's traffic, decide
// nothing.
func TestViewQuorumDecidesWithoutNonMembers(t *testing.T) {
	h := newHarness(t, 5, CT, true, rcvAlways, view(1, 2, 3))
	var proposals []Value
	for _, p := range []stack.ProcessID{1, 2, 3} {
		v := tv(string(rune('a' + p)))
		proposals = append(proposals, v)
		h.propose(p, time.Millisecond, 1, v)
	}
	h.w.RunFor(5 * time.Second)
	h.checkAgreement(t, 1, []stack.ProcessID{1, 2, 3}, proposals)
	for _, q := range []stack.ProcessID{4, 5} {
		if len(h.decisions[q]) != 0 {
			t.Errorf("non-member p%d decided %v; view traffic must not reach it", q, h.decisions[q])
		}
	}
}

// TestViewQuorumSurvivesMemberCrash crashes one of the three view members:
// the remaining two are exactly a majority of the *view* (2 of 3) — were
// quorums still computed over the 5-process universe (majority 3), the
// survivors could never decide.
func TestViewQuorumSurvivesMemberCrash(t *testing.T) {
	h := newHarness(t, 5, CT, true, rcvAlways, view(1, 2, 3))
	crashed := stack.ProcessID(2) // round-1 coordinator of view {1,2,3}
	h.w.Crash(crashed, simnet.DropInFlight)
	var proposals []Value
	for _, p := range []stack.ProcessID{1, 3} {
		v := tv(string(rune('a' + p)))
		proposals = append(proposals, v)
		h.propose(p, time.Millisecond, 1, v)
	}
	for _, p := range []stack.ProcessID{1, 3} {
		p := p
		h.w.After(p, 50*time.Millisecond, func() {
			h.fds[p].SetSuspected(crashed, true)
		})
	}
	h.w.RunFor(5 * time.Second)
	h.checkAgreement(t, 1, []stack.ProcessID{1, 3}, proposals)
}

// TestViewTrafficFromNonMemberDropped: algorithm traffic from outside the
// view must be ignored — a process no longer (or not yet) in an instance's
// member set cannot influence its outcome. Process 4 proposes v4 to the
// same instance the members run; the decision must still be a member's
// proposal.
func TestViewTrafficFromNonMemberDropped(t *testing.T) {
	h := newHarness(t, 5, CT, true, rcvAlways, view(1, 2, 3))
	h.propose(4, 500*time.Microsecond, 1, tv("intruder"))
	var proposals []Value
	for _, p := range []stack.ProcessID{1, 2, 3} {
		v := tv(string(rune('a' + p)))
		proposals = append(proposals, v)
		h.propose(p, time.Millisecond, 1, v)
	}
	h.w.RunFor(5 * time.Second)
	decided := h.checkAgreement(t, 1, []stack.ProcessID{1, 2, 3}, proposals)
	if decided.Key() == "intruder" {
		t.Fatalf("instance decided the non-member's proposal")
	}
}

// TestDecideTargetViews pins how decide dissemination picks its targets: the
// instance's view alone when it is the latest view (the same slice — no
// union is built, so the static path allocates nothing), the sorted union
// of the two otherwise.
func TestDecideTargetViews(t *testing.T) {
	old := []stack.ProcessID{1, 2, 3}
	if !sameView(old, old) || !sameView(nil, nil) {
		t.Fatal("a view is not the same view as itself")
	}
	if sameView(old, []stack.ProcessID{1, 2, 4}) || sameView(old, old[:2]) {
		t.Fatal("distinct views reported as the same")
	}
	for _, tc := range []struct{ a, b, want []stack.ProcessID }{
		{old, []stack.ProcessID{1, 2, 4}, []stack.ProcessID{1, 2, 3, 4}},
		{[]stack.ProcessID{2, 5}, []stack.ProcessID{1, 2, 3}, []stack.ProcessID{1, 2, 3, 5}},
		{old, []stack.ProcessID{1, 2, 3}, old},
		{old, nil, old},
	} {
		if got := unionViews(tc.a, tc.b); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("unionViews(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
