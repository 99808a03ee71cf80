package core

// Tests of the paper's No loss property (Section 2.3) and of the
// v-valence ⇒ v-stability theorem behind it (Section 3.1), checked as a
// runtime invariant: at the instant any process learns a decision v, the
// messages msgs(v) must be held by at least one process that never crashes
// in the run — and, for v-stability, by at least f+1 processes where f is
// the stack's tolerated failure count.
//
// The faulty stack serves as the negative control: under the Section 2.2
// schedule its decisions violate the invariant, which shows the checker
// actually detects violations.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"abcast/internal/consensus"
	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// lossWatch is what watchLoss saw at the decision instants of a run.
type lossWatch struct {
	lost     []string // decisions no process outside crashed held: No loss violated
	unstable []string // decisions held by fewer than f+1 processes
}

// watchLoss evaluates the invariant at every decision instant of g's run:
// msgs(v) must be held by a process outside crashed — a correct process,
// one that never crashes in the run — and by at least f+1 processes. It runs
// inside the (single-threaded) simulation, so cross-engine reads observe
// exactly the decision-time state.
func watchLoss(g *group, f int, crashed ...stack.ProcessID) *lossWatch {
	lw := new(lossWatch)
	g.onDecision = func(k uint64, v consensus.Value) {
		ids := idsOfValue(v)
		if _, isMsgs := v.(MsgSetValue); isMsgs || len(ids) == 0 {
			// Consensus on messages carries the payloads in the decision:
			// No loss is trivial. Empty decisions have nothing to lose.
			return
		}
		holders, correctHolders := 0, 0
		for q := 1; q < len(g.engines); q++ {
			all := true
			for _, id := range ids {
				if !g.engines[q].HasReceived(id) {
					all = false
					break
				}
			}
			if all {
				holders++
				if !slices.Contains(crashed, stack.ProcessID(q)) {
					correctHolders++
				}
			}
		}
		if correctHolders == 0 {
			lw.lost = append(lw.lost, fmt.Sprintf("k=%d ids=%v no correct holder", k, ids))
		}
		if holders < f+1 {
			lw.unstable = append(lw.unstable, fmt.Sprintf("k=%d ids=%v holders=%d < f+1=%d", k, ids, holders, f+1))
		}
	}
	return lw
}

// check fails the test if the run violated No loss or v-stability.
func (lw *lossWatch) check(t *testing.T) {
	t.Helper()
	if len(lw.lost) > 0 {
		t.Fatalf("No loss violated: %v", lw.lost)
	}
	if len(lw.unstable) > 0 {
		t.Fatalf("v-stability shortage: %v", lw.unstable)
	}
}

// requireNoLoss reports, when the test ends, every decision of g's run whose
// messages no process held at the decision instant. Nobody crashes in the
// runs that use it, so every process counts as correct.
func requireNoLoss(t *testing.T, g *group) {
	lw := watchLoss(g, 0)
	t.Cleanup(func() {
		if len(lw.lost) > 0 {
			t.Errorf("No loss violated: %v", lw.lost)
		}
	})
}

// TestNoLossInvariantHolds runs the correct id-based stacks under load with
// a crash and asserts the invariant at every decision instant.
func TestNoLossInvariantHolds(t *testing.T) {
	cases := []struct {
		variant Variant
		n, f    int
	}{
		{VariantIndirectCT, 3, 1},
		{VariantIndirectCT, 5, 2},
		{VariantIndirectMR, 4, 1},
		{VariantURBIDs, 3, 1},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%v/n=%d/seed=%d", c.variant, c.n, seed)
			t.Run(name, func(t *testing.T) {
				crashed := stack.ProcessID(c.n) // the last process crashes mid-run
				g := newGroup(t, c.n, c.variant, netmodel.Setup1(), seed, freeRcv)
				lw := watchLoss(g, c.f, crashed)
				for i := 1; i <= c.n; i++ {
					p := stack.ProcessID(i)
					for s := 0; s < 6; s++ {
						g.Broadcast(p, time.Duration((int(seed)*13+i*7+s*31)%150)*time.Millisecond, "x")
					}
				}
				g.w.After(1, time.Duration(40+seed*17)*time.Millisecond, func() {
					g.w.Crash(crashed, simnet.DropInFlight)
				})
				g.Run(20 * time.Second)
				lw.check(t)
			})
		}
	}
}

// TestNoLossInvariantHoldsPipelined re-runs the invariant check with the
// ordering path pipelined: W concurrent instances with small disjoint
// batches must not weaken No loss or v-stability — the decision-time
// holders requirement is per decision, however many instances are in
// flight.
func TestNoLossInvariantHoldsPipelined(t *testing.T) {
	cases := []struct {
		variant Variant
		n, f, w int
	}{
		{VariantIndirectCT, 3, 1, 2},
		{VariantIndirectCT, 5, 2, 4},
		{VariantIndirectMR, 4, 1, 3},
		{VariantURBIDs, 3, 1, 4},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%v/n=%d/W=%d/seed=%d", c.variant, c.n, c.w, seed)
			t.Run(name, func(t *testing.T) {
				crashed := stack.ProcessID(c.n)
				// MaxBatch 2 keeps several instances in flight.
				g := newGroup(t, c.n, c.variant, netmodel.Setup1(), seed, freeRcv, pipelined(c.w, 2))
				lw := watchLoss(g, c.f, crashed)
				for i := 1; i <= c.n; i++ {
					p := stack.ProcessID(i)
					for s := 0; s < 8; s++ {
						g.Broadcast(p, time.Duration((int(seed)*13+i*7+s*23)%150)*time.Millisecond, "x")
					}
				}
				g.w.After(1, time.Duration(40+seed*17)*time.Millisecond, func() {
					g.w.Crash(crashed, simnet.DropInFlight)
				})
				g.Run(20 * time.Second)
				lw.check(t)
			})
		}
	}
}

// TestNoLossCheckerDetectsFaultyStack is the negative control: under the
// Section 2.2 adversarial schedule, the faulty stack must produce a
// decision with NO correct holder — proving the checker can fail.
func TestNoLossCheckerDetectsFaultyStack(t *testing.T) {
	params := netmodel.Setup1()
	params.LatencyFn = func(from, to stack.ProcessID, env stack.Envelope) time.Duration {
		if from == 2 && env.Proto == stack.ProtoRB {
			return time.Hour
		}
		return params.Latency
	}
	g := newGroup(t, 3, VariantFaultyIDs, params, 17, freeRcv)
	lw := watchLoss(g, 1, 2)
	g.Broadcast(1, time.Millisecond, "x")
	g.Broadcast(3, time.Millisecond, "x")
	g.Broadcast(2, 50*time.Millisecond, "x") // the poisoned broadcast
	g.Broadcast(1, 51*time.Millisecond, "x")
	g.Broadcast(3, 51*time.Millisecond, "x")
	g.w.After(1, time.Second, func() { g.w.Crash(2, simnet.DropInFlight) })
	g.Run(10 * time.Second)
	if len(lw.lost) == 0 {
		t.Fatal("the faulty stack produced no No-loss violation; the checker (or the schedule) is broken")
	}
}
