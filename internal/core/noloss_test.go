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
	"testing"
	"time"

	"abcast/internal/consensus"
	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/rbcast"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// nolossHarness runs a cluster with decision instrumentation.
type nolossHarness struct {
	w       *simnet.World
	engines []*Engine
	// willCrash marks processes that crash at some point in the run; a
	// "correct" process in the paper's sense is one that never crashes.
	willCrash map[stack.ProcessID]bool
	// violations collects decisions that were not held by any correct
	// process / by f+1 processes at decision time.
	nolossViolations  []string
	stabilityShortage []string
	f                 int // stability threshold f (tolerated failures)
}

func newNolossHarness(t *testing.T, n int, variant Variant, seed int64, willCrash map[stack.ProcessID]bool, f int, mutate ...func(*Config)) *nolossHarness {
	t.Helper()
	h := &nolossHarness{
		w:         simnet.NewWorld(n, netmodel.Setup1(), seed),
		engines:   make([]*Engine, n+1),
		willCrash: willCrash,
		f:         f,
	}
	for i := 1; i <= n; i++ {
		node := h.w.Node(stack.ProcessID(i))
		cfg := Config{
			Variant: variant,
			RB:      rbcast.KindEager,
			Deliver: func(*msg.App) {},
			OnDecision: func(k uint64, v consensus.Value) {
				h.checkDecision(k, v)
			},
		}
		for _, m := range mutate {
			m(&cfg)
		}
		eng, err := New(node, cfg)
		if err != nil {
			t.Fatalf("New(p%d): %v", i, err)
		}
		h.engines[i] = eng
	}
	return h
}

// checkDecision evaluates the invariant at a decision instant. It runs
// inside the (single-threaded) simulation, so cross-engine reads observe
// exactly the decision-time state.
func (h *nolossHarness) checkDecision(k uint64, v consensus.Value) {
	ids := idsOfValue(v)
	if _, isMsgs := v.(MsgSetValue); isMsgs || len(ids) == 0 {
		// Consensus on messages carries the payloads in the decision:
		// No loss is trivial. Empty decisions have nothing to lose.
		return
	}
	holders, correctHolders := 0, 0
	for q := 1; q < len(h.engines); q++ {
		all := true
		for _, id := range ids {
			if !h.engines[q].HasReceived(id) {
				all = false
				break
			}
		}
		if all {
			holders++
			if !h.willCrash[stack.ProcessID(q)] {
				correctHolders++
			}
		}
	}
	if correctHolders == 0 {
		h.nolossViolations = append(h.nolossViolations,
			fmt.Sprintf("k=%d ids=%v no correct holder", k, ids))
	}
	if holders < h.f+1 {
		h.stabilityShortage = append(h.stabilityShortage,
			fmt.Sprintf("k=%d ids=%v holders=%d < f+1=%d", k, ids, holders, h.f+1))
	}
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
				h := newNolossHarness(t, c.n, c.variant, seed,
					map[stack.ProcessID]bool{crashed: true}, c.f)
				for i := 1; i <= c.n; i++ {
					p := stack.ProcessID(i)
					for s := 0; s < 6; s++ {
						at := time.Duration((int(seed)*13+i*7+s*31)%150) * time.Millisecond
						h.w.After(p, at, func() { h.engines[p].ABroadcast([]byte("x")) })
					}
				}
				h.w.After(1, time.Duration(40+seed*17)*time.Millisecond, func() {
					h.w.Crash(crashed, simnet.DropInFlight)
				})
				h.w.RunFor(20 * time.Second)
				if len(h.nolossViolations) > 0 {
					t.Fatalf("No loss violated: %v", h.nolossViolations)
				}
				if len(h.stabilityShortage) > 0 {
					t.Fatalf("v-stability shortage: %v", h.stabilityShortage)
				}
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
				h := newNolossHarness(t, c.n, c.variant, seed,
					map[stack.ProcessID]bool{crashed: true}, c.f,
					func(cfg *Config) {
						cfg.Pipeline = c.w
						cfg.MaxBatch = 2 // keep several instances in flight
					})
				for i := 1; i <= c.n; i++ {
					p := stack.ProcessID(i)
					for s := 0; s < 8; s++ {
						at := time.Duration((int(seed)*13+i*7+s*23)%150) * time.Millisecond
						h.w.After(p, at, func() { h.engines[p].ABroadcast([]byte("x")) })
					}
				}
				h.w.After(1, time.Duration(40+seed*17)*time.Millisecond, func() {
					h.w.Crash(crashed, simnet.DropInFlight)
				})
				h.w.RunFor(20 * time.Second)
				if len(h.nolossViolations) > 0 {
					t.Fatalf("No loss violated: %v", h.nolossViolations)
				}
				if len(h.stabilityShortage) > 0 {
					t.Fatalf("v-stability shortage: %v", h.stabilityShortage)
				}
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
	h := &nolossHarness{
		w:         simnet.NewWorld(3, params, 17),
		engines:   make([]*Engine, 4),
		willCrash: map[stack.ProcessID]bool{2: true},
		f:         1,
	}
	for i := 1; i <= 3; i++ {
		node := h.w.Node(stack.ProcessID(i))
		eng, err := New(node, Config{
			Variant: VariantFaultyIDs,
			RB:      rbcast.KindEager,
			Deliver: func(*msg.App) {},
			OnDecision: func(k uint64, v consensus.Value) {
				h.checkDecision(k, v)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		h.engines[i] = eng
	}
	ab := func(p stack.ProcessID, at time.Duration) {
		h.w.After(p, at, func() { h.engines[p].ABroadcast([]byte("x")) })
	}
	ab(1, time.Millisecond)
	ab(3, time.Millisecond)
	ab(2, 50*time.Millisecond) // the poisoned broadcast
	ab(1, 51*time.Millisecond)
	ab(3, 51*time.Millisecond)
	h.w.After(1, time.Second, func() { h.w.Crash(2, simnet.DropInFlight) })
	h.w.RunFor(10 * time.Second)
	if len(h.nolossViolations) == 0 {
		t.Fatal("the faulty stack produced no No-loss violation; the checker (or the schedule) is broken")
	}
}
