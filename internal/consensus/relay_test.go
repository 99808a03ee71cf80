package consensus

// Tests of the decide-relay (Config.Relay): bounded decision-log retention,
// explicit sync requests, the implicit stale-traffic trigger, and the
// per-peer cooldown.

import (
	"fmt"
	"testing"
	"time"

	"abcast/internal/fd"
	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// newRelayHarness is newHarness with the decide-relay enabled and a small
// decision-log cap.
func newRelayHarness(t *testing.T, n int, logCap int) *harness {
	t.Helper()
	h := &harness{
		w:           simnet.NewWorld(n, netmodel.Setup1(), 42),
		fds:         make([]*fd.Scripted, n+1),
		svcs:        make([]*Service, n+1),
		decisions:   make([]map[uint64]Value, n+1),
		decideCount: make([]map[uint64]int, n+1),
	}
	for i := 1; i <= n; i++ {
		i := i
		h.fds[i] = fd.NewScripted()
		h.decisions[i] = make(map[uint64]Value)
		h.decideCount[i] = make(map[uint64]int)
		svc, err := NewService(h.w.Node(stack.ProcessID(i)), Config{
			Algo:           CT,
			Detector:       h.fds[i],
			Relay:          true,
			DecisionLogCap: logCap,
			Decide: func(k uint64, v Value) {
				h.decisions[i][k] = v
				h.decideCount[i][k]++
			},
		})
		if err != nil {
			t.Fatalf("NewService(p%d): %v", i, err)
		}
		h.svcs[i] = svc
	}
	return h
}

// TestDecideRelayLogBoundedAndAnswersSync: after deciding more instances
// than the log retains, a sync request is answered with exactly the logged
// decisions — the cap bounds both memory and how far back the relay can
// reach — and a second request inside the cooldown window is not answered
// again.
func TestDecideRelayLogBoundedAndAnswersSync(t *testing.T) {
	const n, instances, logCap = 3, 6, 4
	h := newRelayHarness(t, n, logCap)
	for k := uint64(1); k <= instances; k++ {
		for i := 1; i <= n; i++ {
			h.propose(stack.ProcessID(i), time.Duration(k)*5*time.Millisecond, k,
				tv(fmt.Sprintf("k%d-v%d", k, i)))
		}
	}
	h.w.RunFor(10 * time.Second)
	for k := uint64(1); k <= instances; k++ {
		h.checkAgreement(t, k, allProcs(n), nil)
	}

	svc1 := h.svcs[1]
	if got := len(svc1.decisions); got != logCap {
		t.Fatalf("decision log holds %d entries, want cap %d", got, logCap)
	}
	// The instances are settled everywhere, so p1 prunes them (as the
	// engine above would); the log outlives the prune — that is its point.
	h.w.After(1, time.Millisecond, func() { svc1.PruneBelow(instances + 1) })

	// p3 asks for everything from instance 1; only the logged tail
	// (instances 3..6) can be relayed. The second request lands inside the
	// per-peer cooldown and must be rate-limited away.
	h.w.After(3, 5*time.Millisecond, func() { h.svcs[3].RequestSync(1, 1) })
	h.w.After(3, 5*time.Millisecond+RelayCooldown/2, func() { h.svcs[3].RequestSync(1, 1) })
	h.w.RunFor(time.Second)
	if got := svc1.RelayCount(); got != logCap {
		t.Fatalf("relayed %d decisions, want %d (the logged tail, once)", got, logCap)
	}

	// Relayed decisions for already-settled instances must not re-fire the
	// upcall (at-most-once decide).
	for k := uint64(1); k <= instances; k++ {
		if c := h.decideCount[3][k]; c != 1 {
			t.Fatalf("p3 decided k=%d %d times", k, c)
		}
	}
}

// TestDecideRelayTriggersOnStaleTraffic: algorithm traffic for a pruned
// instance marks its sender as behind and triggers a relay without any
// explicit request.
func TestDecideRelayTriggersOnStaleTraffic(t *testing.T) {
	const n, instances = 3, 3
	h := newRelayHarness(t, n, 0)
	for k := uint64(1); k <= instances; k++ {
		for i := 1; i <= n; i++ {
			h.propose(stack.ProcessID(i), time.Duration(k)*5*time.Millisecond, k,
				tv(fmt.Sprintf("k%d-v%d", k, i)))
		}
	}
	h.w.RunFor(10 * time.Second)
	svc1 := h.svcs[1]
	h.w.After(1, time.Millisecond, func() { svc1.PruneBelow(instances + 1) })
	// p3 emits round traffic for the long-settled instance 1, as a healed
	// process still stuck in it would.
	h.w.After(3, 5*time.Millisecond, func() {
		h.svcs[3].send(1, 1, CTEstimateMsg{R: 2, TS: 0, Est: tv("stale")})
	})
	h.w.RunFor(time.Second)
	if got := svc1.RelayCount(); got != instances {
		t.Fatalf("stale traffic relayed %d decisions, want %d", got, instances)
	}
}
