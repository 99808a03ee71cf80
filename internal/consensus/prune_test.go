package consensus

import (
	"fmt"
	"testing"
	"time"

	"abcast/internal/stack"
)

func TestPruneBelowReleasesInstances(t *testing.T) {
	const n, instances = 3, 10
	h := newHarness(t, n, CT, false, nil)
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
	svc := h.svcs[1]
	if svc.InstanceCount() != instances {
		t.Fatalf("InstanceCount = %d before prune", svc.InstanceCount())
	}
	h.w.After(1, time.Millisecond, func() { svc.PruneBelow(instances + 1) })
	h.w.RunFor(time.Second)
	if svc.InstanceCount() != 0 {
		t.Fatalf("InstanceCount = %d after prune, want 0", svc.InstanceCount())
	}
	// Idempotent and monotone.
	h.w.After(1, time.Millisecond, func() {
		svc.PruneBelow(3) // lower than current watermark: no-op
		svc.PruneBelow(instances + 1)
	})
	h.w.RunFor(time.Second)
}

func TestPrunedInstanceIgnoresTraffic(t *testing.T) {
	const n = 3
	h := newHarness(t, n, CT, false, nil)
	for i := 1; i <= n; i++ {
		h.propose(stack.ProcessID(i), time.Millisecond, 1, tv(fmt.Sprintf("v%d", i)))
	}
	h.w.RunFor(2 * time.Second)
	h.checkAgreement(t, 1, allProcs(n), nil)

	svc := h.svcs[1]
	h.w.After(1, time.Millisecond, func() {
		svc.PruneBelow(2)
		// Late traffic and proposals for the pruned instance must be
		// ignored, not resurrect state.
		svc.Propose(1, tv("zombie"))
	})
	h.w.RunFor(time.Second)
	if svc.InstanceCount() != 0 {
		t.Fatalf("pruned instance resurrected: count=%d", svc.InstanceCount())
	}
	if h.decideCount[1][1] != 1 {
		t.Fatalf("decide count changed after prune: %d", h.decideCount[1][1])
	}
}

// TestPrunedInstanceIgnoresSuspicion: PruneBelow may drop an instance this
// process proposed to and has not seen decided (the engine's snapshot
// installer jumps past such instances). The dropped instance must be dead to
// the failure detector too — a later suspicion of its coordinator used to
// drive its round machine (a nack and a round-2 estimate) from beyond the
// grave.
func TestPrunedInstanceIgnoresSuspicion(t *testing.T) {
	h := newHarness(t, 3, CT, false, nil)
	h.propose(1, time.Millisecond, 1, tv("v1")) // alone: waits on coordinator p2
	h.w.RunFor(time.Second)
	svc := h.svcs[1]
	if svc.Undecided() != 1 {
		t.Fatalf("Undecided = %d before prune, want 1", svc.Undecided())
	}
	h.w.After(1, time.Millisecond, func() { svc.PruneBelow(2) })
	h.w.RunFor(time.Second)
	sent := h.w.MsgsSent()
	h.w.After(1, time.Millisecond, func() { h.fds[1].SetSuspected(2, true) })
	h.w.RunFor(time.Second)
	if svc.InstanceCount() != 0 {
		t.Fatalf("InstanceCount = %d after prune, want 0", svc.InstanceCount())
	}
	if got := h.w.MsgsSent() - sent; got != 0 {
		t.Fatalf("pruned instance sent %d messages on a suspicion", got)
	}
}
