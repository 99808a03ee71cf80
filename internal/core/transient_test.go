package core

// Transient-fault (SSABC-style) property tests: a process's volatile
// protocol state is scrambled mid-run while the process keeps executing,
// and the recovery machinery must re-converge it — same relay/fetch chain
// that serves laggards and partition victims, no dedicated repair protocol.
// The negative test pins the claim structurally: the *same* fault without
// the recovery subsystem provably wedges the victim (while safety — the
// total-order prefix property — still holds), so it is the recovery
// machinery, not incidental protocol redundancy, that repairs the fault.

import (
	"fmt"
	"testing"
	"time"

	"abcast/internal/netmodel"
	"abcast/internal/stack"
)

// transientLoad schedules 20 broadcasts from each process spread across
// ~2.5 s, so ordering activity continues well past a mid-window fault
// (re-convergence requires it: the next decision reaching the victim is
// what trips needsSync).
func transientLoad(g *group, seed int64, senders []stack.ProcessID) {
	for _, p := range senders {
		for s := 0; s < 20; s++ {
			at := time.Duration((int(seed)*31+int(p)*17+s*127)%2500) * time.Millisecond
			g.Broadcast(p, at, fmt.Sprintf("m-%d-%d", p, s))
		}
	}
}

// corruptOnBacklog arms a scan at `from` that fires CorruptVolatile the
// first moment the victim holds received-but-undelivered payloads — a
// fixed-time fault under Setup1 usually lands on an empty backlog (end-to-
// end delivery is sub-millisecond) and wipes nothing. The scan is on the
// victim's own event loop and rechecks every 200 µs until the load window
// ends, so the whole schedule stays deterministic per seed. Returns a flag
// set at fault time; tests assert it to prove the fault actually destroyed
// state.
func corruptOnBacklog(g *group, victim stack.ProcessID, from time.Duration) *bool {
	fired := new(bool)
	deadline := 4 * time.Second
	elapsed := from
	var scan func()
	scan = func() {
		st := g.engines[victim].Stats()
		if st.Unordered > 0 || st.OrderedQ > 0 {
			*fired = true
			g.engines[victim].CorruptVolatile()
			return
		}
		if elapsed >= deadline {
			return
		}
		elapsed += 200 * time.Microsecond
		g.w.After(victim, 200*time.Microsecond, scan)
	}
	g.w.After(victim, from, scan)
	return fired
}

// TestTransientFaultRecovery corrupts the victim's volatile queues around
// kNext mid-run (received-but-undelivered payloads, unordered pool,
// buffered decisions, proposal bookkeeping, consensus settled-instance
// memory) and sweeps seeds: with recovery enabled the victim must fully
// re-converge — every message delivered everywhere, one total order, no
// duplicates — and the decision relay must provably have been exercised.
func TestTransientFaultRecovery(t *testing.T) {
	seedSweep(t, 5, func(t *testing.T, seed int64) {
		const n = 3
		g := newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), seed,
			withRecovery(false), pipelined(2, 2))
		all := procs(1, 2, 3)
		transientLoad(g, seed, all)

		const victim = stack.ProcessID(2)
		fired := corruptOnBacklog(g, victim, 1200*time.Millisecond)
		g.Run(40 * time.Second)

		if !*fired {
			t.Fatalf("fault injector never found backlog to wipe; schedule too sparse")
		}
		g.complete(all)

		relays := 0
		for _, p := range all {
			if p != victim {
				relays += g.engines[p].cons.RelayCount()
			}
		}
		if relays == 0 {
			t.Errorf("victim re-converged without any decision relay; corruption did not exercise the recovery path")
		}
	})
}

// TestTransientFaultWithoutRecoveryWedges is the pinned structural
// negative: the identical fault under the identical schedule, but with the
// recovery subsystem disabled. The wiped payloads were already diffused
// once — nothing retransmits them — so the victim wedges at the hole,
// short of full delivery, while the unaffected majority still finishes and
// the victim's delivered sequence remains a clean prefix of theirs (the
// fault costs liveness, never safety).
func TestTransientFaultWithoutRecoveryWedges(t *testing.T) {
	const seed = 7
	const n = 3
	g := newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), seed,
		pipelined(2, 2)) // Config.Recover deliberately nil
	transientLoad(g, seed, procs(1, 2, 3))

	const victim = stack.ProcessID(2)
	fired := corruptOnBacklog(g, victim, 1200*time.Millisecond)
	g.Run(40 * time.Second)

	if !*fired {
		t.Fatalf("fault injector never found backlog to wipe; schedule too sparse")
	}
	// Safety everywhere (Run), liveness only at the survivors — but the
	// victim's broadcasts are theirs to deliver too.
	g.complete(procs(1, 3), victim)
	if got, sent := len(g.delivered(victim)), len(g.hist.Broadcast); got >= sent {
		t.Fatalf("victim delivered %d/%d messages without recovery machinery; the negative no longer pins anything",
			got, sent)
	}
}
