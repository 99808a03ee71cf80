package core

// Property tests of dynamic membership riding the total order: join/leave
// configuration changes are atomically broadcast like any payload, every
// process applies each change at its delivery point, and consensus
// instances at or past the change's serial plus ConfigLag run under the new
// member set. The families here pin the guarantees the design claims:
//
//   - churn under pipelining preserves uniform total order, and every
//     message reaches every member of the final view — including a joiner
//     that must reconstruct the entire pre-join history through the
//     decide-relay and payload fetch;
//   - a joiner beyond the decision-log floor catches up through snapshot
//     state transfer (SnapshotStats proves the path taken);
//   - a leave broadcast while a drop partition is active does not wedge the
//     survivors;
//   - post-switch instances provably use the new view (ViewAt), and the
//     view logs of all final members agree.

import (
	"fmt"
	"testing"
	"time"

	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// checkFinalView verifies that every listed process's latest applied view is
// exactly want, and returns the view's first effective instance (identical
// everywhere by uniform total order — asserted too).
func (g *group) checkFinalView(t *testing.T, procs []stack.ProcessID, want []stack.ProcessID) uint64 {
	t.Helper()
	var eff uint64
	for i, p := range procs {
		gotEff, got := g.engines[p].CurrentView()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("p%d: final view %v, want %v", p, got, want)
		}
		if i == 0 {
			eff = gotEff
		} else if gotEff != eff {
			t.Errorf("p%d: final view effective at %d, p%d says %d", p, gotEff, procs[0], eff)
		}
	}
	return eff
}

// TestChurnPipelinedPropertyFamily drives a join and a leave through a
// pipelined, recovering group while load flows, across a sweep of seeds:
// universe n=5, members {1,2,3}; process 4 joins mid-run and process 2
// leaves afterwards. Final view {1,3,4} must agree on a single total order,
// deliver every message (the joiner reconstructs the pre-join prefix it
// never saw diffused), and resolve post-switch instances under the new
// 3-member view.
func TestChurnPipelinedPropertyFamily(t *testing.T) {
	seedSweep(t, 5, func(t *testing.T, seed int64) {
		const n = 5
		g := newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), seed,
			withMembers(1, 2, 3), withRecovery(false), pipelined(3, 2))

		// Stable members 1 and 3 send throughout; the leaver sends only
		// before its leave is broadcast, so its messages must drain under
		// the old views.
		for _, p := range []stack.ProcessID{1, 3} {
			for s := 0; s < 25; s++ {
				at := time.Duration((int(seed)*37+int(p)*13+s*67)%2000) * time.Millisecond
				g.Broadcast(p, at, fmt.Sprintf("m-%d-%d", p, s))
			}
		}
		for s := 0; s < 8; s++ {
			at := time.Duration((int(seed)*41+s*59)%700) * time.Millisecond
			g.Broadcast(2, at, fmt.Sprintf("m-2-%d", s))
		}

		g.Config(1, 800*time.Millisecond, msg.ConfigChange{Join: 4})
		g.Config(3, 1400*time.Millisecond, msg.ConfigChange{Leave: 2})
		g.Run(40 * time.Second)

		final := []stack.ProcessID{1, 3, 4}
		g.complete(final, 2)
		eff := g.checkFinalView(t, final, final)

		// Post-switch instances provably run under the new quorum: every
		// final member resolves the view of the final view's first
		// effective instance to {1,3,4}.
		for _, p := range final {
			if got := fmt.Sprint(g.engines[p].ViewAt(eff)); got != fmt.Sprint(final) {
				t.Errorf("p%d: ViewAt(%d) = %v, want %v", p, eff, got, final)
			}
			if k := g.engines[p].Stats().Instances; k+1 <= eff {
				t.Errorf("p%d: consumed only %d instances, final view never took effect (eff=%d)", p, k, eff)
			}
		}
	})
}

// TestChurnWithPartitionEpisode composes churn with a drop partition: the
// join is broadcast while a minority member is cut off (drop semantics, so
// its traffic is lost for good), the network heals, and the final view must
// still reach agreement on one total order with full delivery — churn and
// partition recovery exercise the same relay/fetch machinery concurrently.
func TestChurnWithPartitionEpisode(t *testing.T) {
	seedSweep(t, 3, func(t *testing.T, seed int64) {
		const n = 4
		g := newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), seed,
			withMembers(1, 2, 3), withRecovery(false), pipelined(2, 2))

		for _, p := range []stack.ProcessID{1, 2} {
			for s := 0; s < 20; s++ {
				at := time.Duration((int(seed)*29+int(p)*19+s*83)%2500) * time.Millisecond
				g.Broadcast(p, at, fmt.Sprintf("m-%d-%d", p, s))
			}
		}

		// Cut member 3 off (drop mode) from 0.4 s to 1.6 s; the join of 4
		// is ordered by the majority while the cut is active.
		g.w.After(1, 400*time.Millisecond, func() {
			g.w.Partition(simnet.PartitionDrop, []stack.ProcessID{3})
		})
		g.Config(1, 900*time.Millisecond, msg.ConfigChange{Join: 4})
		g.w.After(1, 1600*time.Millisecond, func() { g.w.Heal() })
		g.Run(40 * time.Second)

		final := []stack.ProcessID{1, 2, 3, 4}
		g.complete(final)
		g.checkFinalView(t, final, final)
	})
}

// TestJoinDeepLagSnapshot proves the joiner-bootstrap path through snapshot
// state transfer: the group runs long enough before the join that the
// pre-join prefix falls off a tiny decision log, so a decision replay can
// no longer rebuild it — the joiner must be shipped a snapshot
// (SnapshotStats nonzero) and still reach full delivery in order.
func TestJoinDeepLagSnapshot(t *testing.T) {
	seedSweep(t, 3, func(t *testing.T, seed int64) {
		const n = 4
		g := newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), seed,
			withMembers(1, 2, 3), pipelined(2, 2),
			func(cfg *Config) {
				cfg.Recover, cfg.Snapshot = &RecoverConfig{DecisionLogCap: 4}, true
			})

		for _, p := range []stack.ProcessID{1, 2, 3} {
			for s := 0; s < 25; s++ {
				at := time.Duration((int(seed)*43+int(p)*23+s*53)%1800) * time.Millisecond
				g.Broadcast(p, at, fmt.Sprintf("m-%d-%d", p, s))
			}
		}

		// By 2.5 s the group has ordered far more instances than the
		// 4-entry decision log retains; process 4 then joins from serial 1.
		g.Config(1, 2500*time.Millisecond, msg.ConfigChange{Join: 4})
		g.Run(40 * time.Second)

		final := []stack.ProcessID{1, 2, 3, 4}
		g.complete(final)
		g.checkFinalView(t, final, final)
		if _, installed := g.engines[4].SnapshotStats(); installed == 0 {
			t.Errorf("joiner beyond the decision-log floor caught up without a snapshot install")
		}
	})
}

// TestLeaveDuringDropPartition pins drain liveness: the leaver is cut off
// in drop mode and its leave is broadcast by a survivor while the cut is
// active, so the survivors must both finish instances that still name the
// leaver in their views (rotating past it via the immediate retirement
// suspicion) and keep ordering afterwards. The leaver never comes back; the
// survivors alone are the final view.
func TestLeaveDuringDropPartition(t *testing.T) {
	seedSweep(t, 3, func(t *testing.T, seed int64) {
		const n = 3
		g := newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), seed,
			withMembers(1, 2, 3), withRecovery(false), pipelined(2, 2))

		for _, p := range []stack.ProcessID{1, 2} {
			for s := 0; s < 20; s++ {
				at := time.Duration((int(seed)*47+int(p)*31+s*61)%2200) * time.Millisecond
				g.Broadcast(p, at, fmt.Sprintf("m-%d-%d", p, s))
			}
		}

		// Cut process 3 off for good at 0.5 s and broadcast its leave at
		// 0.8 s. The survivors' quorums stay at 2-of-3 until the switch
		// (tolerating the silent member), then drop to 2-of-2.
		g.w.After(1, 500*time.Millisecond, func() {
			g.w.Partition(simnet.PartitionDrop, []stack.ProcessID{3})
		})
		g.Config(1, 800*time.Millisecond, msg.ConfigChange{Leave: 3})
		g.Run(40 * time.Second)

		survivors := []stack.ProcessID{1, 2}
		g.complete(survivors)
		g.checkFinalView(t, survivors, survivors)
	})
}
