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
	"abcast/internal/rbcast"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// withMembers is a Config mutator setting the initial member set.
func withMembers(members ...stack.ProcessID) func(*Config) {
	return func(cfg *Config) { cfg.Members = members }
}

// withRecovery enables the recovery subsystem with defaults.
func withRecovery(snapshot bool) func(*Config) {
	return func(cfg *Config) { cfg.Recover, cfg.Snapshot = &RecoverConfig{}, snapshot }
}

// config schedules process p to broadcast a membership change after d.
func (c *cluster) config(p stack.ProcessID, d time.Duration, ch msg.ConfigChange) {
	c.w.After(p, d, func() { c.engines[p].BroadcastConfig(ch) })
}

// abcastTracked schedules a broadcast and records the id it is actually
// assigned at send time. Ids cannot be precomputed in membership tests: a
// configuration change broadcast by the same process consumes a sequence
// number of its own, shifting every later payload id. The append runs on
// the simulation's event loop; read *out only after RunFor returns.
func (c *cluster) abcastTracked(p stack.ProcessID, d time.Duration, payload string, out *[]msg.ID) {
	c.w.After(p, d, func() {
		id := c.engines[p].ABroadcast([]byte(payload))
		*out = append(*out, id)
	})
}

// checkFullDelivery verifies that every id in sent was delivered at every
// listed process.
func (c *cluster) checkFullDelivery(t *testing.T, procs []stack.ProcessID, sent []msg.ID) {
	t.Helper()
	for _, p := range procs {
		got := make(map[msg.ID]bool, len(c.delivered[p]))
		for _, id := range c.delivered[p] {
			got[id] = true
		}
		missing := 0
		for _, id := range sent {
			if !got[id] {
				missing++
			}
		}
		if missing > 0 {
			t.Errorf("p%d: %d/%d sent messages not delivered", p, missing, len(sent))
		}
	}
}

// checkFinalView verifies that every listed process's latest applied view is
// exactly want, and returns the view's first effective instance (identical
// everywhere by uniform total order — asserted too).
func (c *cluster) checkFinalView(t *testing.T, procs []stack.ProcessID, want []stack.ProcessID) uint64 {
	t.Helper()
	var eff uint64
	for i, p := range procs {
		gotEff, got := c.engines[p].CurrentView()
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
		c := newCluster(t, n, VariantIndirectCT, rbcast.KindEager, netmodel.Setup1(), seed,
			withMembers(1, 2, 3), withRecovery(false), pipelined(3, 2))

		// Stable members 1 and 3 send throughout; the leaver sends only
		// before its leave is broadcast, so its messages must drain under
		// the old views.
		var sent []msg.ID
		for _, p := range []stack.ProcessID{1, 3} {
			for s := 0; s < 25; s++ {
				at := time.Duration((int(seed)*37+int(p)*13+s*67)%2000) * time.Millisecond
				c.abcastTracked(p, at, fmt.Sprintf("m-%d-%d", p, s), &sent)
			}
		}
		for s := 0; s < 8; s++ {
			at := time.Duration((int(seed)*41+s*59)%700) * time.Millisecond
			c.abcastTracked(2, at, fmt.Sprintf("m-2-%d", s), &sent)
		}

		c.config(1, 800*time.Millisecond, msg.ConfigChange{Join: 4})
		c.config(3, 1400*time.Millisecond, msg.ConfigChange{Leave: 2})
		c.w.RunFor(40 * time.Second)

		final := []stack.ProcessID{1, 3, 4}
		c.checkTotalOrder(t, final)
		c.checkFullDelivery(t, final, sent)
		eff := c.checkFinalView(t, final, final)

		// Post-switch instances provably run under the new quorum: every
		// final member resolves the view of the final view's first
		// effective instance to {1,3,4}.
		for _, p := range final {
			if got := fmt.Sprint(c.engines[p].ViewAt(eff)); got != fmt.Sprint(final) {
				t.Errorf("p%d: ViewAt(%d) = %v, want %v", p, eff, got, final)
			}
			if k := c.engines[p].Stats().Instances; k+1 <= eff {
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
		c := newCluster(t, n, VariantIndirectCT, rbcast.KindEager, netmodel.Setup1(), seed,
			withMembers(1, 2, 3), withRecovery(false), pipelined(2, 2))

		var sent []msg.ID
		for _, p := range []stack.ProcessID{1, 2} {
			for s := 0; s < 20; s++ {
				at := time.Duration((int(seed)*29+int(p)*19+s*83)%2500) * time.Millisecond
				c.abcastTracked(p, at, fmt.Sprintf("m-%d-%d", p, s), &sent)
			}
		}

		// Cut member 3 off (drop mode) from 0.4 s to 1.6 s; the join of 4
		// is ordered by the majority while the cut is active.
		c.w.After(1, 400*time.Millisecond, func() {
			c.w.Partition(simnet.PartitionDrop, []stack.ProcessID{3})
		})
		c.config(1, 900*time.Millisecond, msg.ConfigChange{Join: 4})
		c.w.After(1, 1600*time.Millisecond, func() { c.w.Heal() })
		c.w.RunFor(40 * time.Second)

		final := []stack.ProcessID{1, 2, 3, 4}
		c.checkTotalOrder(t, final)
		c.checkFullDelivery(t, final, sent)
		c.checkFinalView(t, final, final)
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
		c := newCluster(t, n, VariantIndirectCT, rbcast.KindEager, netmodel.Setup1(), seed,
			withMembers(1, 2, 3), pipelined(2, 2),
			func(cfg *Config) {
				cfg.Recover, cfg.Snapshot = &RecoverConfig{DecisionLogCap: 4}, true
			})

		var sent []msg.ID
		for _, p := range []stack.ProcessID{1, 2, 3} {
			for s := 0; s < 25; s++ {
				at := time.Duration((int(seed)*43+int(p)*23+s*53)%1800) * time.Millisecond
				c.abcastTracked(p, at, fmt.Sprintf("m-%d-%d", p, s), &sent)
			}
		}

		// By 2.5 s the group has ordered far more instances than the
		// 4-entry decision log retains; process 4 then joins from serial 1.
		c.config(1, 2500*time.Millisecond, msg.ConfigChange{Join: 4})
		c.w.RunFor(40 * time.Second)

		final := []stack.ProcessID{1, 2, 3, 4}
		c.checkTotalOrder(t, final)
		c.checkFullDelivery(t, final, sent)
		c.checkFinalView(t, final, final)
		if _, installed := c.engines[4].SnapshotStats(); installed == 0 {
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
		c := newCluster(t, n, VariantIndirectCT, rbcast.KindEager, netmodel.Setup1(), seed,
			withMembers(1, 2, 3), withRecovery(false), pipelined(2, 2))

		var sent []msg.ID
		for _, p := range []stack.ProcessID{1, 2} {
			for s := 0; s < 20; s++ {
				at := time.Duration((int(seed)*47+int(p)*31+s*61)%2200) * time.Millisecond
				c.abcastTracked(p, at, fmt.Sprintf("m-%d-%d", p, s), &sent)
			}
		}

		// Cut process 3 off for good at 0.5 s and broadcast its leave at
		// 0.8 s. The survivors' quorums stay at 2-of-3 until the switch
		// (tolerating the silent member), then drop to 2-of-2.
		c.w.After(1, 500*time.Millisecond, func() {
			c.w.Partition(simnet.PartitionDrop, []stack.ProcessID{3})
		})
		c.config(1, 800*time.Millisecond, msg.ConfigChange{Leave: 3})
		c.w.RunFor(40 * time.Second)

		survivors := []stack.ProcessID{1, 2}
		c.checkTotalOrder(t, survivors)
		c.checkFullDelivery(t, survivors, sent)
		c.checkFinalView(t, survivors, survivors)
	})
}
