package core

// Property tests of snapshot state transfer (Config.Snapshot): a
// drop-partitioned minority that falls behind by more consensus instances
// than the decide-relay's decision log retains is beyond every replay-based
// repair — the decisions it needs first are evicted, and its own instances
// find no quorum once the rest of the system has pruned them. The tests pin
// both sides of that contract:
//
//   - with snapshots enabled, such a minority is shipped the delivered
//     prefix, atomically advanced past the gap, and reaches full delivery
//     in total order — the paper's guarantees hold for arbitrarily deep
//     outages;
//   - with snapshots disabled (relay-only recovery), the same schedule
//     provably cannot close the gap: safety holds everywhere and the
//     majority delivers everything, but the minority stays pinned behind
//     the log floor forever.

import (
	"fmt"
	"testing"
	"time"

	"abcast/internal/netmodel"
	"abcast/internal/relink"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// deepLagCfg is the regime every deep-lag test runs in: per-instance work
// capped so the majority burns through many instances during the cut, a
// 4-instance decision log so those instances fall off the relay's horizon,
// and 8-entry retransmission buffers so eviction destroys the replay window.
func deepLagCfg(snapshot bool) func(*Config) {
	return func(cfg *Config) {
		cfg.MaxBatch = 2
		cfg.Recover = &RecoverConfig{Link: relink.Config{BufferCap: 8}, DecisionLogCap: 4}
		cfg.Snapshot = snapshot
	}
}

// deepLagRun drives one drop-mode minority partition deep enough that the
// minority ends up behind by more than the decision log: n=3, process 3 cut
// off for a full second while the majority orders a long message backlog
// two identifiers at a time.
func deepLagRun(t *testing.T, seed int64, pipeline bool, mutate ...func(*Config)) *group {
	t.Helper()
	const n = 3
	var opts []func(*Config)
	if pipeline {
		opts = append(opts, func(cfg *Config) { cfg.Pipeline = 3 })
	}
	opts = append(opts, mutate...)
	g := newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), seed, opts...)

	requireNoLoss(t, g)

	// 20 messages per process, jittered per seed across 0-1.5 s; the cut
	// (0.3-1.3 s) straddles most of the schedule, so the majority decides
	// far more instances during the episode than the 4-entry log retains.
	const cutAt, healAt = 300 * time.Millisecond, 1300 * time.Millisecond
	for i := 1; i <= n; i++ {
		p := stack.ProcessID(i)
		for s := 0; s < 20; s++ {
			at := time.Duration((int(seed)*31+i*17+s*71)%1500) * time.Millisecond
			g.Broadcast(p, at, fmt.Sprintf("m-%d-%d", i, s))
		}
	}
	g.w.After(1, cutAt, func() { g.w.Partition(simnet.PartitionDrop, []stack.ProcessID{n}) })
	g.w.After(1, healAt, func() { g.w.Heal() })
	g.Run(40 * time.Second)
	return g
}

// TestDeepLagSnapshotCatchUp: with snapshots enabled, a minority cut off
// (drop mode) for more than DecisionLogCap instances converges to identical
// delivered sequences on all correct processes — full delivery, total order,
// integrity, No loss — and the run must actually have exercised the deep-lag
// machinery (detections at the majority, snapshots served and installed).
func TestDeepLagSnapshotCatchUp(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		pipeline := seed%2 == 0
		t.Run(fmt.Sprintf("seed=%d/pipeline=%v", seed, pipeline), func(t *testing.T) {
			g := deepLagRun(t, seed, pipeline, deepLagCfg(true))
			// The headline: full delivery everywhere despite a lag deeper
			// than any replay path can cover.
			g.complete(procs(1, 2, 3))

			deep, served := 0, 0
			for p := 1; p <= 2; p++ {
				deep += g.engines[p].cons.DeepLagCount()
				s, _ := g.engines[p].SnapshotStats()
				served += s
			}
			_, installed := g.engines[3].SnapshotStats()
			if deep == 0 {
				t.Fatalf("no deep-lag detection at the majority; the scenario did not leave the relay's horizon")
			}
			if served == 0 || installed == 0 {
				t.Fatalf("snapshot machinery unused (served=%d installed=%d); catch-up happened some other way", served, installed)
			}
		})
	}
}

// TestDeepLagRelayOnlyCannotCatchUp pins the negative: under the exact same
// schedule with snapshots disabled, relay-only recovery cannot close a gap
// below the decision-log floor. Safety (total order, integrity, No loss)
// and majority liveness hold, but the minority stays pinned behind the
// floor with messages it can never deliver.
func TestDeepLagRelayOnlyCannotCatchUp(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		pipeline := seed%2 == 0
		t.Run(fmt.Sprintf("seed=%d/pipeline=%v", seed, pipeline), func(t *testing.T) {
			g := deepLagRun(t, seed, pipeline, deepLagCfg(false))
			// Majority-side liveness is untouched.
			g.complete(procs(1, 2))
			// The minority is structurally stuck: its next-expected instance
			// sits below the floor of every decision log that could help.
			floor := g.engines[1].cons.LogFloor()
			if got := g.engines[3].kNext; got >= floor {
				t.Fatalf("minority kNext=%d not below relay floor %d; scenario not deep enough", got, floor)
			}
			if got, sent := len(g.delivered(3)), len(g.hist.Broadcast); got >= sent {
				t.Fatalf("minority delivered %d/%d messages without snapshots; relay-only should not close a deep gap",
					got, sent)
			}
		})
	}
}

// TestSnapshotMultiRoundChunkedTransfer forces the bounded-transfer paths:
// with snapshotMax=4 the gap takes several offer/accept rounds (each
// truncated at an instance boundary, re-requested by the installer), and
// with snapshotChunk=2 every round is split into multiple chunk messages.
// Catch-up must still converge to full delivery, and the installer must
// have applied several rounds.
func TestSnapshotMultiRoundChunkedTransfer(t *testing.T) {
	bound := func(cfg *Config) { cfg.snapshotMax, cfg.snapshotChunk = 4, 2 }
	g := deepLagRun(t, 2, true, deepLagCfg(true), bound)
	g.complete(procs(1, 2, 3))
	_, installed := g.engines[3].SnapshotStats()
	if installed < 2 {
		t.Fatalf("installed %d snapshot rounds, want ≥ 2 (snapshotMax must force multi-round transfer)", installed)
	}
}

// TestSnapshotOfferIgnoredWhenCurrent: an engine that is not behind the
// offered boundary must ignore the offer outright — no accept, no transfer
// state, no catch-up target.
func TestSnapshotOfferIgnoredWhenCurrent(t *testing.T) {
	g := deepLagRun(t, 1, false, deepLagCfg(true))
	g.complete(procs(1, 2, 3))
	eng := g.engines[1]
	kNext := eng.kNext
	g.w.After(1, time.Millisecond, func() {
		eng.onSnapOffer(2, SnapOfferMsg{Boundary: kNext})
	})
	g.Run(time.Second)
	if eng.snapFrom != 0 || eng.kNext < eng.snapTarget {
		t.Fatalf("stale offer accepted: snapFrom=%d target=%d kNext=%d", eng.snapFrom, eng.snapTarget, eng.kNext)
	}
}
