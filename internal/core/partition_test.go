package core

// Property tests of atomic broadcast across network partitions
// (simnet.Partition / Heal): random minority partitions with a later heal
// must preserve Uniform total order and the paper's No loss invariant in
// every mode, while the majority side keeps making progress during the
// episode.
//
// The two partition modes give different liveness guarantees, and the tests
// pin exactly that contract:
//
//   - PartitionDelay (TCP-like: the cut buffers, the heal flushes) keeps
//     channels reliable, so every property of the paper's model survives —
//     including full delivery everywhere once the network heals.
//   - PartitionDrop (black hole) violates the quasi-reliable channel
//     assumption while the cut lasts: safety (total order, No loss) is
//     untouched, and the majority still progresses and delivers everything
//     it originated, but — without the recovery subsystem — the minority
//     side may stay behind for good, because the decide relays it missed
//     are never retransmitted.
//   - PartitionDrop with Config.Recover set restores the full contract:
//     the relink layer retransmits what its buffers still hold, and the
//     decide-relay, sync requests, payload fetch and re-diffusion repair
//     what eviction destroyed — so drop-mode episodes end in full delivery
//     everywhere, exactly like delay-mode ones.

import (
	"fmt"
	"testing"
	"time"

	"abcast/internal/netmodel"
	"abcast/internal/relink"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// partitionRun drives one randomized minority-partition episode and returns
// the group and how many messages p1 had delivered at cut and at heal time.
func partitionRun(t *testing.T, seed int64, minoritySize int, mode simnet.PartitionMode, pipeline bool, extra ...func(*Config)) (g *group, atCut, atHeal int) {
	t.Helper()
	const n = 5
	var mutate []func(*Config)
	if pipeline {
		mutate = append(mutate, pipelined(3, 2))
	}
	mutate = append(mutate, extra...)
	g = newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), seed, mutate...)
	requireNoLoss(t, g)

	minority := procs()
	for m := 0; m < minoritySize; m++ {
		minority = append(minority, stack.ProcessID(n-m))
	}
	// Symmetric workload straddling the episode: sends before, during, and
	// after the cut, jittered per seed.
	const cutAt, healAt = 400 * time.Millisecond, 1000 * time.Millisecond
	for i := 1; i <= n; i++ {
		p := stack.ProcessID(i)
		for s := 0; s < 10; s++ {
			at := time.Duration((int(seed)*29+i*13+s*149)%1400) * time.Millisecond
			g.Broadcast(p, at, fmt.Sprintf("m-%d-%d", i, s))
		}
	}

	g.w.After(1, cutAt, func() {
		atCut = len(g.delivered(1))
		g.w.Partition(mode, minority)
	})
	g.w.After(1, healAt, func() {
		atHeal = len(g.delivered(1))
		g.w.Heal()
	})
	g.Run(40 * time.Second)
	return g, atCut, atHeal
}

// TestPartitionDelayPreservesAllProperties: under delay (TCP-like)
// semantics, a minority partition plus heal must leave every atomic
// broadcast property intact — total order, integrity, No loss, and full
// delivery everywhere — while the majority progresses during the cut.
func TestPartitionDelayPreservesAllProperties(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, minoritySize := range []int{1, 2} {
			pipeline := seed%2 == 0 // alternate serial and pipelined engines
			name := fmt.Sprintf("seed=%d/minority=%d/pipeline=%v", seed, minoritySize, pipeline)
			t.Run(name, func(t *testing.T) {
				g, atCut, atHeal := partitionRun(t, seed, minoritySize, simnet.PartitionDelay, pipeline)
				g.complete(procs(1, 2, 3, 4, 5)) // reliable channels: everyone catches up
				if atHeal <= atCut {
					t.Fatalf("majority made no progress during the partition: %d -> %d deliveries",
						atCut, atHeal)
				}
			})
		}
	}
}

// TestPartitionDropKeepsSafety: under drop (black-hole) semantics the
// channel assumption is violated, so only safety and majority-side
// liveness are promised: prefix total order, integrity, No loss, majority
// progress during the cut, and delivery of all majority-originated
// messages on the majority side.
func TestPartitionDropKeepsSafety(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		name := fmt.Sprintf("seed=%d", seed)
		t.Run(name, func(t *testing.T) {
			g, atCut, atHeal := partitionRun(t, seed, 2, simnet.PartitionDrop, false)
			g.complete(procs(1, 2, 3))
			if atHeal <= atCut {
				t.Fatalf("majority made no progress during the partition: %d -> %d deliveries",
					atCut, atHeal)
			}
		})
	}
}

// TestPartitionDropRecoveryCatchesUp: with the recovery subsystem enabled,
// a drop-mode (black-hole) minority partition plus heal must end exactly
// like a delay-mode one — every atomic broadcast property intact, *full*
// delivery at every process including the former minority, and majority
// progress during the cut. Two regimes are pinned:
//
//   - "replay": ample retransmission buffers — the relink layer alone
//     replays everything the cut black-holed, and must actually have
//     retransmitted something.
//   - "relay": 8-entry buffers — eviction destroys most of the replay
//     window, forcing the semantic repair paths (consensus decide-relay /
//     sync requests, payload fetch, unordered re-diffusion) to finish the
//     job; the run must show both evictions and relayed decisions or sync
//     requests, or the regime did not exercise what it claims to.
func TestPartitionDropRecoveryCatchesUp(t *testing.T) {
	cases := []struct {
		name string
		link relink.Config
	}{
		{"replay", relink.Config{}},
		{"relay", relink.Config{BufferCap: 8}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				pipeline := seed%2 == 0
				t.Run(fmt.Sprintf("seed=%d/pipeline=%v", seed, pipeline), func(t *testing.T) {
					recover := func(cfg *Config) {
						cfg.Recover = &RecoverConfig{Link: tc.link}
					}
					g, atCut, atHeal := partitionRun(t, seed, 2, simnet.PartitionDrop, pipeline, recover)
					// The headline: full delivery everywhere despite the
					// black hole — drop-mode is survivable with recovery.
					g.complete(procs(1, 2, 3, 4, 5))
					if atHeal <= atCut {
						t.Fatalf("majority made no progress during the partition: %d -> %d deliveries",
							atCut, atHeal)
					}
					var retrans, evicted int64
					relays, syncs := 0, 0
					for p := 1; p <= 5; p++ {
						st := g.engines[p].LinkStats()
						retrans += st.Retransmitted
						evicted += st.Evicted
						relays += g.engines[p].cons.RelayCount()
						syncs += int(g.engines[p].syncReqs.Value())
					}
					if retrans == 0 {
						t.Fatalf("no link-layer retransmissions across a drop cut")
					}
					if tc.name == "relay" {
						if evicted == 0 {
							t.Fatalf("tiny buffers saw no evictions; regime not exercised")
						}
						if relays == 0 && syncs == 0 {
							t.Fatalf("eviction regime recovered without decide-relay or sync requests")
						}
					}
				})
			}
		})
	}
}
