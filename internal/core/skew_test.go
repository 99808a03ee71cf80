package core

import (
	"fmt"
	"testing"
	"time"

	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// TestProcessingDelaySkewInvariants sweeps seeds over two adversarial
// per-protocol CPU-cost skews — consensus much slower than diffusion, and
// diffusion much slower than consensus — and checks that every atomic
// broadcast invariant survives both, even with a membership change landing
// mid-run. Slow consensus makes payloads pile up unordered (deep batches,
// wide pipelines); slow diffusion makes identifiers get ordered before
// their payloads arrive (the indirect stack's rcv(v) predicate and the
// ordered-queue wait do the work). Either skew re-paces every interleaving
// the protocol has; none may cost safety or delivery.
func TestProcessingDelaySkewInvariants(t *testing.T) {
	skews := []struct {
		name   string
		delays simnet.ProcessingDelays
	}{
		{"slow-consensus", simnet.ProcessingDelays{stack.ProtoCons: 2 * time.Millisecond}},
		{"slow-diffusion", simnet.ProcessingDelays{stack.ProtoRB: 2 * time.Millisecond}},
	}
	for _, sk := range skews {
		sk := sk
		t.Run(sk.name, func(t *testing.T) {
			seedSweep(t, 3, func(t *testing.T, seed int64) {
				const n = 4
				g := newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), seed,
					withMembers(1, 2, 3), withRecovery(false), pipelined(2, 2))
				g.w.SetProcessingDelays(sk.delays)

				for _, p := range []stack.ProcessID{1, 2, 3} {
					for s := 0; s < 15; s++ {
						at := time.Duration((int(seed)*53+int(p)*29+s*71)%1500) * time.Millisecond
						g.Broadcast(p, at, fmt.Sprintf("m-%d-%d", p, s))
					}
				}
				g.Config(1, 700*time.Millisecond, msg.ConfigChange{Join: 4})
				g.Run(60 * time.Second)

				final := []stack.ProcessID{1, 2, 3, 4}
				g.complete(final)
				g.checkFinalView(t, final, final)
			})
		})
	}
}
