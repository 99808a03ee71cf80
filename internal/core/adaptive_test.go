package core

// Tests of the adaptive control plane's engine side: the safety property
// (retargeting the window between instances never loses identifiers, so the
// full atomic broadcast contract survives partitions with the controller
// running) and the end-to-end feedback behaviour (the window grows under a
// backlog and decays once it drains).

import (
	"fmt"
	"testing"
	"time"

	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// adaptive is a Config mutator enabling the control plane with defaults.
func adaptive() func(*Config) {
	return func(cfg *Config) { cfg.Adaptive = true }
}

// TestAdaptivePartitionKeepsContract: with the controller retargeting the
// pipeline width at runtime, a partition-and-heal episode must leave every
// atomic broadcast property intact — total order, integrity, No loss (the
// OnDecision checker partitionRun installs), and full delivery everywhere —
// in delay mode and in drop mode with recovery. The runs must actually have
// retargeted (a controller that never moves would make this vacuous): a
// cut-off minority's backlog grows while it cannot decide, which is exactly
// the growth signal, and the shrink path runs when the backlog drains after
// the heal. The risk pinned here is the window retarget crossing an
// instance boundary in a way that loses recycled identifiers: a shrink must
// only gate new instances, never cancel in-flight ones, or ids claimed by a
// cancelled proposal could vanish from the unordered set without ever being
// ordered.
func TestAdaptivePartitionKeepsContract(t *testing.T) {
	modes := []struct {
		name string
		mode simnet.PartitionMode
		rec  bool
	}{
		{"delay", simnet.PartitionDelay, false},
		{"drop+recovery", simnet.PartitionDrop, true},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					extra := []func(*Config){adaptive()}
					if m.rec {
						extra = append(extra, func(cfg *Config) { cfg.Recover = &RecoverConfig{} })
					}
					g, atCut, atHeal := partitionRun(t, seed, 2, m.mode, false, extra...)
					g.complete(procs(1, 2, 3, 4, 5))
					if atHeal <= atCut {
						t.Fatalf("majority made no progress during the partition: %d -> %d deliveries",
							atCut, atHeal)
					}
					retargets, maxW := 0, 0
					for p := 1; p <= 5; p++ {
						st := g.engines[p].Stats()
						retargets += st.Retargets
						if st.MaxInFlight > maxW {
							maxW = st.MaxInFlight
						}
					}
					if retargets == 0 {
						t.Fatalf("controller never retargeted; the episode did not exercise adaptation")
					}
					if maxW < 2 {
						t.Fatalf("window never actually widened (max in-flight %d)", maxW)
					}
				})
			}
		})
	}
}

// TestRetargetShrinkLosesNothing: shrinking the window (and the batch cap)
// while proposals are in flight must not lose identifiers. The shrink lands
// mid-run on every engine, with instances outstanding whose batches hold
// claimed ids; those instances drain at their own pace, their unordered-but
// -unwon ids are recycled into later (now serial) instances, and every
// message is still delivered everywhere in total order.
func TestRetargetShrinkLosesNothing(t *testing.T) {
	params := netmodel.Setup2()
	params.Latency = time.Millisecond // idle wire time, so W=4 pipelines for real
	g := newGroup(t, 3, VariantIndirectCT, params, 11, pipelined(4, 2))
	for i := 1; i <= 3; i++ {
		p := stack.ProcessID(i)
		for s := 0; s < 30; s++ {
			g.Broadcast(p, time.Duration(2+s*2)*time.Millisecond, fmt.Sprintf("m-%d-%d", i, s))
		}
	}
	// Mid-burst, with the pipeline provably full, drop every engine to the
	// serial window.
	for i := 1; i <= 3; i++ {
		p := stack.ProcessID(i)
		g.w.After(p, 30*time.Millisecond, func() { g.engines[p].Retarget(1, 2) })
	}
	g.Run(20 * time.Second)
	g.complete(procs(1, 2, 3))
	for i := 1; i <= 3; i++ {
		st := g.engines[i].Stats()
		if st.MaxInFlight < 2 {
			t.Fatalf("p%d never pipelined (max in-flight %d); the shrink shrank nothing", i, st.MaxInFlight)
		}
		if st.Window != 1 || st.MaxBatch != 2 {
			t.Fatalf("p%d retarget not applied: window=%d batch=%d", i, st.Window, st.MaxBatch)
		}
		if st.InFlight > 1 {
			t.Fatalf("p%d still has %d in-flight proposals at a serial window after quiescence", i, st.InFlight)
		}
	}
}

// TestAdaptiveFailedConstructionArmsNoTimer: an errored New with Adaptive set
// must not leave the control-tick timer armed — a timer firing on the
// half-built engine (nil consensus service) would panic the event loop long
// after the caller handled the constructor error.
func TestAdaptiveFailedConstructionArmsNoTimer(t *testing.T) {
	w := simnet.NewWorld(1, netmodel.Setup1(), 1)
	node := w.Node(1)
	_, err := New(node, Config{
		Variant:  VariantIndirectCT,
		Members:  []stack.ProcessID{}, // empty: New fails after initAdapt ran
		Adaptive: true,
		Deliver:  func(*msg.App) {},
	})
	if err == nil {
		t.Fatal("expected an empty-member-set error")
	}
	// If initAdapt armed the loop, the first tick at +25 ms panics here.
	w.RunFor(time.Second)
}

// TestAdaptiveGrowsAndDecays: the full feedback loop on a live burst — a
// metro-latency cluster under an offered burst far above the serial ceiling
// must widen its window (visible as real in-flight concurrency), deliver
// everything, and decay back to the serial window once the backlog drains.
func TestAdaptiveGrowsAndDecays(t *testing.T) {
	params := netmodel.Setup2()
	params.Latency = time.Millisecond
	g := newGroup(t, 3, VariantIndirectCT, params, 5, adaptive())
	for i := 1; i <= 3; i++ {
		p := stack.ProcessID(i)
		for s := 0; s < 80; s++ {
			g.Broadcast(p, time.Duration(1+s)*time.Millisecond, fmt.Sprintf("b-%d-%d", i, s))
		}
	}
	g.Run(30 * time.Second)
	g.complete(procs(1, 2, 3))
	grew := false
	for i := 1; i <= 3; i++ {
		st := g.engines[i].Stats()
		if st.MaxInFlight >= 2 {
			grew = true
		}
		if st.Window != 1 {
			t.Fatalf("p%d window did not decay after the burst: %d", i, st.Window)
		}
	}
	if !grew {
		t.Fatalf("no engine widened its pipeline under a 3000 msg/s burst")
	}
}
