package core

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

func correctVariants() []Variant {
	return []Variant{
		VariantConsensusMsgs,
		VariantIndirectCT,
		VariantIndirectMR,
		VariantURBIDs,
	}
}

func allVariants() []Variant {
	return append(correctVariants(), VariantFaultyIDs)
}

// TestFailureFreeBroadcast drives symmetric traffic through every variant
// (including the faulty one, which is correct in failure-free runs) and
// checks all atomic broadcast properties.
func TestFailureFreeBroadcast(t *testing.T) {
	for _, v := range allVariants() {
		for _, n := range []int{3, 5} {
			t.Run(fmt.Sprintf("%v/n=%d", v, n), func(t *testing.T) {
				g := newGroup(t, n, v, netmodel.Setup1(), 7)
				const perProc = 10
				all := procs()
				for i := 1; i <= n; i++ {
					all = append(all, stack.ProcessID(i))
					for s := 1; s <= perProc; s++ {
						g.Broadcast(stack.ProcessID(i),
							time.Duration(s)*5*time.Millisecond+time.Duration(i)*100*time.Microsecond,
							fmt.Sprintf("m-%d-%d", i, s))
					}
				}
				g.Run(30 * time.Second)
				g.complete(all)
			})
		}
	}
}

// TestLazyRBcastVariant exercises the O(n) reliable broadcast beneath the
// indirect stack (the Figure 6/7b configuration).
func TestLazyRBcastVariant(t *testing.T) {
	g := newGroup(t, 3, VariantIndirectCT, netmodel.Setup2(), 11, func(cfg *Config) { cfg.RB = rbcast.KindLazy })
	for i := 1; i <= 3; i++ {
		for s := 1; s <= 5; s++ {
			g.Broadcast(stack.ProcessID(i), time.Duration(s)*3*time.Millisecond, "x")
		}
	}
	g.Run(10 * time.Second)
	g.complete(procs(1, 2, 3))
}

// TestCrashSurvivors crashes one process mid-run; the correct variants must
// keep delivering traffic from the survivors, in total order.
func TestCrashSurvivors(t *testing.T) {
	for _, v := range correctVariants() {
		t.Run(v.String(), func(t *testing.T) {
			n := 3
			if v == VariantIndirectMR {
				n = 4 // f < n/3
			}
			g := newGroup(t, n, v, netmodel.Setup1(), 13)
			crashed := stack.ProcessID(2)
			var alive []stack.ProcessID
			for i := 1; i <= n; i++ {
				if stack.ProcessID(i) != crashed {
					alive = append(alive, stack.ProcessID(i))
				}
			}
			// Pre-crash traffic from everyone.
			for i := 1; i <= n; i++ {
				g.Broadcast(stack.ProcessID(i), 2*time.Millisecond, fmt.Sprintf("pre-%d", i))
			}
			g.w.After(1, 100*time.Millisecond, func() {
				g.w.Crash(crashed, simnet.DeliverInFlight)
			})
			// Post-crash traffic from survivors only.
			for _, p := range alive {
				for s := 0; s < 5; s++ {
					g.Broadcast(p, 300*time.Millisecond+time.Duration(s)*20*time.Millisecond,
						fmt.Sprintf("post-%d-%d", p, s))
				}
			}
			g.Run(20 * time.Second)
			g.complete(alive)
		})
	}
}

// TestValidityViolationFaultyStack reproduces Section 2.2: with an
// unmodified consensus algorithm run directly on message identifiers, a
// single crash can order an identifier whose message no correct process
// holds — blocking delivery forever and violating Validity. The indirect
// stacks, under the *same* adversarial schedule, keep delivering.
//
// Schedule (n = 3, coordinator of round 1 is p2):
//   - p1 and p3 broadcast m1/m3 normally (everyone joins consensus).
//   - p2 broadcasts m; the reliable-broadcast DATA for m is delayed
//     adversarially (reliable channels are not FIFO), while p2's consensus
//     traffic proceeds. p2, as round-1 coordinator, proposes {id(m)}.
//   - The faulty stack's processes ack blindly; id(m) is decided.
//   - p2 crashes; its in-flight DATA is lost (channels only guarantee
//     delivery between correct processes).
func TestValidityViolationFaultyStack(t *testing.T) {
	run := func(v Variant) *group {
		params := netmodel.Setup1()
		// Adversarial asynchrony: p2's reliable-broadcast payloads crawl.
		params.LatencyFn = func(from, to stack.ProcessID, env stack.Envelope) time.Duration {
			if from == 2 && env.Proto == stack.ProtoRB {
				return time.Hour
			}
			return params.Latency
		}
		g := newGroup(t, 3, v, params, 17)
		// Round 0: background traffic so p1/p3 participate in consensus.
		g.Broadcast(1, time.Millisecond, "m1")
		g.Broadcast(3, time.Millisecond, "m3")
		// p2's poisoned broadcast, once the first batch has settled.
		g.Broadcast(2, 50*time.Millisecond, "m")
		// More traffic so p1/p3 propose in the same consensus instance as
		// id(m).
		g.Broadcast(1, 51*time.Millisecond, "m4")
		g.Broadcast(3, 51*time.Millisecond, "m5")
		// p2 crashes well after deciding; everything still in flight from
		// it (the delayed DATA) is lost.
		g.w.After(1, time.Second, func() { g.w.Crash(2, simnet.DropInFlight) })
		g.Run(30 * time.Second)
		return g
	}

	t.Run("faulty-stack-blocks", func(t *testing.T) {
		g := run(VariantFaultyIDs)
		// Both survivors must be stuck waiting for msgs({id(m)}).
		for _, p := range procs(1, 3) {
			if !g.engines[p].Blocked() {
				t.Fatalf("p%d not blocked; the faulty stack should have ordered id(m) without the message", p)
			}
			id, _ := g.engines[p].BlockedOn()
			if id.Sender != 2 {
				t.Fatalf("p%d blocked on %v, want a message of p2", p, id)
			}
			// Validity violated: m4/m5 from correct senders are stuck
			// behind the lost message.
			for _, got := range g.delivered(p) {
				if got == (msg.ID{Sender: 1, Seq: 2}) || got == (msg.ID{Sender: 3, Seq: 2}) {
					t.Fatalf("p%d delivered %v; expected it to be blocked behind id(m)", p, got)
				}
			}
		}
	})

	for _, v := range []Variant{VariantIndirectCT, VariantURBIDs} {
		t.Run(v.String()+"-survives", func(t *testing.T) {
			g := run(v)
			g.complete(procs(1, 3))
			for _, p := range procs(1, 3) {
				if g.engines[p].Blocked() {
					id, _ := g.engines[p].BlockedOn()
					t.Fatalf("p%d blocked on %v; correct stack must not block", p, id)
				}
			}
		})
	}
}

// TestHighLoadBatching verifies that under load the engine batches many
// identifiers per consensus instance rather than running one instance per
// message.
func TestHighLoadBatching(t *testing.T) {
	g := newGroup(t, 3, VariantIndirectCT, netmodel.Setup1(), 23)
	const total = 300
	for s := 0; s < total; s++ {
		p := stack.ProcessID(s%3 + 1)
		g.Broadcast(p, time.Duration(s)*200*time.Microsecond, "x")
	}
	g.Run(30 * time.Second)
	st := g.engines[1].Stats()
	if st.Delivered != total {
		t.Fatalf("delivered %d, want %d", st.Delivered, total)
	}
	if st.Instances >= total {
		t.Fatalf("ran %d consensus instances for %d messages; expected batching", st.Instances, total)
	}
	// Settled consensus instances must be pruned: memory stays bounded
	// regardless of how many instances have run.
	for p := 1; p <= 3; p++ {
		if count := g.engines[p].cons.InstanceCount(); count > 3 {
			t.Fatalf("p%d retains %d consensus instances after %d runs; pruning broken",
				p, count, st.Instances)
		}
	}
}

// TestNoTrafficNoConsensus: without broadcasts the stack must stay quiet
// (no consensus instances).
func TestNoTrafficNoConsensus(t *testing.T) {
	g := newGroup(t, 3, VariantIndirectCT, netmodel.Setup1(), 29)
	g.Run(time.Second)
	if st := g.engines[1].Stats(); st.Instances != 0 {
		t.Fatalf("ran %d instances without traffic", st.Instances)
	}
}

// TestRandomizedSchedules fuzzes seeds, jitter and crash times for each
// correct variant and checks the safety properties on every run.
func TestRandomizedSchedules(t *testing.T) {
	for _, v := range correctVariants() {
		t.Run(v.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				n := 3
				if v == VariantIndirectMR {
					n = 4
				}
				params := netmodel.Setup1()
				params.Jitter = 60 * time.Microsecond
				g := newGroup(t, n, v, params, seed*101)
				for i := 1; i <= n; i++ {
					for s := 0; s < 8; s++ {
						d := time.Duration((int(seed)*37+i*11+s*29)%200) * time.Millisecond
						g.Broadcast(stack.ProcessID(i), d, "r")
					}
				}
				crashAt := time.Duration(50+seed*23) * time.Millisecond
				g.w.After(1, crashAt, func() { g.w.Crash(stack.ProcessID(n), simnet.DropInFlight) })
				g.Run(30 * time.Second)
				var alive []stack.ProcessID
				for i := 1; i < n; i++ {
					alive = append(alive, stack.ProcessID(i))
				}
				g.complete(alive)
			}
		})
	}
}

// TestConfigResolve pins the one place the repair features imply each other —
// Persist ⇒ Snapshot ⇒ Recover — and that resolving never touches the
// caller's RecoverConfig.
func TestConfigResolve(t *testing.T) {
	for _, tc := range []struct {
		name              string
		in                Config
		recover, snapshot bool
	}{
		{"nothing", Config{}, false, false},
		{"Recover alone", Config{Recover: &RecoverConfig{DecisionLogCap: 7}}, true, false},
		{"Snapshot alone", Config{Snapshot: true}, true, true},
		{"Persist alone", Config{Persist: &PersistConfig{}}, true, true},
		{"Persist with a tuned Recover", Config{Persist: &PersistConfig{}, Recover: &RecoverConfig{DecisionLogCap: 7}}, true, true},
	} {
		cfg := tc.in
		cfg.resolve()
		if got := cfg.Recover != nil; got != tc.recover || cfg.Snapshot != tc.snapshot {
			t.Errorf("%s: recovery %v snapshot %v, want %v %v", tc.name, got, cfg.Snapshot, tc.recover, tc.snapshot)
		}
		if (cfg.Persist != nil) != (tc.in.Persist != nil) {
			t.Errorf("%s: resolve toggled Persist", tc.name)
		}
		if tc.in.Recover != nil && (cfg.Recover == tc.in.Recover || cfg.Recover.DecisionLogCap != 7) {
			t.Errorf("%s: the engine's RecoverConfig must be its own copy of the caller's tuning", tc.name)
		}
	}
}
