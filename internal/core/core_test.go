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

// cluster is an n-process atomic broadcast system under the simulator.
type cluster struct {
	w         *simnet.World
	engines   []*Engine  // index 0 unused
	delivered [][]msg.ID // per-process delivery order
	payloads  []map[msg.ID]string
}

// newCluster builds a cluster with heartbeat failure detectors, so crashes
// are discovered organically. Optional mutators adjust each process's
// Config before construction (e.g. to enable pipelining).
func newCluster(t *testing.T, n int, variant Variant, rb rbcast.Kind, params netmodel.Params, seed int64, mutate ...func(*Config)) *cluster {
	t.Helper()
	c := &cluster{
		w:         simnet.NewWorld(n, params, seed),
		engines:   make([]*Engine, n+1),
		delivered: make([][]msg.ID, n+1),
		payloads:  make([]map[msg.ID]string, n+1),
	}
	for i := 1; i <= n; i++ {
		i := i
		c.payloads[i] = make(map[msg.ID]string)
		node := c.w.Node(stack.ProcessID(i))
		cfg := Config{
			Variant:      variant,
			RB:           rb,
			RcvCheckCost: params.RcvCheckPerID,
			Deliver: func(app *msg.App) {
				c.delivered[i] = append(c.delivered[i], app.ID)
				c.payloads[i][app.ID] = string(app.Payload)
			},
		}
		for _, m := range mutate {
			m(&cfg)
		}
		eng, err := New(node, cfg)
		if err != nil {
			t.Fatalf("New(p%d): %v", i, err)
		}
		c.engines[i] = eng
	}
	return c
}

// pipelined is a Config mutator setting the window and batch cap.
func pipelined(w, maxBatch int) func(*Config) {
	return func(cfg *Config) {
		cfg.Pipeline = w
		cfg.MaxBatch = maxBatch
	}
}

// abcast schedules process p to atomically broadcast payload after d.
func (c *cluster) abcast(p stack.ProcessID, d time.Duration, payload string) {
	c.w.After(p, d, func() { c.engines[p].ABroadcast([]byte(payload)) })
}

// checkTotalOrder verifies that for every pair of processes in procs, one
// delivery sequence is a prefix of the other (Uniform total order).
func (c *cluster) checkTotalOrder(t *testing.T, procs []stack.ProcessID) {
	t.Helper()
	for i := 0; i < len(procs); i++ {
		for j := i + 1; j < len(procs); j++ {
			a, b := c.delivered[procs[i]], c.delivered[procs[j]]
			short := a
			if len(b) < len(a) {
				short = b
			}
			for x := range short {
				if a[x] != b[x] {
					t.Fatalf("total order violated: p%d[%d]=%v, p%d[%d]=%v",
						procs[i], x, a[x], procs[j], x, b[x])
				}
			}
		}
	}
}

// checkIntegrity verifies at-most-once delivery per process.
func (c *cluster) checkIntegrity(t *testing.T, procs []stack.ProcessID) {
	t.Helper()
	for _, p := range procs {
		seen := make(map[msg.ID]bool, len(c.delivered[p]))
		for _, id := range c.delivered[p] {
			if seen[id] {
				t.Fatalf("uniform integrity violated: p%d delivered %v twice", p, id)
			}
			seen[id] = true
		}
	}
}

// checkDelivers verifies every process in procs delivered all ids in want.
func (c *cluster) checkDelivers(t *testing.T, procs []stack.ProcessID, want []msg.ID) {
	t.Helper()
	for _, p := range procs {
		have := make(map[msg.ID]bool, len(c.delivered[p]))
		for _, id := range c.delivered[p] {
			have[id] = true
		}
		for _, id := range want {
			if !have[id] {
				t.Fatalf("validity/agreement violated: p%d never delivered %v (delivered %d msgs)",
					p, id, len(c.delivered[p]))
			}
		}
	}
}

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

func procs(ids ...int) []stack.ProcessID {
	out := make([]stack.ProcessID, len(ids))
	for i, id := range ids {
		out[i] = stack.ProcessID(id)
	}
	return out
}

// TestFailureFreeBroadcast drives symmetric traffic through every variant
// (including the faulty one, which is correct in failure-free runs) and
// checks all atomic broadcast properties.
func TestFailureFreeBroadcast(t *testing.T) {
	for _, v := range allVariants() {
		for _, n := range []int{3, 5} {
			t.Run(fmt.Sprintf("%v/n=%d", v, n), func(t *testing.T) {
				c := newCluster(t, n, v, rbcast.KindEager, netmodel.Setup1(), 7)
				var want []msg.ID
				const perProc = 10
				for i := 1; i <= n; i++ {
					for s := 1; s <= perProc; s++ {
						c.abcast(stack.ProcessID(i),
							time.Duration(s)*5*time.Millisecond+time.Duration(i)*100*time.Microsecond,
							fmt.Sprintf("m-%d-%d", i, s))
						want = append(want, msg.ID{Sender: stack.ProcessID(i), Seq: uint64(s)})
					}
				}
				c.w.RunFor(30 * time.Second)
				all := procs()
				for i := 1; i <= n; i++ {
					all = append(all, stack.ProcessID(i))
				}
				c.checkDelivers(t, all, want)
				c.checkTotalOrder(t, all)
				c.checkIntegrity(t, all)
			})
		}
	}
}

// TestLazyRBcastVariant exercises the O(n) reliable broadcast beneath the
// indirect stack (the Figure 6/7b configuration).
func TestLazyRBcastVariant(t *testing.T) {
	c := newCluster(t, 3, VariantIndirectCT, rbcast.KindLazy, netmodel.Setup2(), 11)
	var want []msg.ID
	for i := 1; i <= 3; i++ {
		for s := 1; s <= 5; s++ {
			c.abcast(stack.ProcessID(i), time.Duration(s)*3*time.Millisecond, "x")
			want = append(want, msg.ID{Sender: stack.ProcessID(i), Seq: uint64(s)})
		}
	}
	c.w.RunFor(10 * time.Second)
	c.checkDelivers(t, procs(1, 2, 3), want)
	c.checkTotalOrder(t, procs(1, 2, 3))
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
			c := newCluster(t, n, v, rbcast.KindEager, netmodel.Setup1(), 13)
			crashed := stack.ProcessID(2)
			var want []msg.ID
			var alive []stack.ProcessID
			for i := 1; i <= n; i++ {
				if stack.ProcessID(i) != crashed {
					alive = append(alive, stack.ProcessID(i))
				}
			}
			// Pre-crash traffic from everyone.
			for i := 1; i <= n; i++ {
				c.abcast(stack.ProcessID(i), 2*time.Millisecond, fmt.Sprintf("pre-%d", i))
			}
			c.w.After(1, 100*time.Millisecond, func() {
				c.w.Crash(crashed, simnet.DeliverInFlight)
			})
			// Post-crash traffic from survivors only.
			for _, p := range alive {
				for s := 0; s < 5; s++ {
					c.abcast(p, 300*time.Millisecond+time.Duration(s)*20*time.Millisecond,
						fmt.Sprintf("post-%d-%d", p, s))
				}
			}
			for _, p := range alive {
				want = append(want, msg.ID{Sender: p, Seq: 1})
				for s := uint64(2); s <= 6; s++ {
					want = append(want, msg.ID{Sender: p, Seq: s})
				}
			}
			c.w.RunFor(20 * time.Second)
			c.checkDelivers(t, alive, want)
			c.checkTotalOrder(t, alive)
			c.checkIntegrity(t, alive)
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
	run := func(v Variant) (*cluster, []msg.ID) {
		params := netmodel.Setup1()
		// Adversarial asynchrony: p2's reliable-broadcast payloads crawl.
		params.LatencyFn = func(from, to stack.ProcessID, env stack.Envelope) time.Duration {
			if from == 2 && env.Proto == stack.ProtoRB {
				return time.Hour
			}
			return params.Latency
		}
		c := newCluster(t, 3, v, rbcast.KindEager, params, 17)
		// Round 0: background traffic so p1/p3 participate in consensus.
		c.abcast(1, time.Millisecond, "m1")
		c.abcast(3, time.Millisecond, "m3")
		// p2's poisoned broadcast, once the first batch has settled.
		c.abcast(2, 50*time.Millisecond, "m")
		// More traffic so p1/p3 propose in the same consensus instance as
		// id(m).
		c.abcast(1, 51*time.Millisecond, "m4")
		c.abcast(3, 51*time.Millisecond, "m5")
		// p2 crashes well after deciding; everything still in flight from
		// it (the delayed DATA) is lost.
		c.w.After(1, time.Second, func() { c.w.Crash(2, simnet.DropInFlight) })
		c.w.RunFor(30 * time.Second)
		want := []msg.ID{
			{Sender: 1, Seq: 1}, {Sender: 3, Seq: 1}, // m1, m3
			{Sender: 1, Seq: 2}, {Sender: 3, Seq: 2}, // m4, m5
		}
		return c, want
	}

	t.Run("faulty-stack-blocks", func(t *testing.T) {
		c, _ := run(VariantFaultyIDs)
		// Both survivors must be stuck waiting for msgs({id(m)}).
		for _, p := range procs(1, 3) {
			if !c.engines[p].Blocked() {
				t.Fatalf("p%d not blocked; the faulty stack should have ordered id(m) without the message", p)
			}
			id, _ := c.engines[p].BlockedOn()
			if id.Sender != 2 {
				t.Fatalf("p%d blocked on %v, want a message of p2", p, id)
			}
			// Validity violated: m4/m5 from correct senders are stuck
			// behind the lost message.
			for _, got := range c.delivered[p] {
				if got == (msg.ID{Sender: 1, Seq: 2}) || got == (msg.ID{Sender: 3, Seq: 2}) {
					t.Fatalf("p%d delivered %v; expected it to be blocked behind id(m)", p, got)
				}
			}
		}
	})

	for _, v := range []Variant{VariantIndirectCT, VariantURBIDs} {
		t.Run(v.String()+"-survives", func(t *testing.T) {
			c, want := run(v)
			c.checkDelivers(t, procs(1, 3), want)
			c.checkTotalOrder(t, procs(1, 3))
			for _, p := range procs(1, 3) {
				if c.engines[p].Blocked() {
					id, _ := c.engines[p].BlockedOn()
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
	c := newCluster(t, 3, VariantIndirectCT, rbcast.KindEager, netmodel.Setup1(), 23)
	const total = 300
	for s := 0; s < total; s++ {
		p := stack.ProcessID(s%3 + 1)
		c.abcast(p, time.Duration(s)*200*time.Microsecond, "x")
	}
	c.w.RunFor(30 * time.Second)
	st := c.engines[1].Stats()
	if st.Delivered != total {
		t.Fatalf("delivered %d, want %d", st.Delivered, total)
	}
	if st.Instances >= total {
		t.Fatalf("ran %d consensus instances for %d messages; expected batching", st.Instances, total)
	}
	c.checkTotalOrder(t, procs(1, 2, 3))
	// Settled consensus instances must be pruned: memory stays bounded
	// regardless of how many instances have run.
	for p := 1; p <= 3; p++ {
		if count := c.engines[p].cons.InstanceCount(); count > 3 {
			t.Fatalf("p%d retains %d consensus instances after %d runs; pruning broken",
				p, count, st.Instances)
		}
	}
}

// TestNoTrafficNoConsensus: without broadcasts the stack must stay quiet
// (no consensus instances).
func TestNoTrafficNoConsensus(t *testing.T) {
	c := newCluster(t, 3, VariantIndirectCT, rbcast.KindEager, netmodel.Setup1(), 29)
	c.w.RunFor(time.Second)
	if st := c.engines[1].Stats(); st.Instances != 0 {
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
				c := newCluster(t, n, v, rbcast.KindEager, params, seed*101)
				for i := 1; i <= n; i++ {
					for s := 0; s < 8; s++ {
						d := time.Duration((int(seed)*37+i*11+s*29)%200) * time.Millisecond
						c.abcast(stack.ProcessID(i), d, "r")
					}
				}
				crashAt := time.Duration(50+seed*23) * time.Millisecond
				c.w.After(1, crashAt, func() { c.w.Crash(stack.ProcessID(n), simnet.DropInFlight) })
				c.w.RunFor(30 * time.Second)
				var alive []stack.ProcessID
				for i := 1; i < n; i++ {
					alive = append(alive, stack.ProcessID(i))
				}
				c.checkTotalOrder(t, alive)
				c.checkIntegrity(t, alive)
				// Uniform agreement at quiescence: survivors delivered
				// the same set.
				base := len(c.delivered[alive[0]])
				for _, p := range alive[1:] {
					if len(c.delivered[p]) != base {
						t.Fatalf("seed %d: survivors delivered %d vs %d messages",
							seed, base, len(c.delivered[p]))
					}
				}
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
