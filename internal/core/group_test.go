package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"abcast/internal/check"
	"abcast/internal/consensus"
	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/persist"
	"abcast/internal/rbcast"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// group is the one harness of this package's multi-process tests, in csf's
// shape: build the group, drive it on the simulator, assert one whole-system
// predicate. It records what every incarnation of every process delivered,
// what was broadcast and what each process decided, and hands the record to
// the history oracle (internal/check): Run asserts safety after every stretch
// of simulated time, complete asserts delivery at quiescence.
//
// The group owns the timeline only where it must: broadcasts and membership
// changes are timers on the process's own event loop, crashes and restarts
// are timers of the simulation, all relative to now. Partitions, heals and
// timed crashes on a process's loop go through w directly.
type group struct {
	t      testing.TB
	w      *simnet.World
	seed   int64
	v      Variant
	mutate []func(*Config)
	// reopen, if set, makes every process durable: it hands each incarnation
	// of process p its store, checkpointing every interval.
	reopen   func(p int) persist.Store
	interval time.Duration

	engines  []*Engine // index 0 unused; each process's current incarnation
	hist     check.History
	payloads map[msg.ID][]byte
	// due counts the broadcasts scheduled at each process's current
	// incarnation that have not been made yet.
	due []int
	// onDecision, if set, sees each decision right after the group records
	// it, at the instant the process learns it.
	onDecision func(k uint64, v consensus.Value)
}

// newGroup builds n processes running variant v over eager diffusion, the
// rcv check charged at params' per-identifier cost, each Config adjusted by
// mutate in order, p1 first.
func newGroup(t testing.TB, n int, v Variant, params netmodel.Params, seed int64, mutate ...func(*Config)) *group {
	t.Helper()
	return buildGroup(&group{t: t, seed: seed, v: v, mutate: mutate}, n, params)
}

// newDurableGroup builds n indirect-CT processes on Setup 1, each with a
// persistent store from reopen, so that any of them can be restarted.
func newDurableGroup(t testing.TB, n int, seed int64, interval time.Duration, reopen func(p int) persist.Store, mutate ...func(*Config)) *group {
	t.Helper()
	return buildGroup(&group{t: t, seed: seed, v: VariantIndirectCT, mutate: mutate, reopen: reopen, interval: interval},
		n, netmodel.Setup1())
}

func buildGroup(g *group, n int, params netmodel.Params) *group {
	g.t.Helper()
	g.w = simnet.NewWorld(n, params, g.seed)
	g.engines = make([]*Engine, n+1)
	g.hist.Logs = make([][][]msg.ID, n+1)
	g.payloads = make(map[msg.ID][]byte)
	g.due = make([]int, n+1)
	for p := 1; p <= n; p++ {
		g.start(stack.ProcessID(p), g.w.Node(stack.ProcessID(p)))
	}
	return g
}

// start builds a new incarnation of p on node: the wiring a restarted
// process repeats, its store carrying whatever the previous one kept.
func (g *group) start(p stack.ProcessID, node *stack.Node) {
	g.t.Helper()
	cfg := Config{
		Variant:      g.v,
		RB:           rbcast.KindEager,
		RcvCheckCost: g.w.Params().RcvCheckPerID,
		Deliver:      func(app *msg.App) { g.deliver(p, app) },
		OnDecision:   func(k uint64, v consensus.Value) { g.decide(p, k, v) },
	}
	if g.reopen != nil {
		cfg.Persist = &PersistConfig{Store: g.reopen(int(p)), Interval: g.interval}
	}
	for _, m := range g.mutate {
		m(&cfg)
	}
	g.hist.Logs[p] = append(g.hist.Logs[p], nil)
	eng, err := New(node, cfg)
	if err != nil {
		g.t.Fatalf("New(p%d): %v", p, err)
	}
	g.engines[p] = eng
}

func (g *group) deliver(p stack.ProcessID, app *msg.App) {
	logs := g.hist.Logs[p]
	logs[len(logs)-1] = append(logs[len(logs)-1], app.ID)
	if sent, ok := g.payloads[app.ID]; ok && !bytes.Equal(app.Payload, sent) {
		g.t.Errorf("p%d delivered %v as %q, broadcast as %q", p, app.ID, app.Payload, sent)
	}
}

func (g *group) decide(p stack.ProcessID, k uint64, v consensus.Value) {
	g.hist.Decisions = append(g.hist.Decisions, check.Decision{P: p, K: k, Key: v.Key()})
	if g.onDecision != nil {
		g.onDecision(k, v)
	}
}

// delivered is what p's current incarnation has delivered.
func (g *group) delivered(p stack.ProcessID) []msg.ID {
	logs := g.hist.Logs[p]
	return logs[len(logs)-1]
}

// abcast abroadcasts payload at p now and records it. Call it on p's event
// loop.
func (g *group) abcast(p stack.ProcessID, payload []byte) msg.ID {
	id := g.engines[p].ABroadcast(payload)
	g.hist.Broadcast = append(g.hist.Broadcast, id)
	g.payloads[id] = payload
	return id
}

// Broadcast schedules p to abroadcast payload d from now. The timer belongs
// to p's current incarnation: it is dropped if p crashes first.
func (g *group) Broadcast(p stack.ProcessID, d time.Duration, payload string) {
	g.due[p]++
	g.w.After(p, d, func() {
		g.due[p]--
		g.abcast(p, []byte(payload))
	})
}

// Config schedules p to broadcast the membership change ch d from now.
// Configuration messages are not delivered to the application, so they are
// not part of the recorded history.
func (g *group) Config(p stack.ProcessID, d time.Duration, ch msg.ConfigChange) {
	g.w.After(p, d, func() { g.engines[p].BroadcastConfig(ch) })
}

// Crash crashes p d from now.
func (g *group) Crash(p stack.ProcessID, d time.Duration, mode simnet.CrashMode) {
	g.w.Engine().After(d, func() { g.w.Crash(p, mode) })
}

// Restart starts a new incarnation of the crashed p d from now, on the same
// identity and store. then, if set, runs right after, in the new
// incarnation's epoch: the place to schedule its broadcasts.
func (g *group) Restart(p stack.ProcessID, d time.Duration, then func()) {
	g.w.Engine().After(d, func() {
		g.due[p] = 0 // the dead incarnation's timers never fire
		g.start(p, g.w.Restart(p))
		if then != nil {
			then()
		}
	})
}

// Run advances the simulation by d in 400 slices, holding every current
// incarnation's message table to its invariants (checkTable) in between, and
// then asserts the oracle's safety properties over the whole history so far.
func (g *group) Run(d time.Duration) {
	g.t.Helper()
	const cuts = 400
	for i := 0; i < cuts; i++ {
		g.w.RunFor(d / cuts)
		for _, e := range g.engines[1:] {
			checkTable(g.t, e)
		}
	}
	if err := check.Safety(g.hist); err != nil {
		g.t.Fatalf("seed %d: %v", g.seed, err)
	}
}

// complete asserts, at quiescence, that every process in correct has made
// each broadcast scheduled at its current incarnation and delivered every
// message delivered anywhere or broadcast by a process in correct or in
// senders (check.Complete).
func (g *group) complete(correct []stack.ProcessID, senders ...stack.ProcessID) {
	g.t.Helper()
	for _, p := range slices.Concat(correct, senders) {
		if g.due[p] != 0 {
			g.t.Fatalf("seed %d: p%d never made %d of its scheduled broadcasts", g.seed, p, g.due[p])
		}
	}
	if err := check.Complete(g.hist, correct, senders...); err != nil {
		g.t.Fatalf("seed %d: %v", g.seed, err)
	}
}

func procs(ids ...int) []stack.ProcessID {
	out := make([]stack.ProcessID, len(ids))
	for i, id := range ids {
		out[i] = stack.ProcessID(id)
	}
	return out
}

// pipelined is a Config mutator setting the window and batch cap.
func pipelined(w, maxBatch int) func(*Config) {
	return func(cfg *Config) {
		cfg.Pipeline = w
		cfg.MaxBatch = maxBatch
	}
}

// withMembers is a Config mutator setting the initial member set.
func withMembers(members ...stack.ProcessID) func(*Config) {
	return func(cfg *Config) { cfg.Members = members }
}

// withRecovery enables the recovery subsystem with defaults.
func withRecovery(snapshot bool) func(*Config) {
	return func(cfg *Config) { cfg.Recover, cfg.Snapshot = &RecoverConfig{}, snapshot }
}

// freeRcv is a Config mutator that charges nothing for the rcv check.
func freeRcv(cfg *Config) { cfg.RcvCheckCost = 0 }

// TestGroupRestartIsRelative: a restart scheduled from inside the run is
// relative to the instant it is scheduled at, not to the start of the run.
func TestGroupRestartIsRelative(t *testing.T) {
	g := newDurableGroup(t, 3, 1, 50*time.Millisecond, memReopen())
	g.Crash(2, 500*time.Millisecond, simnet.DropInFlight)
	var started time.Duration
	g.w.Engine().After(time.Second, func() {
		g.Restart(2, 500*time.Millisecond, func() { started = at(g.w.Now()) })
	})
	g.Broadcast(1, 2*time.Second, "after")
	g.Run(3 * time.Second)
	if started != 1500*time.Millisecond {
		t.Fatalf("the new incarnation started at %v, want 1.5s", started)
	}
	if incs := len(g.hist.Logs[2]); incs != 2 {
		t.Fatalf("p2 has %d incarnations, want 2", incs)
	}
	g.complete(procs(1, 2, 3))
}
