package core

// Rejoin tests: a restarted incarnation is held out of the group — no
// heartbeat, no proposal — until it knows of no decision it lacks, so the
// survivors never wait for it as a coordinator; in an idle group the hold
// ends once its restart probes are spent. The shape is the csf one: build the
// group, drive it on the simulator, assert a whole-system predicate.

import (
	"fmt"
	"testing"
	"time"

	"abcast/internal/simnet"
	"abcast/internal/stack"
	"abcast/internal/trace"
)

// coordinator is the round-1 coordinator of every consensus instance in a
// static group: coord(1, n) = (1 mod n) + 1.
const coordinator = 2

// at converts a simulated instant to its offset from the start of the run.
func at(t time.Time) time.Duration { return t.Sub(time.Unix(0, 0)) }

// longestSilence is the longest interval without an adelivery at p that
// begins at or after from and ends in (from, to].
func longestSilence(events []trace.Event, p stack.ProcessID, from, to time.Duration) time.Duration {
	longest, prev := time.Duration(0), from
	for _, ev := range events {
		if ev.Kind != trace.KindADeliver || ev.P != p {
			continue
		}
		if t := at(ev.At); t > from && t <= to {
			longest = max(longest, t-prev)
			prev = t
		}
	}
	return longest
}

// hold is what watchHold sees of a restarted incarnation's hold: the last
// poll that found it held, and the first that found it released (0 until
// one does).
type hold struct{ lastHeld, released time.Duration }

// watchHold polls p's current incarnation every millisecond from now until
// its hold ends, failing the test if it proposes anything while held.
func watchHold(t *testing.T, g *group, p stack.ProcessID) *hold {
	h := new(hold)
	var poll func()
	poll = func() {
		e := g.engines[p]
		if e.held == nil {
			h.released = at(g.w.Now())
			return
		}
		if e.maxInFlight != 0 {
			t.Errorf("p%d proposed while held", p)
		}
		h.lastHeld = at(g.w.Now())
		g.w.Engine().After(time.Millisecond, poll)
	}
	poll()
	return h
}

// checkNoProposal fails the test if p recorded a proposal in [from, until].
func checkNoProposal(t *testing.T, events []trace.Event, p stack.ProcessID, from, until time.Duration) {
	t.Helper()
	for _, ev := range events {
		if ev.P == p && ev.Kind == trace.KindPropose && at(ev.At) >= from && at(ev.At) <= until {
			t.Fatalf("p%d proposed to instance %d at %v, while held", p, ev.K, at(ev.At))
		}
	}
}

// TestRestartedCoordinatorNeverWaitedFor: under steady load the round-1
// coordinator crashes and returns 500 ms later, hundreds of instances
// behind. The survivors must not stall while it catches up. At the parent
// they delivered nothing for 165 ms (CT, n = 3) and 192 ms (MR, n = 4) —
// about the whole catch-up — because the returning process was trusted at
// its first heartbeat and coordinated round 1 of every instance with a
// stale proposal. What is left here (≈40 ms) is the survivors' CPU
// retransmitting the 256-envelope relink burst the new incarnation's first
// digest asks for.
//
// Each of two processes broadcasts every 10 ms, so an instance orders about
// one identifier, as on the live_crash_restart workload; at one broadcast
// per millisecond the simulated Setup 1 CPUs (110 µs per message sent or
// received) saturate and batching hides the coordinator.
func TestRestartedCoordinatorNeverWaitedFor(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    Variant
		n    int
	}{{"CT_n3", VariantIndirectCT, 3}, {"MR_n4", VariantIndirectMR, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			testRejoinUnderLoad(t, tc.v, tc.n)
		})
	}
}

func testRejoinUnderLoad(t *testing.T, v Variant, n int) {
	const (
		every     = 10 * time.Millisecond
		crashAt   = time.Second
		restartAt = crashAt + 500*time.Millisecond
		loadEnd   = 3 * time.Second
		// Two heartbeat intervals: a survivor may wait out a consensus round
		// or a payload, never a coordinator.
		maxSilence = 50 * time.Millisecond
	)
	tr := trace.New()
	g := newDurableGroup(t, n, 5, 50*time.Millisecond, memReopen(),
		func(cfg *Config) { cfg.Variant, cfg.Trace = v, tr })
	survivors := []stack.ProcessID{1, 3}
	sent := 0
	for ts := every; ts < loadEnd; ts += every {
		for _, p := range survivors {
			g.Broadcast(p, ts, fmt.Sprintf("m-%d-%d", p, sent))
			sent++
		}
	}
	g.Crash(coordinator, crashAt, simnet.DropInFlight)
	var h *hold
	g.Restart(coordinator, restartAt, func() { h = watchHold(t, g, coordinator) })
	g.Run(loadEnd + 3*time.Second)

	if h.released == 0 || h.released > loadEnd {
		t.Fatalf("p%d released at %v, want before the load ends at %v", coordinator, h.released, loadEnd)
	}
	events := tr.Events()
	checkNoProposal(t, events, coordinator, restartAt, h.lastHeld)
	for _, p := range survivors {
		if gap := longestSilence(events, p, restartAt, loadEnd); gap > maxSilence {
			t.Errorf("p%d delivered nothing for %v after the restart, want ≤ %v", p, gap, maxSilence)
		}
		if g.engines[p].cfg.Detector.Suspects(coordinator) {
			t.Errorf("p%d still suspects the rejoined p%d", p, coordinator)
		}
	}
	for p := 1; p <= n; p++ {
		if st := g.engines[p].Stats(); st.Delivered != sent {
			t.Fatalf("p%d delivered %d, want %d", p, st.Delivered, sent)
		}
	}
	g.complete(procs(1, 2, 3, 4)[:n])
}

// TestRestartIntoIdleGroupRejoins: with nothing to catch up on, the hold ends
// once the restart probes are spent — there is no permanent hold — and a
// later broadcast is ordered in round 1, the rejoined process coordinating:
// it is delivered everywhere well inside the 180 ms a trusted round-1
// coordinator that never proposed would cost (the suspicion timeout after
// one wrong suspicion). A restarted engine's detector sends nothing at
// construction; a fresh one's heartbeat leaves at construction, as it always
// has.
func TestRestartIntoIdleGroupRejoins(t *testing.T) {
	const (
		crashAt   = time.Second
		restartAt = crashAt + 500*time.Millisecond
		probeAt   = restartAt + time.Second
	)
	tr := trace.New()
	g := newDurableGroup(t, 3, 9, 50*time.Millisecond, memReopen(),
		func(cfg *Config) { cfg.Trace = tr })
	for p := 1; p <= 3; p++ {
		if g.engines[p].held != nil {
			t.Fatalf("fresh p%d is held", p)
		}
	}
	if got := g.w.MsgsSent(); got != 3*2 {
		t.Fatalf("%d messages sent at construction, want one heartbeat to each peer (6)", got)
	}
	for s := 0; s < 20; s++ {
		g.Broadcast(stack.ProcessID(1+s%3), time.Duration(s)*20*time.Millisecond, fmt.Sprintf("a-%d", s))
	}
	g.Crash(coordinator, crashAt, simnet.DropInFlight)
	var before int64
	g.w.Engine().After(restartAt, func() { before = g.w.MsgsSent() })
	var h *hold
	g.Restart(coordinator, restartAt, func() {
		if g.engines[coordinator].held == nil {
			t.Errorf("restarted p%d is not held", coordinator)
		}
		if sent := g.w.MsgsSent() - before; sent != 0 {
			t.Errorf("restarted p%d sent %d messages at construction, want none", coordinator, sent)
		}
		h = watchHold(t, g, coordinator)
	})
	suspected := false
	g.w.Engine().After(probeAt, func() {
		suspected = g.engines[1].cfg.Detector.Suspects(coordinator) || g.engines[3].cfg.Detector.Suspects(coordinator)
		g.abcast(1, []byte("probe"))
	})
	g.Run(probeAt + 2*time.Second)

	// 2n probes at catchupDelay, plus a round trip or two.
	if h.released == 0 || h.released > restartAt+200*time.Millisecond {
		t.Fatalf("p%d released at %v, want within 200 ms of its restart at %v", coordinator, h.released, restartAt)
	}
	if suspected {
		t.Fatalf("a survivor still suspects p%d a second after it rejoined", coordinator)
	}
	var k uint64
	delivered := map[stack.ProcessID]time.Duration{}
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindADeliver && at(ev.At) >= probeAt {
			delivered[ev.P] = at(ev.At)
			k = ev.K
		}
	}
	for p := stack.ProcessID(1); p <= 3; p++ {
		if d, ok := delivered[p]; !ok || d-probeAt > 50*time.Millisecond {
			t.Fatalf("p%d delivered the probe after %v (ok=%v), want round 1: ≤ 50 ms", p, d-probeAt, ok)
		}
	}
	proposed := false
	for _, ev := range tr.Events() {
		proposed = proposed || (ev.P == coordinator && ev.Kind == trace.KindPropose && ev.K == k)
	}
	if !proposed {
		t.Fatalf("p%d did not propose to instance %d, which ordered the probe", coordinator, k)
	}
	g.complete(procs(1, 2, 3))
}

// TestHeldProcessCompletesQuorum: a held process never leaves a quorum short.
// Pipelined, decisions can arrive out of order, and the decide-relay hands
// the restarted p2 decisions past an instance still open at p1. If p3 then
// crashes, that instance needs p2's vote — while the hole it leaves in p2's
// pending set is what keeps p2 held. A hold that waited for the hole alone
// would stall the group for good with a majority alive. Once p2 suspects p3,
// the peers it trusts are no quorum without it, so the hold ends: p1 and p2
// decide the open instance, and every later broadcast of p1 is delivered.
func TestHeldProcessCompletesQuorum(t *testing.T) {
	const (
		every     = 2 * time.Millisecond
		crashAt   = time.Second
		restartAt = crashAt + 500*time.Millisecond
		loadEnd   = 3 * time.Second
	)
	tr := trace.New()
	g := newDurableGroup(t, 3, 11, 50*time.Millisecond, memReopen(),
		func(cfg *Config) { cfg.Pipeline, cfg.Trace = 8, tr })
	for ts, s := every, 0; ts < loadEnd; ts, s = ts+every, s+1 {
		g.Broadcast(1, ts, fmt.Sprintf("m-1-%d", s))
		g.Broadcast(3, ts, fmt.Sprintf("m-3-%d", s))
	}
	g.Crash(coordinator, crashAt, simnet.DropInFlight)
	// While p2 is held, cut p3 off for a millisecond every 20 ms: a decision
	// lost in the cut leaves p1 holding later ones until relink repairs the
	// loss. The first instant p1 has such a hole that p2 shares, p3 crashes,
	// and the hole's instance is decided nowhere alive.
	undecided := func(e *Engine, k uint64) bool {
		_, ok := e.pending[k]
		return k >= e.kNext && !ok
	}
	var (
		hole       uint64
		heldPast   bool // p2, held, held a decision past the hole
		h          *hold
		watch, cut func()
	)
	watch = func() {
		p1, p2 := g.engines[1], g.engines[coordinator]
		if p2.held == nil {
			return
		}
		if hole == 0 {
			if k := p1.kNext; len(p1.pending) > 0 && undecided(p2, k) {
				hole = k
				g.w.Heal()
				g.w.Crash(3, simnet.DropInFlight)
			}
		} else if undecided(p2, hole) {
			for k := range p2.pending {
				heldPast = heldPast || k > hole
			}
		}
		g.w.Engine().After(100*time.Microsecond, watch)
	}
	cut = func() {
		if hole != 0 || g.engines[coordinator].held == nil {
			return
		}
		g.w.Partition(simnet.PartitionDrop, []stack.ProcessID{1, coordinator}, []stack.ProcessID{3})
		g.w.Engine().After(time.Millisecond, g.w.Heal)
		g.w.Engine().After(20*time.Millisecond, cut)
	}
	g.Restart(coordinator, restartAt, func() {
		h = watchHold(t, g, coordinator)
		watch()
		cut()
	})
	g.Run(loadEnd + 3*time.Second)

	if !heldPast {
		t.Fatalf("held p%d never held a decision past an instance open at p1 when p3 crashed (hole %d); the case is not exercised", coordinator, hole)
	}
	if h.released == 0 {
		t.Fatalf("p%d still held at the end: instance %d was never decided", coordinator, hole)
	}
	checkNoProposal(t, tr.Events(), coordinator, restartAt, h.lastHeld)
	g.complete(procs(1, coordinator))
}

// TestLoneProcessRestartRejoins: a restarted process whose vote every quorum
// needs — the only process, one of two, or the only member of its view — is
// not held: New releases it at once. Each orders a broadcast made after the
// restart.
func TestLoneProcessRestartRejoins(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		members []stack.ProcessID
	}{{"n1", 1, nil}, {"n2", 2, nil}, {"view1", 3, []stack.ProcessID{1}}} {
		t.Run(tc.name, func(t *testing.T) {
			g := newDurableGroup(t, tc.n, 3, 50*time.Millisecond, memReopen(),
				func(cfg *Config) { cfg.Members = tc.members })
			g.Broadcast(1, 10*time.Millisecond, "before")
			g.Crash(1, 500*time.Millisecond, simnet.DropInFlight)
			g.Restart(1, time.Second, func() {
				if g.engines[1].held != nil {
					t.Errorf("restarted p1 is held, with no quorum that could do without it")
				}
				g.Broadcast(1, 10*time.Millisecond, "after")
			})
			g.Run(3 * time.Second)
			if got := g.delivered(1); len(got) == 0 || string(g.payloads[got[len(got)-1]]) != "after" {
				t.Fatalf("restarted p1 delivered %v since its restart, want the broadcast made after it", got)
			}
		})
	}
}
