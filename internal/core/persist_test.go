package core

// Persistence tests: bounded memory under checkpoint pruning, crash-recovery
// restart from a checkpoint (memory- and file-backed stores), repair-target
// preference, and the long soak asserting a flat memory profile across
// crash/restart churn and partition episodes.
//
// All runs use RunFor, never Run: the checkpoint timer re-arms forever, so a
// persistent world never goes idle.

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/persist"
	"abcast/internal/rbcast"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// pcluster is an n-process system where every process runs with a persistent
// store and can be crashed and restarted as a fresh incarnation on the same
// store and identity.
type pcluster struct {
	t        *testing.T
	w        *simnet.World
	params   netmodel.Params
	interval time.Duration
	rb       rbcast.Kind
	// reopen returns the store for process p's next incarnation: the same
	// MemStore across incarnations, or a fresh FileStore handle on the same
	// directory (what a real restarted OS process would do).
	reopen func(p int) persist.Store
	// tweaks adjust every incarnation's configuration (variant, trace).
	tweaks []func(*Config)

	engines   []*Engine           // index 0 unused; current incarnation
	delivered [][]msg.ID          // cumulative across incarnations
	inc       [][]msg.ID          // current incarnation only (reset at restart)
	payloads  []map[msg.ID]string // cumulative
}

func newPersistCluster(t *testing.T, n int, seed int64, interval time.Duration, rb rbcast.Kind, reopen func(p int) persist.Store, tweaks ...func(*Config)) *pcluster {
	t.Helper()
	params := netmodel.Setup1()
	c := &pcluster{
		t:         t,
		w:         simnet.NewWorld(n, params, seed),
		params:    params,
		interval:  interval,
		rb:        rb,
		reopen:    reopen,
		tweaks:    tweaks,
		engines:   make([]*Engine, n+1),
		delivered: make([][]msg.ID, n+1),
		inc:       make([][]msg.ID, n+1),
		payloads:  make([]map[msg.ID]string, n+1),
	}
	for i := 1; i <= n; i++ {
		c.payloads[i] = make(map[msg.ID]string)
		c.startProc(i, c.w.Node(stack.ProcessID(i)))
	}
	return c
}

// startProc builds one incarnation of process p on the given node: the full
// stack wiring a restarted process repeats, with the store carrying whatever
// the previous incarnation checkpointed.
func (c *pcluster) startProc(p int, node *stack.Node) {
	c.t.Helper()
	cfg := Config{
		Variant:      VariantIndirectCT,
		RB:           c.rb,
		RcvCheckCost: c.params.RcvCheckPerID,
		Persist:      &PersistConfig{Store: c.reopen(p), Interval: c.interval},
		Deliver: func(app *msg.App) {
			c.delivered[p] = append(c.delivered[p], app.ID)
			c.inc[p] = append(c.inc[p], app.ID)
			c.payloads[p][app.ID] = string(app.Payload)
		},
	}
	for _, tweak := range c.tweaks {
		tweak(&cfg)
	}
	eng, err := New(node, cfg)
	if err != nil {
		c.t.Fatalf("New(p%d): %v", p, err)
	}
	c.engines[p] = eng
}

// abcast schedules a broadcast on p's event loop. The timer belongs to p's
// current incarnation: it is dropped if p crashes before it fires.
func (c *pcluster) abcast(p int, d time.Duration, payload string) {
	c.w.After(stack.ProcessID(p), d, func() { c.engines[p].ABroadcast([]byte(payload)) })
}

// restartAt schedules a restart of p at absolute simulation time `at`,
// rebuilding the stack on the fresh node. `then` (optional) runs right after,
// in the new incarnation's epoch — the place to schedule its broadcasts.
func (c *pcluster) restartAt(p int, at time.Duration, then func()) {
	c.w.Engine().After(at, func() {
		node := c.w.Restart(stack.ProcessID(p))
		c.inc[p] = nil
		c.startProc(p, node)
		if then != nil {
			then()
		}
	})
}

// checkSamePrefix verifies one delivery sequence is a prefix of the other.
func checkSamePrefix(t *testing.T, a, b []msg.ID, la, lb string) {
	t.Helper()
	short := a
	if len(b) < len(a) {
		short = b
	}
	for i := range short {
		if a[i] != b[i] {
			t.Fatalf("total order violated: %s[%d]=%v, %s[%d]=%v", la, i, a[i], lb, i, b[i])
		}
	}
}

// checkIncarnationSuffix verifies a restarted incarnation's delivery sequence
// equals the tail of the canonical order: redelivery resumes at the checkpoint
// frontier and continues in unchanged total order through quiescence.
func checkIncarnationSuffix(t *testing.T, full, tail []msg.ID, label string) {
	t.Helper()
	if len(tail) == 0 {
		t.Fatalf("%s delivered nothing after restart", label)
	}
	if len(tail) > len(full) {
		t.Fatalf("%s delivered %d after restart, more than the canonical %d", label, len(tail), len(full))
	}
	off := len(full) - len(tail)
	for i := range tail {
		if tail[i] != full[off+i] {
			t.Fatalf("%s post-restart order diverges at %d: got %v, canonical %v",
				label, i, tail[i], full[off+i])
		}
	}
	seen := make(map[msg.ID]bool, len(tail))
	for _, id := range tail {
		if seen[id] {
			t.Fatalf("%s delivered %v twice within one incarnation", label, id)
		}
		seen[id] = true
	}
}

// memReopen returns a reopen func sharing one MemStore per process across
// incarnations (restart within the OS process).
func memReopen() func(p int) persist.Store {
	stores := map[int]*persist.MemStore{}
	return func(p int) persist.Store {
		s := stores[p]
		if s == nil {
			s = persist.NewMemStore()
			stores[p] = s
		}
		s.Reopen()
		return s
	}
}

// fileReopen returns a reopen func opening a fresh FileStore handle on the
// same per-process directory each incarnation (restart across OS processes).
func fileReopen(t *testing.T) func(p int) persist.Store {
	base := t.TempDir()
	return func(p int) persist.Store {
		s, err := persist.OpenFileStore(filepath.Join(base, fmt.Sprintf("p%d", p)))
		if err != nil {
			t.Fatalf("open file store p%d: %v", p, err)
		}
		return s
	}
}

// TestPersistBoundedMemory drives steady traffic with checkpointing on and
// verifies the delivered prefix is pruned: received payloads, the retained
// delivered-log suffix and what the diffusion layer keeps (the lazy broadcast
// holds every unrelayed payload until the engine releases it) end far below
// the total delivered, while delivery itself stays complete, totally
// ordered, and counted in full.
func TestPersistBoundedMemory(t *testing.T) {
	c := newPersistCluster(t, 3, 7, 50*time.Millisecond, rbcast.KindLazy, memReopen())
	const total = 900
	for s := 0; s < total; s++ {
		c.abcast(s%3+1, time.Duration(s)*5*time.Millisecond, fmt.Sprintf("m-%d", s))
	}
	runChecked(t, c.w, c.engines, 30*time.Second)
	for p := 1; p <= 3; p++ {
		st := c.engines[p].Stats()
		if st.Delivered != total {
			t.Fatalf("p%d delivered %d, want %d", p, st.Delivered, total)
		}
		ckpts, prunes, errs := c.engines[p].PersistStats()
		if ckpts == 0 || prunes == 0 {
			t.Fatalf("p%d: ckpts=%d prunes=%d; persistence idle", p, ckpts, prunes)
		}
		if errs != 0 {
			t.Fatalf("p%d: %d store errors", p, errs)
		}
		if st.LogBase == 0 {
			t.Fatalf("p%d: logBase never advanced", p)
		}
		o := c.engines[p].Observe()
		if kept := c.engines[p].rb.Retained(); o.Received > total/4 || o.DeliveredLog > total/4 || kept > total/4 {
			t.Fatalf("p%d: memory not bounded: received=%d deliveredLog=%d diffusion=%d of %d delivered",
				p, o.Received, o.DeliveredLog, kept, total)
		}
	}
	checkSamePrefix(t, c.delivered[1], c.delivered[2], "p1", "p2")
	checkSamePrefix(t, c.delivered[1], c.delivered[3], "p1", "p3")
}

// testRestart is the crash-recovery property shared by the store-backed
// variants: p2 is crashed mid-run (in-flight traffic dropped), traffic
// continues without it, and a fresh incarnation on the same store must
// re-converge — full delivery of everything including messages it missed
// while down, post-restart order equal to the canonical tail, and new
// broadcasts under fresh (non-aliasing) sequence numbers.
func testRestart(t *testing.T, reopen func(p int) persist.Store) {
	c := newPersistCluster(t, 3, 11, 50*time.Millisecond, rbcast.KindEager, reopen)
	var want []string
	send := func(p int, d time.Duration, payload string) {
		c.abcast(p, d, payload)
		want = append(want, payload)
	}
	// Phase 1: everyone broadcasts; p2 checkpoints some of it.
	for i := 1; i <= 3; i++ {
		for s := 0; s < 15; s++ {
			send(i, time.Duration(s*100+i*7)*time.Millisecond, fmt.Sprintf("a-%d-%d", i, s))
		}
	}
	c.w.Engine().After(2*time.Second, func() { c.w.Crash(2, simnet.DropInFlight) })
	// Phase 2: the survivors keep the total order moving while p2 is down.
	for _, p := range []int{1, 3} {
		for s := 0; s < 15; s++ {
			send(p, 2500*time.Millisecond+time.Duration(s*100+p*7)*time.Millisecond, fmt.Sprintf("b-%d-%d", p, s))
		}
	}
	// Restart at 5s; the new incarnation also broadcasts (phase 3) — those
	// messages must get fresh sequence numbers (the WAL'd counter), or they
	// would alias pre-crash identifiers and be deduplicated away.
	c.restartAt(2, 5*time.Second, func() {
		for s := 0; s < 5; s++ {
			c.abcast(2, 2*time.Second+time.Duration(s*100)*time.Millisecond, fmt.Sprintf("c-2-%d", s))
		}
	})
	for s := 0; s < 5; s++ {
		want = append(want, fmt.Sprintf("c-2-%d", s))
		send(1, 7*time.Second+time.Duration(s*100)*time.Millisecond, fmt.Sprintf("c-1-%d", s))
	}
	runChecked(t, c.w, c.engines, 60*time.Second)

	for p := 1; p <= 3; p++ {
		have := make(map[string]bool, len(c.payloads[p]))
		for _, pl := range c.payloads[p] {
			have[pl] = true
		}
		for _, w := range want {
			if !have[w] {
				t.Fatalf("no loss violated: p%d never delivered %q", p, w)
			}
		}
		if st := c.engines[p].Stats(); st.Delivered != len(want) {
			t.Fatalf("p%d delivered %d, want %d", p, st.Delivered, len(want))
		}
		if _, _, errs := c.engines[p].PersistStats(); errs != 0 {
			t.Fatalf("p%d: %d store errors", p, errs)
		}
	}
	checkSamePrefix(t, c.delivered[1], c.delivered[3], "p1", "p3")
	checkIncarnationSuffix(t, c.delivered[1], c.inc[2], "p2")
}

func TestRestartFromCheckpointMem(t *testing.T) {
	testRestart(t, memReopen())
}

func TestRestartFromCheckpointFile(t *testing.T) {
	testRestart(t, fileReopen(t))
}

// TestNextPeerPrefersConfigured pins the repair-target preference both
// rotating repair paths (payload fetch, decision sync — and through the
// latter, snapshot producer selection) share: preferred peers come first,
// the rotation still covers everyone, self and unknown entries are ignored,
// and an empty preference leaves the historical rotation untouched.
func TestNextPeerPrefersConfigured(t *testing.T) {
	pref := newCluster(t, 4, VariantIndirectCT, rbcast.KindEager, netmodel.Setup1(), 3,
		func(cfg *Config) {
			cfg.Recover = &RecoverConfig{}
			cfg.PreferPeers = []stack.ProcessID{1, 3, 9}
		})
	e := pref.engines[1]
	if got := e.nextPeer(0); got != 3 {
		t.Fatalf("first repair target %v, want preferred peer 3", got)
	}
	seen := map[stack.ProcessID]bool{}
	for a := 0; a < 6; a++ {
		q := e.nextPeer(a)
		if q == 1 || q == 0 {
			t.Fatalf("attempt %d returned %v", a, q)
		}
		seen[q] = true
	}
	if len(seen) != 3 {
		t.Fatalf("rotation covered %d peers, want 3", len(seen))
	}

	plain := newCluster(t, 4, VariantIndirectCT, rbcast.KindEager, netmodel.Setup1(), 3,
		func(cfg *Config) { cfg.Recover = &RecoverConfig{} })
	for a := 0; a < 6; a++ {
		want := stack.ProcessID((1+a%3)%4 + 1)
		if got := plain.engines[1].nextPeer(a); got != want {
			t.Fatalf("empty preference changed the rotation: attempt %d got %v, want %v", a, got, want)
		}
	}
}

// TestPersistSoakFlatMemory is the long-haul property: hours of simulated
// time of steady traffic with checkpointing on, under repeated crash/restart
// churn and partition episodes. The engine's payload table and delivered-log
// suffix and what the diffusion layer retains, sampled every simulated
// minute, must stay flat — bounded by repair horizons, not by history —
// while delivery stays complete and totally ordered across every restart.
func TestPersistSoakFlatMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: hours of simulated time")
	}
	c := newPersistCluster(t, 3, 17, 200*time.Millisecond, rbcast.KindEager, memReopen())
	const dur = 2 * time.Hour

	// Steady traffic from p1 (never crashed; its delivery log is canonical).
	sent := 0
	for ts := time.Second; ts < dur-time.Minute; ts += time.Second {
		c.abcast(1, ts, fmt.Sprintf("s-%d", sent))
		sent++
	}

	// Churn: every 10 minutes, crash p2 or p3 (alternating) for 30 seconds,
	// then restart it from its checkpoint; each fresh incarnation broadcasts
	// a probe, proving restarted senders keep Validity.
	probes := 0
	victim := 2
	for at := 5 * time.Minute; at < dur-10*time.Minute; at += 10 * time.Minute {
		v := victim
		victim = 5 - victim
		c.w.Engine().After(at, func() { c.w.Crash(stack.ProcessID(v), simnet.DropInFlight) })
		probe := fmt.Sprintf("r-%d-%d", v, probes)
		probes++
		c.restartAt(v, at+30*time.Second, func() {
			c.abcast(v, time.Second, probe)
		})
	}

	// Partition episodes (black-hole mode), disjoint from the churn windows.
	for at := 10 * time.Minute; at < dur-10*time.Minute; at += 20 * time.Minute {
		at := at
		c.w.Engine().After(at, func() {
			c.w.Partition(simnet.PartitionDrop, []stack.ProcessID{1, 2}, []stack.ProcessID{3})
		})
		c.w.Engine().After(at+15*time.Second, func() { c.w.Heal() })
	}

	// Sample p1's memory profile every simulated minute.
	type sample struct {
		received, log, diffusion int
	}
	var samples []sample
	for at := time.Minute; at < dur; at += time.Minute {
		c.w.Engine().After(at, func() {
			o := c.engines[1].Observe()
			samples = append(samples, sample{received: o.Received, log: o.DeliveredLog, diffusion: c.engines[1].rb.Retained()})
		})
	}

	runChecked(t, c.w, c.engines, dur+2*time.Minute)

	total := sent + probes
	for p := 1; p <= 3; p++ {
		if st := c.engines[p].Stats(); st.Delivered != total {
			t.Fatalf("p%d delivered %d, want %d", p, st.Delivered, total)
		}
		if _, _, errs := c.engines[p].PersistStats(); errs != 0 {
			t.Fatalf("p%d: %d store errors", p, errs)
		}
	}
	checkIncarnationSuffix(t, c.delivered[1], c.inc[2], "p2")
	checkIncarnationSuffix(t, c.delivered[1], c.inc[3], "p3")

	// Flatness: occupancy may spike to roughly the repair horizon while a
	// peer is down or the network is cut (pruning needs everyone's durable
	// frontier), but must never trend with history. A linear profile over
	// ~7000 deliveries would blow far past this bound.
	maxReceived, maxLog, maxDiffusion := 0, 0, 0
	for _, s := range samples {
		maxReceived = max(maxReceived, s.received)
		maxLog = max(maxLog, s.log)
		maxDiffusion = max(maxDiffusion, s.diffusion)
	}
	if maxReceived > total/10 || maxLog > total/10 || maxDiffusion > total/10 {
		t.Fatalf("memory profile not flat: max received=%d max deliveredLog=%d max diffusion=%d over %d delivered",
			maxReceived, maxLog, maxDiffusion, total)
	}
	final := c.engines[1].Observe()
	if final.Received > 128 || final.DeliveredLog > 128 {
		t.Fatalf("quiescent occupancy high: received=%d deliveredLog=%d", final.Received, final.DeliveredLog)
	}
}
