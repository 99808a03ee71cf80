package core

// Persistence tests: bounded memory under checkpoint pruning, crash-recovery
// restart from a checkpoint (memory- and file-backed stores), repair-target
// preference, and the long soak asserting a flat memory profile across
// crash/restart churn and partition episodes.
//
// Every run is bounded (group.Run(d)), never World.Run: the checkpoint timer
// re-arms forever, so a persistent world never goes idle.

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"abcast/internal/netmodel"
	"abcast/internal/persist"
	"abcast/internal/rbcast"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

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
	g := newDurableGroup(t, 3, 7, 50*time.Millisecond, memReopen(), func(cfg *Config) { cfg.RB = rbcast.KindLazy })
	const total = 900
	for s := 0; s < total; s++ {
		g.Broadcast(stack.ProcessID(s%3+1), time.Duration(s)*5*time.Millisecond, fmt.Sprintf("m-%d", s))
	}
	g.Run(30 * time.Second)
	for p := 1; p <= 3; p++ {
		st := g.engines[p].Stats()
		if st.Delivered != total {
			t.Fatalf("p%d delivered %d, want %d", p, st.Delivered, total)
		}
		ckpts, prunes, errs := g.engines[p].PersistStats()
		if ckpts == 0 || prunes == 0 {
			t.Fatalf("p%d: ckpts=%d prunes=%d; persistence idle", p, ckpts, prunes)
		}
		if errs != 0 {
			t.Fatalf("p%d: %d store errors", p, errs)
		}
		if st.LogBase == 0 {
			t.Fatalf("p%d: logBase never advanced", p)
		}
		o := g.engines[p].Observe()
		if kept := g.engines[p].rb.Retained(); o.Received > total/4 || o.DeliveredLog > total/4 || kept > total/4 {
			t.Fatalf("p%d: memory not bounded: received=%d deliveredLog=%d diffusion=%d of %d delivered",
				p, o.Received, o.DeliveredLog, kept, total)
		}
	}
}

// testRestart is the crash-recovery property shared by the store-backed
// variants: p2 is crashed mid-run (in-flight traffic dropped), traffic
// continues without it, and a fresh incarnation on the same store must
// re-converge — full delivery of everything including messages it missed
// while down, post-restart order equal to the canonical tail, and new
// broadcasts under fresh (non-aliasing) sequence numbers.
func testRestart(t *testing.T, reopen func(p int) persist.Store) {
	g := newDurableGroup(t, 3, 11, 50*time.Millisecond, reopen)
	// Phase 1: everyone broadcasts; p2 checkpoints some of it.
	for i := 1; i <= 3; i++ {
		for s := 0; s < 15; s++ {
			g.Broadcast(stack.ProcessID(i), time.Duration(s*100+i*7)*time.Millisecond, fmt.Sprintf("a-%d-%d", i, s))
		}
	}
	g.Crash(2, 2*time.Second, simnet.DropInFlight)
	// Phase 2: the survivors keep the total order moving while p2 is down.
	for _, p := range procs(1, 3) {
		for s := 0; s < 15; s++ {
			g.Broadcast(p, 2500*time.Millisecond+time.Duration(s*100+int(p)*7)*time.Millisecond, fmt.Sprintf("b-%d-%d", p, s))
		}
	}
	// Restart at 5s; the new incarnation also broadcasts (phase 3) — those
	// messages must get fresh sequence numbers (the WAL'd counter), or they
	// would alias pre-crash identifiers, which the oracle rejects.
	g.Restart(2, 5*time.Second, func() {
		for s := 0; s < 5; s++ {
			g.Broadcast(2, 2*time.Second+time.Duration(s*100)*time.Millisecond, fmt.Sprintf("c-2-%d", s))
		}
	})
	for s := 0; s < 5; s++ {
		g.Broadcast(1, 7*time.Second+time.Duration(s*100)*time.Millisecond, fmt.Sprintf("c-1-%d", s))
	}
	g.Run(60 * time.Second)

	// Phase 1 and 2 and the five of p2's new incarnation.
	const want = 3*15 + 2*15 + 5 + 5
	for p := 1; p <= 3; p++ {
		if st := g.engines[p].Stats(); st.Delivered != want {
			t.Fatalf("p%d delivered %d, want %d", p, st.Delivered, want)
		}
		if _, _, errs := g.engines[p].PersistStats(); errs != 0 {
			t.Fatalf("p%d: %d store errors", p, errs)
		}
	}
	g.complete(procs(1, 2, 3))
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
	pref := newGroup(t, 4, VariantIndirectCT, netmodel.Setup1(), 3,
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

	plain := newGroup(t, 4, VariantIndirectCT, netmodel.Setup1(), 3,
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
	g := newDurableGroup(t, 3, 17, 200*time.Millisecond, memReopen())
	const dur = 2 * time.Hour

	// Steady traffic from p1 (never crashed; its delivery log is canonical).
	sent := 0
	for ts := time.Second; ts < dur-time.Minute; ts += time.Second {
		g.Broadcast(1, ts, fmt.Sprintf("s-%d", sent))
		sent++
	}

	// Churn: every 10 minutes, crash p2 or p3 (alternating) for 30 seconds,
	// then restart it from its checkpoint; each fresh incarnation broadcasts
	// a probe, proving restarted senders keep Validity.
	probes := 0
	victim := stack.ProcessID(2)
	for at := 5 * time.Minute; at < dur-10*time.Minute; at += 10 * time.Minute {
		v := victim
		victim = 5 - victim
		g.Crash(v, at, simnet.DropInFlight)
		probe := fmt.Sprintf("r-%d-%d", v, probes)
		probes++
		g.Restart(v, at+30*time.Second, func() {
			g.Broadcast(v, time.Second, probe)
		})
	}

	// Partition episodes (black-hole mode), disjoint from the churn windows.
	for at := 10 * time.Minute; at < dur-10*time.Minute; at += 20 * time.Minute {
		at := at
		g.w.Engine().After(at, func() {
			g.w.Partition(simnet.PartitionDrop, []stack.ProcessID{1, 2}, []stack.ProcessID{3})
		})
		g.w.Engine().After(at+15*time.Second, func() { g.w.Heal() })
	}

	// Sample p1's memory profile every simulated minute.
	type sample struct {
		received, log, diffusion int
	}
	var samples []sample
	for at := time.Minute; at < dur; at += time.Minute {
		g.w.Engine().After(at, func() {
			o := g.engines[1].Observe()
			samples = append(samples, sample{received: o.Received, log: o.DeliveredLog, diffusion: g.engines[1].rb.Retained()})
		})
	}

	g.Run(dur + 2*time.Minute)

	total := sent + probes
	for p := 1; p <= 3; p++ {
		if st := g.engines[p].Stats(); st.Delivered != total {
			t.Fatalf("p%d delivered %d, want %d", p, st.Delivered, total)
		}
		if _, _, errs := g.engines[p].PersistStats(); errs != 0 {
			t.Fatalf("p%d: %d store errors", p, errs)
		}
	}
	g.complete(procs(1, 2, 3))

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
	final := g.engines[1].Observe()
	if final.Received > 128 || final.DeliveredLog > 128 {
		t.Fatalf("quiescent occupancy high: received=%d deliveredLog=%d", final.Received, final.DeliveredLog)
	}
}
