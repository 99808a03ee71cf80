package fd

import (
	"testing"
	"time"

	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

func newHBWorld(t *testing.T, n int, cfg Config) (*simnet.World, []*Heartbeat) {
	t.Helper()
	w := simnet.NewWorld(n, netmodel.Setup1(), 3)
	hbs := make([]*Heartbeat, n+1)
	for i := 1; i <= n; i++ {
		hbs[i] = NewHeartbeat(w.Node(stack.ProcessID(i)), cfg)
	}
	return w, hbs
}

func TestNoSuspicionWithoutCrash(t *testing.T) {
	w, hbs := newHBWorld(t, 3, DefaultConfig())
	w.RunFor(2 * time.Second)
	for i := 1; i <= 3; i++ {
		for j := 1; j <= 3; j++ {
			if i != j && hbs[i].Suspects(stack.ProcessID(j)) {
				t.Fatalf("p%d wrongly suspects p%d on an idle healthy network", i, j)
			}
		}
	}
}

func TestCrashEventuallySuspected(t *testing.T) {
	w, hbs := newHBWorld(t, 3, DefaultConfig())
	w.After(1, 500*time.Millisecond, func() { w.Crash(2, simnet.DropInFlight) })
	w.RunFor(3 * time.Second)
	for _, p := range []int{1, 3} {
		if !hbs[p].Suspects(2) {
			t.Fatalf("p%d never suspected the crashed process (strong completeness)", p)
		}
	}
	if hbs[1].Suspects(3) || hbs[3].Suspects(1) {
		t.Fatal("a correct process is suspected")
	}
}

func TestSubscriberNotified(t *testing.T) {
	w, hbs := newHBWorld(t, 3, DefaultConfig())
	var events []bool
	hbs[1].Subscribe(func(q stack.ProcessID, suspected bool) {
		if q == 2 {
			events = append(events, suspected)
		}
	})
	w.After(1, 200*time.Millisecond, func() { w.Crash(2, simnet.DropInFlight) })
	w.RunFor(2 * time.Second)
	if len(events) == 0 || !events[0] {
		t.Fatalf("subscriber events = %v, want leading suspicion", events)
	}
}

// TestAdaptiveTimeoutRecovers: a transient network stall causes a wrong
// suspicion; once heartbeats resume, trust must be restored and the timeout
// grown, eventually yielding accuracy (the ◇S behaviour).
func TestAdaptiveTimeoutRecovers(t *testing.T) {
	cfg := Config{
		Interval:         10 * time.Millisecond,
		InitialTimeout:   30 * time.Millisecond,
		TimeoutIncrement: 100 * time.Millisecond,
		MaxTimeout:       time.Second,
	}
	params := netmodel.Setup1()
	// Stall all traffic from p2 between 100ms and 200ms of virtual time.
	var w *simnet.World
	params.LatencyFn = func(from, to stack.ProcessID, env stack.Envelope) time.Duration {
		now := w.Now().Sub(time.Unix(0, 0))
		if from == 2 && now > 100*time.Millisecond && now < 200*time.Millisecond {
			return 150 * time.Millisecond
		}
		return params.Latency
	}
	w = simnet.NewWorld(3, params, 3)
	hbs := make([]*Heartbeat, 4)
	for i := 1; i <= 3; i++ {
		hbs[i] = NewHeartbeat(w.Node(stack.ProcessID(i)), cfg)
	}
	suspectedOnce := false
	hbs[1].Subscribe(func(q stack.ProcessID, s bool) {
		if q == 2 && s {
			suspectedOnce = true
		}
	})
	w.RunFor(3 * time.Second)
	if !suspectedOnce {
		t.Skip("stall did not trigger a suspicion in this schedule")
	}
	if hbs[1].Suspects(2) {
		t.Fatal("suspicion not retracted after heartbeats resumed")
	}
}

func TestHeartbeatStop(t *testing.T) {
	w, hbs := newHBWorld(t, 2, DefaultConfig())
	w.RunFor(100 * time.Millisecond)
	hbs[1].Stop()
	hbs[2].Stop()
	sent := w.MsgsSent()
	w.RunFor(time.Second)
	if w.MsgsSent() != sent {
		t.Fatal("heartbeats still flowing after Stop")
	}
	// Stopped detectors must not develop suspicions either.
	if hbs[1].Suspects(2) || hbs[2].Suspects(1) {
		t.Fatal("stopped detector changed suspicion state")
	}
}

// TestTimeoutCapRespected: adaptation must never push a timeout past
// MaxTimeout, or a flaky process could inflate suspicion delays without
// bound.
func TestTimeoutCapRespected(t *testing.T) {
	cfg := Config{
		Interval:         5 * time.Millisecond,
		InitialTimeout:   10 * time.Millisecond,
		TimeoutIncrement: 500 * time.Millisecond,
		MaxTimeout:       50 * time.Millisecond,
	}
	params := netmodel.Setup1()
	// p2 stalls periodically, causing repeated wrong suspicions and
	// therefore repeated adaptation.
	var w *simnet.World
	params.LatencyFn = func(from, to stack.ProcessID, env stack.Envelope) time.Duration {
		now := w.Now().Sub(time.Unix(0, 0))
		if from == 2 && (now/(100*time.Millisecond))%2 == 1 {
			return 60 * time.Millisecond
		}
		return params.Latency
	}
	w = simnet.NewWorld(2, params, 3)
	h1 := NewHeartbeat(w.Node(1), cfg)
	NewHeartbeat(w.Node(2), cfg)
	w.RunFor(2 * time.Second)
	if to := h1.peer(2).timeout; to > cfg.MaxTimeout {
		t.Fatalf("timeout adapted to %v, beyond cap %v", to, cfg.MaxTimeout)
	}
	// The cap must still allow suspicion of a real crash.
	w.Crash(2, simnet.DropInFlight)
	w.RunFor(time.Second)
	if !h1.Suspects(2) {
		t.Fatal("capped detector failed to suspect a crashed process")
	}
}

// TestDelayedHeartbeatsSuspectedThenRecovered: heartbeats that are merely
// delayed (never lost) must still trigger a suspicion once the delay
// exceeds the timeout — and the late arrivals must then restore trust and
// grow the timeout, not be mistaken for fresh liveness. This is the
// asynchronous-channel case, as opposed to the dropped-heartbeat case of
// TestCrashEventuallySuspected.
func TestDelayedHeartbeatsSuspectedThenRecovered(t *testing.T) {
	cfg := Config{
		Interval:         10 * time.Millisecond,
		InitialTimeout:   40 * time.Millisecond,
		TimeoutIncrement: 80 * time.Millisecond,
		MaxTimeout:       time.Second,
	}
	params := netmodel.Setup1()
	// Every heartbeat from p2 takes 200 ms — far beyond the 40 ms timeout —
	// but all of them arrive.
	var w *simnet.World
	params.LatencyFn = func(from, to stack.ProcessID, env stack.Envelope) time.Duration {
		if from == 2 {
			return 200 * time.Millisecond
		}
		return params.Latency
	}
	w = simnet.NewWorld(2, params, 5)
	h1 := NewHeartbeat(w.Node(1), cfg)
	NewHeartbeat(w.Node(2), cfg)
	var events []bool
	h1.Subscribe(func(q stack.ProcessID, s bool) {
		if q == 2 {
			events = append(events, s)
		}
	})
	w.RunFor(3 * time.Second)
	if len(events) == 0 || !events[0] {
		t.Fatalf("events = %v: delay beyond the timeout never triggered a suspicion", events)
	}
	recovered := false
	for _, s := range events {
		if !s {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("trust never restored although every heartbeat eventually arrived")
	}
	if to := h1.peer(2).timeout; to <= cfg.InitialTimeout {
		t.Fatalf("timeout = %v, not adapted beyond the initial %v despite wrong suspicions",
			to, cfg.InitialTimeout)
	}
	// With the adapted timeout above the one-way delay, the detector ends
	// the run in the ◇S steady state: no current suspicion of a live peer.
	if h1.Suspects(2) {
		t.Fatal("still suspecting a live, merely slow process at the end of the run")
	}
}

// TestSuspicionAcrossPartitionAndHeal: a partition must make the two sides
// suspect each other (strong completeness applies — a cut peer is
// indistinguishable from a crashed one), and a heal must restore trust on
// both sides once heartbeats flow again. This is the detector-level
// contract the atomic broadcast stack relies on to stall and then resume
// across WAN partition episodes.
func TestSuspicionAcrossPartitionAndHeal(t *testing.T) {
	for _, mode := range []simnet.PartitionMode{simnet.PartitionDrop, simnet.PartitionDelay} {
		name := "drop"
		if mode == simnet.PartitionDelay {
			name = "delay"
		}
		t.Run(name, func(t *testing.T) {
			w, hbs := newHBWorld(t, 3, DefaultConfig())
			w.After(1, 300*time.Millisecond, func() {
				w.Partition(mode, []stack.ProcessID{3})
			})
			// Let the partition last several timeouts, then check both
			// sides suspect across the cut and not within their side.
			w.RunFor(1500 * time.Millisecond)
			if !hbs[1].Suspects(3) || !hbs[2].Suspects(3) {
				t.Fatal("majority never suspected the cut-off process")
			}
			if !hbs[3].Suspects(1) || !hbs[3].Suspects(2) {
				t.Fatal("minority never suspected the unreachable majority")
			}
			if hbs[1].Suspects(2) || hbs[2].Suspects(1) {
				t.Fatal("suspicion within an intact side")
			}
			w.Heal()
			w.RunFor(5 * time.Second)
			for i := 1; i <= 3; i++ {
				for j := 1; j <= 3; j++ {
					if i != j && hbs[i].Suspects(stack.ProcessID(j)) {
						t.Fatalf("p%d still suspects p%d long after the heal (%s mode)", i, j, name)
					}
				}
			}
		})
	}
}

func TestScripted(t *testing.T) {
	s := NewScripted()
	if s.Suspects(1) {
		t.Fatal("fresh scripted detector suspects")
	}
	var got []bool
	s.Subscribe(func(q stack.ProcessID, suspected bool) { got = append(got, suspected) })
	s.SetSuspected(1, true)
	s.SetSuspected(1, true) // no-op, no duplicate event
	s.SetSuspected(1, false)
	if !s.Suspects(2) == false && s.Suspects(1) {
		t.Fatal("suspicion state wrong")
	}
	if len(got) != 2 || !got[0] || got[1] {
		t.Fatalf("events = %v, want [true false]", got)
	}
}
