package fd

import (
	"testing"
	"time"

	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// TestHeldHeartbeat: a held detector sends no heartbeat — not even at
// construction — yet suspects silent peers and trusts them again on their
// heartbeats. Release sends one heartbeat at once and resumes the cadence;
// a second Release changes nothing. A detector made by NewHeartbeat still
// sends its first heartbeat at construction.
func TestHeldHeartbeat(t *testing.T) {
	cfg := DefaultConfig()
	w := simnet.NewWorld(3, netmodel.Setup1(), 3)
	h := NewHeldHeartbeat(w.Node(1), cfg)
	if sent := w.MsgsSent(); sent != 0 {
		t.Fatalf("held detector sent %d messages at construction", sent)
	}
	got := 0 // heartbeats p2 received from p1; p2 itself runs no detector
	w.Node(2).Register(stack.ProtoFD, stack.HandlerFunc(func(from stack.ProcessID, _ uint64, m stack.Message) {
		if _, ok := m.(HeartbeatMsg); ok && from == 1 {
			got++
		}
	}))
	// p3 is silent for 500 ms, then starts heartbeating.
	w.After(3, 500*time.Millisecond, func() {
		before := w.MsgsSent()
		NewHeartbeat(w.Node(3), cfg)
		if sent := w.MsgsSent() - before; sent != 2 {
			t.Errorf("NewHeartbeat sent %d heartbeats at construction, want 2", sent)
		}
	})
	w.RunFor(400 * time.Millisecond)
	if !h.Suspects(2) || !h.Suspects(3) {
		t.Fatal("held detector does not suspect its silent peers")
	}
	w.RunFor(300 * time.Millisecond)
	if h.Suspects(3) {
		t.Fatal("held detector did not trust p3 again on its heartbeats")
	}
	if got != 0 {
		t.Fatalf("held detector sent %d heartbeats", got)
	}

	w.After(1, 0, func() { h.Release(); h.Release() })
	w.RunFor(time.Millisecond)
	if got != 1 {
		t.Fatalf("%d heartbeats arrived within 1 ms of Release, want exactly 1", got)
	}
	w.RunFor(10*cfg.Interval + cfg.Interval/2)
	if got != 11 {
		t.Fatalf("%d heartbeats in the 10.5 intervals after Release, want 11", got)
	}
}

// TestReleaseAfterStopOrCrash: Release on a stopped or crashed detector sends
// nothing.
func TestReleaseAfterStopOrCrash(t *testing.T) {
	for _, name := range []string{"stop", "crash"} {
		t.Run(name, func(t *testing.T) {
			w := simnet.NewWorld(2, netmodel.Setup1(), 3)
			h := NewHeldHeartbeat(w.Node(1), DefaultConfig())
			w.Engine().After(10*time.Millisecond, func() {
				if name == "stop" {
					h.Stop()
				} else {
					w.Crash(1, simnet.DropInFlight)
				}
				h.Release()
			})
			w.RunFor(time.Second)
			if sent := w.MsgsSent(); sent != 0 {
				t.Fatalf("Release after %s sent %d messages", name, sent)
			}
		})
	}
}
