package adapt

// Unit tests of the feedback controller: pure state-machine checks, no
// simulator needed — the controller's whole contract is that Targets are a
// deterministic function of the Sample sequence.

import (
	"testing"
	"time"
)

// at builds the observation instant of tick i at the default cadence.
func at(i int) time.Time {
	return time.Unix(0, 0).Add(time.Duration(i) * Interval)
}

// TestGrowsUnderBacklog: a backlog beyond one pipeline round with decisions
// keeping pace grows the window by one per tick up to the maximum, and no
// further.
func TestGrowsUnderBacklog(t *testing.T) {
	c := NewController()
	w, batch := 1, 4
	delivered := 0
	for i := 0; i < 20; i++ {
		tg := c.Tick(Sample{
			Now: at(i), Backlog: 100, Delivered: delivered,
			InFlight: w, Window: w, MaxBatch: batch,
		})
		if tg.Window > w+1 {
			t.Fatalf("tick %d: grew by more than one: %d -> %d", i, w, tg.Window)
		}
		// Apply the targets and keep delivering (throughput rises with W,
		// so grow steps are never judged fruitless).
		w, batch = tg.Window, tg.MaxBatch
		delivered += w * batch
	}
	if w != MaxWindow {
		t.Fatalf("window did not reach the maximum: %d", w)
	}
}

// TestRevertsFruitlessGrowth: when a grow step adds no delivered throughput
// and the backlog is not draining, the step is reverted and growth pauses.
func TestRevertsFruitlessGrowth(t *testing.T) {
	c := NewController()
	// Baseline, then a tick that grows 1 -> 2 (delivery at a fixed rate).
	c.Tick(Sample{Now: at(0), Backlog: 100, Delivered: 0, Window: 1, MaxBatch: 4})
	tg := c.Tick(Sample{Now: at(1), Backlog: 100, Delivered: 10, Window: 1, MaxBatch: 4})
	if tg.Window != 2 {
		t.Fatalf("expected growth to W=2, got %d", tg.Window)
	}
	// The grown window delivers the same 10 per tick — no gain — while the
	// backlog keeps rising: revert.
	tg = c.Tick(Sample{Now: at(2), Backlog: 120, Delivered: 20, Window: 2, MaxBatch: 4})
	if tg.Window != 1 {
		t.Fatalf("fruitless growth not reverted: W=%d", tg.Window)
	}
	// And growth holds off for a few ticks despite the standing backlog.
	tg = c.Tick(Sample{Now: at(3), Backlog: 140, Delivered: 30, Window: 1, MaxBatch: 4})
	if tg.Window != 1 {
		t.Fatalf("growth not paused after revert: W=%d", tg.Window)
	}
}

// TestDecaysWhenDrained: once the backlog fits a single batch and the
// pipeline idles, the window decays back toward serial.
func TestDecaysWhenDrained(t *testing.T) {
	c := NewController()
	c.Tick(Sample{Now: at(0), Backlog: 0, Delivered: 100, Window: 8, MaxBatch: 4})
	w := 8
	for i := 1; w > 1 && i < 10; i++ {
		tg := c.Tick(Sample{Now: at(i), Backlog: 0, Delivered: 100, InFlight: 0, Window: w, MaxBatch: 4})
		if tg.Window >= w {
			t.Fatalf("tick %d: idle window did not decay: %d -> %d", i, w, tg.Window)
		}
		w = tg.Window
	}
	if w != 1 {
		t.Fatalf("idle window never reached serial: W=%d", w)
	}
}

// TestLatencyGuardStopsGrowth: a smoothed decision latency far above its
// best observed value blocks additive increase — decisions are not keeping
// pace, so more instances would only queue.
func TestLatencyGuardStopsGrowth(t *testing.T) {
	c := NewController()
	base := Sample{Backlog: 100, Window: 2, MaxBatch: 4, DecisionLatency: 10 * time.Millisecond}
	base.Now = at(0)
	c.Tick(base)
	blown := base
	blown.Now = at(1)
	blown.Delivered = 50 // rate fine; only latency objects
	blown.DecisionLatency = 10 * LatencyFactor * 10 * time.Millisecond
	if tg := c.Tick(blown); tg.Window != 2 {
		t.Fatalf("grew despite blown decision latency: W=%d", tg.Window)
	}
}

// TestBatchEscalatesOnlyAtMaxWindow: the batch cap doubles only once the
// window is pinned at its maximum with the backlog still beyond a full
// round, and halves back once the backlog fits one batch.
func TestBatchEscalatesOnlyAtMaxWindow(t *testing.T) {
	c := NewController()
	c.Tick(Sample{Now: at(0), Backlog: 1000, Delivered: 0, Window: MaxWindow, MaxBatch: 4})
	tg := c.Tick(Sample{Now: at(1), Backlog: 1000, Delivered: 100, Window: MaxWindow, MaxBatch: 4})
	if tg.MaxBatch != 8 {
		t.Fatalf("batch did not escalate at max window: %d", tg.MaxBatch)
	}
	// Below max window the same backlog grows W instead.
	c2 := NewController()
	c2.Tick(Sample{Now: at(0), Backlog: 1000, Delivered: 0, Window: 2, MaxBatch: 4})
	tg = c2.Tick(Sample{Now: at(1), Backlog: 1000, Delivered: 100, Window: 2, MaxBatch: 4})
	if tg.MaxBatch != 4 || tg.Window != 3 {
		t.Fatalf("batch escalated before the window was exhausted: W=%d batch=%d", tg.Window, tg.MaxBatch)
	}
	// Drained: the batch halves back toward the minimum.
	c3 := NewController()
	c3.Tick(Sample{Now: at(0), Backlog: 0, Delivered: 0, Window: 1, MaxBatch: 16})
	tg = c3.Tick(Sample{Now: at(1), Backlog: 0, Delivered: 10, Window: 1, MaxBatch: 16})
	if tg.MaxBatch != 8 {
		t.Fatalf("drained batch did not shrink: %d", tg.MaxBatch)
	}
}

// TestAntiEntropyTracksRTT: the cadence target is RTTMultiple × the slowest
// link's estimate, clamped — and absent entirely while no RTT is measured.
func TestAntiEntropyTracksRTT(t *testing.T) {
	c := NewController()
	if tg := c.Tick(Sample{Now: at(0), Window: 1, MaxBatch: 4}); tg.AntiEntropy != 0 {
		t.Fatalf("cadence target without an RTT estimate: %v", tg.AntiEntropy)
	}
	tg := c.Tick(Sample{Now: at(1), Window: 1, MaxBatch: 4, LinkRTTMax: 100 * time.Millisecond})
	if want := time.Duration(RTTMultiple * float64(100*time.Millisecond)); tg.AntiEntropy != want {
		t.Fatalf("cadence = %v, want %v", tg.AntiEntropy, want)
	}
	tg = c.Tick(Sample{Now: at(2), Window: 1, MaxBatch: 4, LinkRTTMax: time.Microsecond})
	if tg.AntiEntropy != MinInterval {
		t.Fatalf("cadence not clamped below: %v", tg.AntiEntropy)
	}
	tg = c.Tick(Sample{Now: at(3), Window: 1, MaxBatch: 4, LinkRTTMax: time.Hour})
	if tg.AntiEntropy != MaxInterval {
		t.Fatalf("cadence not clamped above: %v", tg.AntiEntropy)
	}
}

// TestDeterministic: the same sample sequence yields the same target
// sequence — the property the CI bench-determinism gate rides on.
func TestDeterministic(t *testing.T) {
	run := func() []Targets {
		c := NewController()
		var out []Targets
		w, batch, delivered := 1, 4, 0
		for i := 0; i < 30; i++ {
			backlog := 0
			if i%7 < 4 {
				backlog = 50 * (i%7 + 1)
			}
			tg := c.Tick(Sample{
				Now: at(i), Backlog: backlog, Delivered: delivered,
				InFlight: w, Window: w, MaxBatch: batch,
				DecisionLatency: time.Duration(1+i%3) * time.Millisecond,
				LinkRTTMax:      time.Duration(i%5) * 10 * time.Millisecond,
			})
			w, batch = tg.Window, tg.MaxBatch
			delivered += w * 3
			out = append(out, tg)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}
