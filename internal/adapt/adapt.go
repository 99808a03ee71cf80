// Package adapt is the feedback control plane of the atomic broadcast
// engine: a deterministic controller that turns engine-side observations
// (unordered backlog, delivered throughput, consensus decision latency,
// per-link round-trip estimates) into actuator targets for the layers —
// the consensus pipeline width W, the per-instance identifier batch cap
// MaxBatch, and the relink anti-entropy cadence.
//
// Every one of those knobs started life as a static number the operator had
// to tune per workload and per topology: the pipeline ablation (figure p1)
// and its WAN counterpart (figure g1) show that the best static W differs
// between a 1 ms metro network and the 3-site WAN, and relink's 100 ms
// anti-entropy interval is two orders of magnitude too slow for a LAN and
// marginal for a 250 ms WAN round trip. The controller replaces the
// hand-tuning with feedback:
//
//   - Pipeline width (AIMD on backlog). While the unordered backlog exceeds
//     what the current pipeline can order in one round (Window × MaxBatch)
//     and consensus decisions keep pace (the smoothed propose→decide latency
//     has not blown out against its best observed value), the window grows
//     by one instance per control tick. When a grow step fails to add
//     delivered throughput while the backlog is not draining — the
//     bottleneck is elsewhere, extra instances only add protocol state — the
//     step is reverted and growth pauses for a few ticks. When the backlog
//     drains below one batch, the window decays multiplicatively back toward
//     the serial engine, so a burst leaves no idle protocol state behind.
//
//   - Batch cap. The window is the preferred absorber (it multiplies the
//     ordering ceiling without inflating per-instance work); only when the
//     window is pinned at its maximum and the backlog still exceeds a full
//     pipeline round does the batch cap double, Algorithm-1 style, up to
//     MaxBatchCap. It halves back toward MinBatch once the backlog fits a
//     single batch again, restoring the low-latency configuration.
//
//   - Anti-entropy cadence. The relink layer measures a smoothed round-trip
//     estimate per outgoing stream from ProbeMsg→AckMsg exchanges; the
//     controller requests a cadence of RTTMultiple × the slowest link's
//     estimate, clamped to [MinInterval, MaxInterval]. On a LAN the ticks
//     speed up to repair within milliseconds; across a WAN they back off so
//     probes are not resent while the answering digest is still in flight.
//
// The controller is a pure state machine: Tick consumes one Sample and
// returns the Targets to apply, with no timers, I/O, or randomness of its
// own. The engine (internal/core) owns the sampling cadence and the
// actuators; see core.Config.Adaptive for the wiring and docs/ARCHITECTURE.md
// for the signals → controller → actuators map. Determinism matters beyond
// taste: the benchmark trajectory (BENCH_<rev>.json) and the CI determinism
// gate require byte-identical reruns, with adaptation on as much as off.
package adapt

import "time"

// The controller's tuning is fixed: every figure, test and workload has only
// ever run these values, so they are constants rather than knobs.
const (
	// Interval is the control-loop cadence: how often the engine samples its
	// signals and applies the returned targets. Shorter intervals ramp the
	// pipeline faster under a burst at the cost of more (purely local)
	// control work.
	Interval = 25 * time.Millisecond
	// MinWindow/MaxWindow clamp the pipeline width the controller may
	// target. core.ConfigLag must exceed MaxWindow.
	MinWindow = 1
	MaxWindow = 8
	// MinBatch/MaxBatchCap clamp the per-instance identifier batch cap. An
	// engine whose static MaxBatch is 0 (unbounded) starts adaptive runs at
	// MinBatch: unbounded batching absorbs any backlog into ever-larger
	// proposals, which hides exactly the signal the window controller steers
	// by.
	MinBatch    = 4
	MaxBatchCap = 64
	// Epsilon is the relative delivered-throughput gain below which a window
	// grow step counts as "added nothing" and is reverted.
	Epsilon = 0.05
	// LatencyFactor bounds how far the smoothed propose→decide latency may
	// rise above its best observed value before the controller stops growing
	// the window — decisions no longer keep pace, so more concurrent
	// instances would only queue.
	LatencyFactor = 4.0
	// RTTMultiple scales the slowest link's smoothed round-trip estimate into
	// the anti-entropy cadence target, clamped to [MinInterval, MaxInterval].
	RTTMultiple = 2.0
	MinInterval = 5 * time.Millisecond
	MaxInterval = time.Second
	// growHold is how many control ticks window growth pauses after a
	// reverted grow step, damping grow/revert oscillation around the knee.
	growHold = 4
)

// Sample is one observation of the engine's signals, taken at a control
// tick. The engine builds it from core.Engine.Observe plus the relink RTT
// estimate; see that method for the exact field semantics.
type Sample struct {
	// Now is the observation instant (virtual time under simulation).
	Now time.Time
	// Backlog is the number of received-but-unordered identifiers not
	// claimed by any in-flight proposal: the work the pipeline has not yet
	// picked up.
	Backlog int
	// Delivered is the cumulative adelivered message count; the controller
	// differentiates it across ticks into the delivered rate.
	Delivered int
	// InFlight is the number of currently outstanding consensus proposals.
	InFlight int
	// Window and MaxBatch are the currently applied actuator values.
	Window   int
	MaxBatch int
	// DecisionLatency is the smoothed propose→decide latency (0 = no
	// decision observed yet).
	DecisionLatency time.Duration
	// LinkRTTMax is the slowest link's smoothed round-trip estimate (0 =
	// unmeasured, or recovery disabled).
	LinkRTTMax time.Duration
}

// Targets is what the controller wants applied: the pipeline width and
// batch cap to retarget (always set), and the anti-entropy cadence (0 =
// leave the cadence alone, e.g. before any RTT has been measured).
type Targets struct {
	Window      int
	MaxBatch    int
	AntiEntropy time.Duration
}

// Controller is the feedback state machine. It is not safe for concurrent
// use; like every protocol layer it lives on one process's event loop.
type Controller struct {
	last          time.Time
	lastDelivered int
	lastBacklog   int
	lastRate      float64
	prevWindow    int
	minDecLat     time.Duration
	hold          int
}

// NewController builds a controller.
func NewController() *Controller { return &Controller{} }

// Tick consumes one sample and returns the targets to apply. The first
// sample only establishes the baseline; thereafter each tick runs one step
// of the window AIMD, the batch escalation, and the cadence tracking
// described in the package comment.
func (c *Controller) Tick(s Sample) Targets {
	t := Targets{Window: clamp(s.Window, MinWindow, MaxWindow), MaxBatch: clamp(s.MaxBatch, MinBatch, MaxBatchCap)}
	if s.LinkRTTMax > 0 {
		t.AntiEntropy = clampDur(time.Duration(RTTMultiple*float64(s.LinkRTTMax)), MinInterval, MaxInterval)
	}
	if s.DecisionLatency > 0 && (c.minDecLat == 0 || s.DecisionLatency < c.minDecLat) {
		c.minDecLat = s.DecisionLatency
	}
	if c.last.IsZero() || !s.Now.After(c.last) {
		// First sample (or a clock that has not advanced): baseline only.
		c.remember(s, c.lastRate)
		return t
	}
	elapsed := s.Now.Sub(c.last)
	rate := float64(s.Delivered-c.lastDelivered) / elapsed.Seconds()
	if c.hold > 0 {
		c.hold--
	}

	// Window AIMD. "Pace" is the keep-up guard: decisions whose smoothed
	// latency has blown out LatencyFactor× past the best observed mean the
	// consensus layer (or the CPU under it) is saturated, and more
	// concurrent instances would only deepen the queues.
	pace := s.DecisionLatency == 0 || c.minDecLat == 0 ||
		s.DecisionLatency <= time.Duration(LatencyFactor*float64(c.minDecLat))
	grew := c.prevWindow > 0 && s.Window > c.prevWindow
	switch {
	case grew && rate <= c.lastRate*(1+Epsilon) && s.Backlog >= c.lastBacklog:
		// The previous grow step added no delivered throughput and the
		// backlog is not draining: revert it and pause growth.
		t.Window = clamp(s.Window-1, MinWindow, MaxWindow)
		c.hold = growHold
	case s.Backlog > s.Window*t.MaxBatch && s.Window < MaxWindow && pace && c.hold == 0:
		// More than one full pipeline round is queued and decisions keep
		// pace: additive increase.
		t.Window = s.Window + 1
	case s.Backlog <= t.MaxBatch && s.InFlight <= 1 && s.Window > MinWindow:
		// The burst is over (one batch covers the backlog, the pipeline
		// idles): decay multiplicatively back toward serial operation.
		t.Window = s.Window - (s.Window-MinWindow+1)/2
	}

	// Batch escalation: only once the window is exhausted does per-instance
	// work grow, and it shrinks back as soon as the backlog fits one batch.
	switch {
	case t.Window >= MaxWindow && s.Backlog > t.Window*t.MaxBatch && t.MaxBatch < MaxBatchCap:
		t.MaxBatch = clamp(t.MaxBatch*2, MinBatch, MaxBatchCap)
	case s.Backlog <= t.MaxBatch/2 && t.MaxBatch > MinBatch:
		t.MaxBatch = clamp(t.MaxBatch/2, MinBatch, MaxBatchCap)
	}

	c.remember(s, rate)
	return t
}

// remember rolls the per-tick state forward.
func (c *Controller) remember(s Sample, rate float64) {
	c.last = s.Now
	c.lastDelivered = s.Delivered
	c.lastBacklog = s.Backlog
	c.lastRate = rate
	c.prevWindow = s.Window
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// clampDur bounds d to [lo, hi].
func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}
