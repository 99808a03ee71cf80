package core

// Adaptive control plane: the engine-side half of internal/adapt.
//
// The controller itself (internal/adapt) is a pure state machine; this file
// owns everything stateful around it: the sampling cadence (a periodic timer
// on the process's event loop), the observation hook that snapshots the
// engine's signals, and the actuators — Retarget for the pipeline width and
// batch cap, relink.Link.SetInterval for the anti-entropy cadence.
//
// Retargeting the window is safe *between* instances only, and that is the
// only place it happens: growing the window merely allows maybePropose to
// start more instances, and shrinking it merely stops new instances from
// starting until enough in-flight ones have been consumed. In-flight
// proposals are never cancelled — their claimed identifiers are released
// exclusively by consumePending when their instance is consumed, exactly as
// in the static engine, so a width change can never lose an identifier that
// was waiting to be recycled into a later instance (the property
// TestAdaptivePartitionKeepsContract and TestRetargetShrinkLosesNothing
// pin). MaxBatch is read per claimBatch call, so a batch retarget simply
// applies from the next proposal on.

import (
	"time"

	"abcast/internal/adapt"
	"abcast/internal/stats"
)

// decLatAlpha smooths the propose→decide latency signal (TCP-SRTT-style
// 1/8 gain, like the relink RTT estimate it is paired with).
const decLatAlpha = 0.125

// Observation is one snapshot of the engine's control-plane signals — the
// observation hook the adaptive controller (and any external monitor)
// samples. All fields are cheap to compute; taking an Observation never
// perturbs the engine.
type Observation struct {
	// Backlog is the number of received-but-unordered identifiers not
	// claimed by any in-flight proposal: the work the pipeline has not
	// picked up yet. (Claimed identifiers can transiently exceed the
	// unordered set when another process's proposal orders an identifier
	// we still hold claimed; the count clamps at zero.)
	Backlog int
	// Delivered is the cumulative adelivered message count.
	Delivered int
	// InFlight is the number of outstanding consensus proposals.
	InFlight int
	// Window and MaxBatch are the currently applied actuator values.
	Window   int
	MaxBatch int
	// DecisionLatency is the smoothed propose→decide latency of this
	// process's own proposals (0 until the first decision).
	DecisionLatency time.Duration
	// ConsensusOpen is the number of consensus instances this process has
	// proposed to that are still undecided.
	ConsensusOpen int
	// LinkRTTMax is the slowest link's smoothed probe→digest round-trip
	// estimate from the relink layer (0 when recovery is off or no
	// exchange has completed).
	LinkRTTMax time.Duration
	// Received is the number of payloads currently held — received and not
	// yet forgotten (see Stats.Received) — and DeliveredLog the length of
	// the retained delivered-log suffix. Without a repair plane Received is
	// what is in flight and the log is not kept; under Config.Persist both
	// are bounded by checkpoint pruning — the memory-flatness signal the
	// soak tests assert on; with Recover or Snapshot alone they grow with
	// history.
	Received     int
	DeliveredLog int
}

// Observe snapshots the engine's control-plane signals.
func (e *Engine) Observe() Observation {
	backlog := e.msgs.unordered.Len() - e.msgs.claimed
	if backlog < 0 {
		backlog = 0
	}
	o := Observation{
		Backlog:         backlog,
		Delivered:       e.deliveredN,
		InFlight:        len(e.inFlight),
		Window:          e.window,
		MaxBatch:        e.maxBatch,
		DecisionLatency: time.Duration(e.decLat.Value()),
		ConsensusOpen:   e.cons.Undecided(),
		Received:        e.msgs.held,
		DeliveredLog:    len(e.deliveredLog),
	}
	if e.link != nil {
		o.LinkRTTMax = e.link.MaxRTT()
	}
	return o
}

// Retarget applies a new pipeline width and per-instance batch cap, the
// safe between-instances path: growth takes effect immediately (the engine
// tries to start instances for the new slots), shrinkage drains — in-flight
// proposals run to consumption and keep their identifier claims until then,
// so no identifier awaiting recycling is lost. window is clamped to ≥ 1;
// maxBatch ≤ 0 means unlimited.
//
//abcheck:entry control-plane actuator; invoked on-loop by adaptTick and by external controllers via Do
func (e *Engine) Retarget(window, maxBatch int) {
	if window < 1 {
		window = 1
	}
	if maxBatch < 0 {
		maxBatch = 0
	}
	if window == e.window && maxBatch == e.maxBatch {
		return
	}
	e.retargets.Inc()
	grow := window > e.window
	e.window = window
	e.maxBatch = maxBatch
	e.winGauge.Set(int64(e.window))
	e.batchGauge.Set(int64(e.maxBatch))
	if grow {
		e.maybePropose()
	}
}

// SetAntiEntropy retargets the recovery layer's anti-entropy cadence —
// the control plane's third actuator, next to the pipeline window and the
// batch cap of Retarget. The adaptive controller drives it from measured
// link round-trip times (adaptTick); an external controller may drive it
// directly, enqueued on the owning event loop like any actuator call.
// No-op when recovery is off or d is non-positive.
//
//abcheck:entry control-plane actuator; invoked on-loop by adaptTick and by external controllers via Do
func (e *Engine) SetAntiEntropy(d time.Duration) {
	if e.link != nil && d > 0 {
		e.link.SetInterval(d)
	}
}

// initAdapt builds the controller and normalizes the initial actuator
// values into its bounds (called from New when cfg.Adaptive is set). The
// control loop itself is armed at the end of New, once construction can no
// longer fail: a timer armed earlier would fire on a half-built engine if a
// later wiring step returned an error.
func (e *Engine) initAdapt() {
	e.ctrl = adapt.NewController()
	e.window = min(max(e.window, adapt.MinWindow), adapt.MaxWindow)
	// A zero (unbounded) MaxBatch lands on MinBatch too: unbounded batching
	// absorbs any backlog into ever-larger proposals, hiding the signal the
	// window controller steers by, so adaptive engines always run with a
	// bounded batch.
	e.maxBatch = min(max(e.maxBatch, adapt.MinBatch), adapt.MaxBatchCap)
	e.decLat = stats.NewEwma(decLatAlpha)
}

// armAdapt schedules the next control tick. Unlike the recovery timers the
// control loop never quiesces: an idle engine still samples, which is what
// lets the window decay back to serial after a burst.
func (e *Engine) armAdapt() {
	e.ctx.SetTimer(adapt.Interval, e.adaptTick)
}

// adaptTick runs one control-loop round: observe, ask the controller for
// targets, actuate, re-arm.
func (e *Engine) adaptTick() {
	o := e.Observe()
	t := e.ctrl.Tick(adapt.Sample{
		Now:             e.ctx.Now(),
		Backlog:         o.Backlog,
		Delivered:       o.Delivered,
		InFlight:        o.InFlight,
		Window:          o.Window,
		MaxBatch:        o.MaxBatch,
		DecisionLatency: o.DecisionLatency,
		LinkRTTMax:      o.LinkRTTMax,
	})
	e.Retarget(t.Window, t.MaxBatch)
	if e.link != nil && t.AntiEntropy > 0 {
		e.link.SetInterval(t.AntiEntropy)
	}
	e.armAdapt()
}

// pipelined reports whether this engine can face consensus instances beyond
// the serial liveness argument: either it was configured with a static
// window above 1, or the adaptive controller may widen (or may already have
// widened) the window at runtime.
func (e *Engine) pipelined() bool {
	return e.window > 1 || e.ctrl != nil
}
