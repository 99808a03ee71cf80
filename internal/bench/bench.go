// Package bench is the measurement harness that regenerates the paper's
// evaluation: a symmetric workload generator, a single-experiment runner,
// and the parameter sweeps of every figure in Section 4 (plus Figure 1 of
// Section 2).
//
// The performance metric matches the paper's: latency is the average, over
// all processes, of the elapsed time between abroadcast(m) and adeliver(m);
// the workload is symmetric — all processes abroadcast at the same rate,
// whose sum is the throughput.
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"abcast/internal/core"
	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/persist"
	"abcast/internal/sim"
	"abcast/internal/simnet"
	"abcast/internal/stack"
	"abcast/internal/stats"
	"abcast/internal/trace"
)

// Experiment is one benchmark configuration point.
type Experiment struct {
	Name   string
	N      int             // number of processes
	Params netmodel.Params // network/CPU cost model (Setup 1 or Setup 2)

	// Stack is the template every process's engine is built from: ordering
	// variant and diffusion, MaxBatch and Pipeline, Adaptive, the repair
	// features (Recover, Snapshot, Persist) and dynamic membership (Members)
	// are set here, exactly as core.Config defines them. Run completes a
	// copy per process — Detector, Deliver, Trace, RcvCheckCost (from
	// Params) and, when Persist is set, that process's own in-memory Store —
	// so those are left nil/zero in the template.
	//
	// With Stack.Members set, the workload comes from the stable members
	// only (initial members that no churn event removes), and full delivery
	// is measured at the members of the final view — the processes the run's
	// guarantees are about.
	Stack core.Config

	Throughput float64 // abroadcasts per second, summed over all processes
	Payload    int     // payload bytes per message

	// Load, when non-empty, replaces the constant Throughput with a
	// time-varying offered-load schedule: phase i holds its aggregate rate
	// for its duration, and the last phase's rate holds beyond the
	// schedule's end (so a fixed message count can always be generated).
	// Zero-rate phases are silent gaps — senders skip to the next phase
	// boundary. The per-sender Poisson clocks are unchanged; only the rate
	// each gap is drawn at follows the schedule, sampled at the sender's
	// current clock. Figure p2 uses a quiet→burst→quiet shape to exercise
	// the adaptive control plane against static pipeline widths.
	Load []LoadPhase

	Messages int   // messages measured (after warmup)
	Warmup   int   // messages excluded from statistics
	Seed     int64 // deterministic workload seed

	// PartitionFrom/PartitionUntil, when 0 < PartitionFrom <
	// PartitionUntil, inject a partition episode: at virtual instant
	// PartitionFrom the processes of PartitionMinority are cut off from the
	// rest, and at PartitionUntil the network heals. The default semantics
	// are simnet.PartitionDelay (TCP-like: the cut buffers traffic and the
	// heal flushes it, so channels stay reliable and the minority catches
	// up); PartitionDrop switches to black-hole semantics, under which
	// traffic sent across the cut is lost for good.
	PartitionFrom     time.Duration
	PartitionUntil    time.Duration
	PartitionMinority []int
	PartitionDrop     bool

	// RestartProc, when non-zero, injects a crash-restart episode: the
	// process crashes at RestartCrashAt (in-flight traffic dropped) and — if
	// RestartAt is non-zero — a fresh incarnation on the same store rejoins
	// at RestartAt, catching the tail through the repair paths. RestartAt of
	// zero leaves the process down for the rest of the run (the no-recovery
	// baseline of figure r1). Restarting requires Stack.Persist; the restarted
	// process is excluded from the senders (its pending workload timers
	// would die with the crash) but still measured, so full delivery — and
	// the Rate metric — waits for its catch-up.
	RestartProc    int
	RestartCrashAt time.Duration
	RestartAt      time.Duration

	// Churn schedules membership changes: at each event's virtual instant,
	// process From (a member at that time) atomically broadcasts the
	// join/leave, which takes effect at its delivery point in the total
	// order. Requires Stack.Members; churn runs want Stack.Recover (and
	// Snapshot for deep joins) so joiners can catch up.
	Churn []ChurnEvent

	// MaxVirtual caps the simulated time after the last send; messages
	// undelivered by then (saturation) still count into the mean with
	// the cap as a floor, so saturated points read as "very slow" rather
	// than being silently dropped.
	MaxVirtual time.Duration

	// ProcDelays charges extra receive-side CPU per protocol layer
	// (simnet.SetProcessingDelays). Figure c1 uses it to put the stack in
	// a CPU-saturated regime where per-message consensus cost dominates,
	// making batching and pipeline widening distinguishable.
	ProcDelays simnet.ProcessingDelays

	// Trace records every message's lifecycle events (abroadcast, receipt,
	// propose, decide, ordered, adeliver, plus recovery events) during the
	// run. The recorder only appends to a buffer on the existing event
	// paths — it never schedules or reads wall clocks — so a traced run's
	// measurements are identical to an untraced one's. Result.TraceLog
	// carries the recording and Result.Stages the per-stage latency
	// decomposition computed from it (figure o1).
	Trace bool
}

// ChurnEvent is one scheduled membership change of an experiment.
type ChurnEvent struct {
	At    time.Duration // virtual instant the sponsor broadcasts the change
	From  int           // sponsoring member that broadcasts it
	Join  int           // process joining (0 = none)
	Leave int           // process leaving (0 = none)
}

// Result is the outcome of one experiment.
type Result struct {
	Experiment  Experiment
	Latency     stats.Summary // milliseconds
	Delivered   int           // measured messages fully delivered everywhere
	Undelivered int           // measured messages missing somewhere at the horizon
	Rate        float64       // measured messages fully delivered everywhere, per virtual second
	MsgsSent    int64
	BytesSent   int64
	Virtual     time.Duration // simulated duration
	Wall        time.Duration // host duration
	// Stages decomposes the mean latency into its pipeline stages (nil
	// unless Experiment.Trace). The three means sum to (approximately) the
	// Latency mean over the same fully-delivered messages.
	Stages *StageBreakdown
	// TraceLog is the run's lifecycle recording (nil unless
	// Experiment.Trace); export it with WriteJSONL or WriteChrome.
	TraceLog *trace.Recorder
}

// StageBreakdown splits the mean abroadcast-to-adeliver latency into the
// three stages every delivered message passes through, averaged — like the
// latency metric itself — over all measured (message, process) pairs that
// completed every stage.
type StageBreakdown struct {
	// DiffusionMs: abroadcast at the sender → payload receipt at the
	// delivering process (reliable-broadcast propagation).
	DiffusionMs float64
	// ConsensusMs: payload receipt → the identifier's ordered-queue entry.
	// Decisions are consumed in serial instance order, so this stage
	// includes both the deciding instance's rounds and the wait for every
	// earlier instance to be consumed — the component pipelining (W)
	// attacks.
	ConsensusMs float64
	// QueueMs: ordered-queue entry → adeliver. Near zero in healthy runs
	// (an ordered identifier whose payload is present delivers in the same
	// step); it grows only when delivery stalls behind a missing payload
	// (the fetch path) or an undelivered predecessor.
	QueueMs float64
}

// Run executes one experiment on the simulator.
func Run(e Experiment) (Result, error) {
	if e.N < 1 || e.Messages <= 0 || (e.Throughput <= 0 && len(e.Load) == 0) {
		return Result{}, fmt.Errorf("bench: invalid experiment %+v", e)
	}
	if err := validLoad(e.Load); err != nil {
		return Result{}, err
	}
	if err := e.validMembership(); err != nil {
		return Result{}, err
	}
	if err := e.validRestart(); err != nil {
		return Result{}, err
	}
	if e.MaxVirtual <= 0 {
		e.MaxVirtual = 30 * time.Second
	}
	//abcheck:ignore walltime Result.Wall reports host run time of the benchmark itself; it never feeds the simulation and is stripped from pinned JSON.
	start := time.Now()

	w := simnet.NewWorld(e.N, e.Params, e.Seed)
	if len(e.ProcDelays) != 0 {
		w.SetProcessingDelays(e.ProcDelays)
	}
	// One recorder shared by all processes (Event.P tells them apart); on
	// the simulator's single event loop arrival order is deterministic.
	var tr *trace.Recorder
	if e.Trace {
		tr = trace.New()
	}

	if len(e.PartitionMinority) > 0 && e.PartitionFrom > 0 && e.PartitionUntil > e.PartitionFrom {
		minority := make([]stack.ProcessID, len(e.PartitionMinority))
		for i, p := range e.PartitionMinority {
			if p < 1 || p > e.N {
				return Result{}, fmt.Errorf("bench: partition minority process %d out of range 1..%d", p, e.N)
			}
			minority[i] = stack.ProcessID(p)
		}
		mode := simnet.PartitionDelay
		if e.PartitionDrop {
			mode = simnet.PartitionDrop
		}
		w.Engine().At(sim.Time(e.PartitionFrom), func() { w.Partition(mode, minority) })
		w.Engine().At(sim.Time(e.PartitionUntil), func() { w.Heal() })
	}

	total := e.Messages + e.Warmup
	sentAt := make(map[msg.ID]time.Duration, total)
	// deliveredAt[p][id] = virtual delivery instant
	deliveredAt := make([]map[msg.ID]time.Duration, e.N+1)

	engines := make([]*core.Engine, e.N+1)
	var stores []*persist.MemStore
	if e.Stack.Persist != nil {
		stores = make([]*persist.MemStore, e.N+1)
		for i := 1; i <= e.N; i++ {
			stores[i] = persist.NewMemStore()
		}
	}
	// startProc builds one incarnation of process i on the given node — called
	// once per process at setup, and again from a restart episode, where the
	// fresh incarnation rehydrates from stores[i].
	startProc := func(i int, node *stack.Node) error {
		cfg := e.Stack
		cfg.RcvCheckCost = e.Params.RcvCheckPerID
		cfg.Trace = tr
		if cfg.Persist != nil {
			pc := *cfg.Persist
			pc.Store = stores[i]
			cfg.Persist = &pc
		}
		cfg.Deliver = func(app *msg.App) {
			// First delivery only: across a restart the suffix above the
			// checkpoint redelivers (at-least-once), and latency measures
			// the original delivery instant.
			if _, ok := deliveredAt[i][app.ID]; !ok {
				deliveredAt[i][app.ID] = virt(w)
			}
		}
		eng, err := core.New(node, cfg)
		if err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		engines[i] = eng
		return nil
	}
	for i := 1; i <= e.N; i++ {
		deliveredAt[i] = make(map[msg.ID]time.Duration, total)
		if err := startProc(i, w.Node(stack.ProcessID(i))); err != nil {
			return Result{}, err
		}
	}

	// Crash-restart episode: crash drops in-flight traffic; the restart (if
	// scheduled) rebuilds the stack on the fresh node, rehydrating from the
	// same store.
	var restartErr error
	if e.RestartProc != 0 {
		rp := stack.ProcessID(e.RestartProc)
		w.Engine().At(sim.Time(e.RestartCrashAt), func() { w.Crash(rp, simnet.DropInFlight) })
		if e.RestartAt > 0 {
			w.Engine().At(sim.Time(e.RestartAt), func() {
				if err := startProc(e.RestartProc, w.Restart(rp)); err != nil && restartErr == nil {
					restartErr = err
				}
			})
		}
	}

	// Membership churn: each event's sponsor broadcasts the change at its
	// scheduled instant, on its own event loop like any other send.
	for _, ce := range e.Churn {
		ce := ce
		w.After(stack.ProcessID(ce.From), ce.At, func() {
			engines[ce.From].BroadcastConfig(msg.ConfigChange{
				Join:  stack.ProcessID(ce.Join),
				Leave: stack.ProcessID(ce.Leave),
			})
		})
	}

	// Symmetric Poisson workload: round-robin senders, each keeping its
	// own Poisson clock, with exponential inter-arrival times drawn at the
	// offered rate current at that clock (constant, or following the Load
	// schedule). Under dynamic membership only the stable members send.
	rng := rand.New(rand.NewSource(e.Seed*6364136223846793005 + 1442695040888963407))
	var lastSend time.Duration
	for k, ev := range sendSchedule(&e, rng, total) {
		p, at := ev.p, ev.at
		if at > lastSend {
			lastSend = at
		}
		warm := k < e.Warmup
		payload := make([]byte, e.Payload)
		w.After(p, at, func() {
			id := engines[p].ABroadcast(payload)
			if !warm {
				sentAt[id] = virt(w)
			}
		})
	}

	// Run in slices until every measured message is delivered at every
	// measured process (the final view's members under churn, everyone
	// otherwise) or the horizon passes.
	procs := e.measuredProcs()
	horizon := lastSend + e.MaxVirtual
	for virt(w) < horizon {
		w.RunFor(250 * time.Millisecond)
		if len(sentAt) == e.Messages && allDelivered(sentAt, deliveredAt, procs) {
			break
		}
	}
	if restartErr != nil {
		return Result{}, restartErr
	}

	// Latency per message: average over all processes of
	// adeliver - abroadcast (the paper's metric).
	var lat stats.Sample
	delivered, undelivered := 0, 0
	end := virt(w)
	// Iterate in canonical id order so floating-point accumulation is
	// deterministic across runs.
	ids := make([]msg.ID, 0, len(sentAt))
	for id := range sentAt {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	for _, id := range ids {
		t0 := sentAt[id]
		sum := 0.0
		missing := false
		for _, p := range procs {
			td, ok := deliveredAt[p][id]
			if !ok {
				missing = true
				td = end // saturation floor
			}
			sum += float64(td-t0) / float64(time.Millisecond)
		}
		lat.Add(sum / float64(len(procs)))
		if missing {
			undelivered++
		} else {
			delivered++
		}
	}

	rate := 0.0
	if end > 0 {
		// Delivered throughput over the whole run. Under saturation the
		// run lasts until the horizon for every configuration, so this is
		// the discriminating metric: configurations with a higher ordering
		// ceiling deliver more of the measured messages in the same
		// virtual time.
		rate = float64(delivered) / end.Seconds()
	}
	return Result{
		Experiment:  e,
		Latency:     lat.Summarize(),
		Delivered:   delivered,
		Undelivered: undelivered,
		Rate:        rate,
		MsgsSent:    w.MsgsSent(),
		BytesSent:   w.BytesSent(),
		Virtual:     end,
		Wall:        time.Since(start), //abcheck:ignore walltime host-side run time for logs; excluded from byte-stable output.
		Stages:      stageBreakdown(tr, ids, procs),
		TraceLog:    tr,
	}, nil
}

// stageBreakdown computes the per-stage latency decomposition from a run's
// trace: for every measured message and measured process whose chain
// completed (abroadcast → receive → ordered → adeliver, first occurrence
// each), the three stage durations are averaged the same way the latency
// metric averages end-to-end time. Returns nil without a trace or when no
// chain completed.
func stageBreakdown(tr *trace.Recorder, ids []msg.ID, procs []int) *StageBreakdown {
	if tr == nil {
		return nil
	}
	broadcastAt := make(map[msg.ID]time.Time)
	type stamp struct{ receive, ordered, adeliver time.Time }
	stamps := make(map[stack.ProcessID]map[msg.ID]*stamp)
	at := func(p stack.ProcessID, id msg.ID) *stamp {
		m := stamps[p]
		if m == nil {
			m = make(map[msg.ID]*stamp)
			stamps[p] = m
		}
		s := m[id]
		if s == nil {
			s = &stamp{}
			m[id] = s
		}
		return s
	}
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindABroadcast:
			if _, ok := broadcastAt[ev.ID]; !ok {
				broadcastAt[ev.ID] = ev.At
			}
		case trace.KindReceive:
			if s := at(ev.P, ev.ID); s.receive.IsZero() {
				s.receive = ev.At
			}
		case trace.KindOrdered:
			if s := at(ev.P, ev.ID); s.ordered.IsZero() {
				s.ordered = ev.At
			}
		case trace.KindADeliver:
			if s := at(ev.P, ev.ID); s.adeliver.IsZero() {
				s.adeliver = ev.At
			}
		}
	}
	var diffusion, consensus, queue float64
	n := 0
	// ids arrive pre-sorted, so accumulation order — and the float sums —
	// are deterministic.
	for _, id := range ids {
		t0, ok := broadcastAt[id]
		if !ok {
			continue
		}
		for _, p := range procs {
			s := stamps[stack.ProcessID(p)][id]
			if s == nil || s.receive.IsZero() || s.ordered.IsZero() || s.adeliver.IsZero() {
				continue
			}
			diffusion += float64(s.receive.Sub(t0)) / float64(time.Millisecond)
			consensus += float64(s.ordered.Sub(s.receive)) / float64(time.Millisecond)
			queue += float64(s.adeliver.Sub(s.ordered)) / float64(time.Millisecond)
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return &StageBreakdown{
		DiffusionMs: diffusion / float64(n),
		ConsensusMs: consensus / float64(n),
		QueueMs:     queue / float64(n),
	}
}

// virt returns the current virtual time as a duration since simulation
// start.
func virt(w *simnet.World) time.Duration {
	return w.Now().Sub(time.Unix(0, 0))
}

// allDelivered reports whether every measured message reached every
// measured process.
func allDelivered(sentAt map[msg.ID]time.Duration, deliveredAt []map[msg.ID]time.Duration, procs []int) bool {
	for id := range sentAt {
		for _, p := range procs {
			if _, ok := deliveredAt[p][id]; !ok {
				return false
			}
		}
	}
	return true
}

// validMembership checks the experiment's Stack.Members/Churn configuration.
func (e *Experiment) validMembership() error {
	if e.Stack.Members == nil {
		if len(e.Churn) > 0 {
			return fmt.Errorf("bench: Churn requires Stack.Members")
		}
		return nil
	}
	if len(e.Stack.Members) == 0 {
		return fmt.Errorf("bench: empty initial member set")
	}
	for _, m := range e.Stack.Members {
		if m < 1 || int(m) > e.N {
			return fmt.Errorf("bench: member %d out of range 1..%d", m, e.N)
		}
	}
	for _, ce := range e.Churn {
		if ce.From < 1 || ce.From > e.N {
			return fmt.Errorf("bench: churn sponsor %d out of range 1..%d", ce.From, e.N)
		}
		if ce.Join < 0 || ce.Join > e.N || ce.Leave < 0 || ce.Leave > e.N {
			return fmt.Errorf("bench: churn target out of range 1..%d", e.N)
		}
		if ce.Join == 0 && ce.Leave == 0 {
			return fmt.Errorf("bench: churn event with no join and no leave")
		}
	}
	return nil
}

// validRestart checks the experiment's crash-restart episode.
func (e *Experiment) validRestart() error {
	if e.RestartProc == 0 {
		if e.RestartCrashAt != 0 || e.RestartAt != 0 {
			return fmt.Errorf("bench: restart schedule without RestartProc")
		}
		return nil
	}
	if e.RestartProc < 1 || e.RestartProc > e.N {
		return fmt.Errorf("bench: RestartProc %d out of range 1..%d", e.RestartProc, e.N)
	}
	if e.RestartCrashAt <= 0 {
		return fmt.Errorf("bench: RestartProc requires RestartCrashAt > 0")
	}
	if e.RestartAt != 0 {
		if e.RestartAt <= e.RestartCrashAt {
			return fmt.Errorf("bench: RestartAt must follow RestartCrashAt")
		}
		if e.Stack.Persist == nil {
			return fmt.Errorf("bench: restarting requires Stack.Persist (the checkpoint to rejoin from)")
		}
	}
	if e.Stack.Members != nil {
		return fmt.Errorf("bench: restart episodes and dynamic membership cannot be combined")
	}
	return nil
}

// senderProcs returns the workload's senders: every process for a static
// run, the stable members (initial members no churn event removes) under
// dynamic membership — a joiner cannot send before its join applies and a
// leaver's late sends could never complete, so neither belongs in a
// full-delivery workload. A crash-restart episode's subject is likewise
// excluded: its pending workload timers would die with the crash.
func (e *Experiment) senderProcs() []stack.ProcessID {
	if e.Stack.Members == nil {
		out := make([]stack.ProcessID, 0, e.N)
		for i := 1; i <= e.N; i++ {
			if i != e.RestartProc {
				out = append(out, stack.ProcessID(i))
			}
		}
		return out
	}
	leaves := make(map[int]bool, len(e.Churn))
	for _, ce := range e.Churn {
		if ce.Leave != 0 {
			leaves[ce.Leave] = true
		}
	}
	out := make([]stack.ProcessID, 0, len(e.Stack.Members))
	for _, m := range e.Stack.Members {
		if !leaves[int(m)] {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// measuredProcs returns the processes full delivery is measured at: every
// process for a static run, the final view's members under churn (applying
// the scheduled joins and leaves to the initial set, in schedule order).
func (e *Experiment) measuredProcs() []int {
	if e.Stack.Members == nil {
		out := make([]int, e.N)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	in := make(map[int]bool, len(e.Stack.Members))
	for _, m := range e.Stack.Members {
		in[int(m)] = true
	}
	for _, ce := range e.Churn {
		if ce.Join != 0 {
			in[ce.Join] = true
		}
		if ce.Leave != 0 {
			delete(in, ce.Leave)
		}
	}
	out := make([]int, 0, len(in))
	for m := range in {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// defaultMessages scales the measured message count with throughput so that
// low-rate points stay fast and high-rate points still sample a steady
// state.
func defaultMessages(throughput float64, scale float64) (measured, warmup int) {
	m := int(throughput * 1.5 * scale)
	if m < 120 {
		m = 120
	}
	if m > 2400 {
		m = 2400
	}
	wu := m / 4
	return m, wu
}
