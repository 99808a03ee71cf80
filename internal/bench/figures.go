package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"abcast/internal/core"
	"abcast/internal/netmodel"
	"abcast/internal/rbcast"
	"abcast/internal/relink"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// StackSpec is one curve of a figure: a label and the engine configuration
// template the curve's experiments run (see Experiment.Stack). A figure's
// Build passes Stack through and touches only what the figure sweeps — the
// pipeline width, for the W-sweep figures.
type StackSpec struct {
	Label string
	Stack core.Config
	// Churn marks the curve that runs the figure's membership-change
	// schedule; the figure's Build decides the actual events. Figure m1
	// compares a static member set against one join plus one leave.
	Churn bool
	// Restart marks the curve whose crashed process comes back from its
	// checkpoint; the figure's Build decides the schedule. Figure r1
	// compares restart-from-checkpoint against staying down.
	Restart bool
}

// Metric selects what a figure's cells report.
type Metric int

// Available metrics.
const (
	// MetricLatency is the paper's metric: mean abroadcast-to-adeliver
	// latency in milliseconds.
	MetricLatency Metric = iota
	// MetricRate is delivered throughput in messages per virtual second —
	// the metric of the pipeline ablation, where the interesting quantity
	// is the ordering ceiling rather than per-message latency.
	MetricRate
)

// FigureSpec declares how to regenerate one of the paper's figures: an x
// axis, a set of stacks (curves), and a builder mapping (stack, x) to an
// experiment.
type FigureSpec struct {
	ID    string
	Title string
	// Desc is the short one-liner `abench -list` prints (falls back to
	// Title when empty); it is not part of the byte-stable JSON output.
	Desc   string
	XLabel string
	Metric Metric // what the cells report (default MetricLatency)
	Xs     []float64
	Stacks []StackSpec
	Build  func(s StackSpec, x float64, scale float64, seed int64) Experiment
}

// Point is one measurement of one curve.
type Point struct {
	X      float64
	Result Result
}

// Figure is a regenerated figure: one series of points per stack.
type Figure struct {
	Spec   FigureSpec
	Series map[string][]Point // label -> points, in Xs order
}

// Run regenerates the figure. scale (0,1] shrinks the per-point message
// counts for quick runs; 1.0 is the full configuration.
func (f FigureSpec) Run(scale float64, seed int64) (Figure, error) {
	if scale <= 0 {
		scale = 1
	}
	out := Figure{Spec: f, Series: make(map[string][]Point, len(f.Stacks))}
	for _, s := range f.Stacks {
		for _, x := range f.Xs {
			e := f.Build(s, x, scale, seed)
			r, err := Run(e)
			if err != nil {
				return Figure{}, fmt.Errorf("figure %s, stack %q, x=%v: %w", f.ID, s.Label, x, err)
			}
			out.Series[s.Label] = append(out.Series[s.Label], Point{X: x, Result: r})
		}
	}
	return out, nil
}

// Print renders the figure as an aligned table of mean latencies (ms), one
// row per x value and one column per stack — the same rows the paper plots.
func (f Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n", f.Spec.ID, f.Spec.Title)
	labels := make([]string, 0, len(f.Spec.Stacks))
	for _, s := range f.Spec.Stacks {
		labels = append(labels, s.Label)
	}
	fmt.Fprintf(w, "%-24s", f.Spec.XLabel)
	for _, l := range labels {
		fmt.Fprintf(w, "  %22s", l)
	}
	fmt.Fprintln(w)
	for i, x := range f.Spec.Xs {
		fmt.Fprintf(w, "%-24.0f", x)
		for _, l := range labels {
			pts := f.Series[l]
			if i < len(pts) {
				r := pts[i].Result
				var cell string
				switch {
				case r.Stages != nil:
					// Traced figures print the stacked decomposition:
					// diffusion + consensus + queue (ms).
					cell = fmt.Sprintf("%.2f+%.2f+%.2f ms",
						r.Stages.DiffusionMs, r.Stages.ConsensusMs, r.Stages.QueueMs)
				case f.Spec.Metric == MetricRate:
					cell = fmt.Sprintf("%.0f msg/s", r.Rate)
				default:
					cell = fmt.Sprintf("%.3f ms", r.Latency.Mean)
				}
				if r.Undelivered > 0 {
					cell += "*" // saturated: some messages missed the horizon
				}
				fmt.Fprintf(w, "  %22s", cell)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// PipelineParams is the network point of the pipeline ablation (figure p1):
// Setup 2 hosts on 1 ms links — a metro/cross-datacenter propagation delay
// instead of the paper's LAN. On a LAN a consensus round costs about as
// much CPU as wire time, so the serial engine is CPU-limited and pipelining
// has nothing to hide; with millisecond links the serial engine idles
// between rounds, which is exactly the gap W concurrent instances fill.
func PipelineParams() netmodel.Params {
	p := netmodel.Setup2()
	p.Latency = time.Millisecond
	return p
}

// seq builds an inclusive numeric range.
func seq(from, to, step float64) []float64 {
	var out []float64
	for x := from; x <= to+1e-9; x += step {
		out = append(out, x)
	}
	return out
}

// indirectCT is the stack the extension figures run: IndirectCT over eager
// diffusion, with the given per-instance batch cap (0 = unbounded).
func indirectCT(maxBatch int) core.Config {
	return core.Config{Variant: core.VariantIndirectCT, RB: rbcast.KindEager, MaxBatch: maxBatch}
}

// recovering returns c with the recovery subsystem on: per-peer
// retransmission buffers of the given capacity (small values force eviction
// during a partition and exercise the decide-relay/fetch path instead of pure
// replay) and the given decision-log retention (small values push a
// partitioned minority beyond the relay's horizon); 0 = the layer's default.
func recovering(c core.Config, buffer, logCap int) core.Config {
	c.Recover = &core.RecoverConfig{Link: relink.Config{BufferCap: buffer}, DecisionLogCap: logCap}
	return c
}

// snapshotting returns c with snapshot state transfer on.
func snapshotting(c core.Config) core.Config {
	c.Snapshot = true
	return c
}

// atWidth returns c with pipeline width w — the x axis of the W sweeps.
func atWidth(c core.Config, w int) core.Config {
	c.Pipeline = w
	return c
}

// Stack labels shared across figures (matching the paper's legends).
var (
	stackIndirect   = StackSpec{Label: "Indirect consensus", Stack: indirectCT(0)}
	stackIndirectN1 = StackSpec{Label: "Indirect w/ O(n) rb", Stack: core.Config{Variant: core.VariantIndirectCT, RB: rbcast.KindLazy}}
	stackOnMsgs     = StackSpec{Label: "Consensus", Stack: core.Config{Variant: core.VariantConsensusMsgs, RB: rbcast.KindEager}}
	stackFaulty     = StackSpec{Label: "(Faulty) consensus", Stack: core.Config{Variant: core.VariantFaultyIDs, RB: rbcast.KindEager}}
	stackURB        = StackSpec{Label: "Consensus w/ URB", Stack: core.Config{Variant: core.VariantURBIDs, RB: rbcast.KindUniform}}

	stacksCappedVsUnbounded = []StackSpec{
		{Label: "Indirect, MaxBatch=4", Stack: indirectCT(4)},
		{Label: "Indirect, unbounded", Stack: indirectCT(0)},
	}
)

// buildPayloadSweep returns a builder for latency-vs-payload figures.
func buildPayloadSweep(n int, params netmodel.Params, throughput float64) func(StackSpec, float64, float64, int64) Experiment {
	return func(s StackSpec, x, scale float64, seed int64) Experiment {
		measured, warmup := defaultMessages(throughput, scale)
		return Experiment{
			Name:       fmt.Sprintf("%s tp=%.0f payload=%.0f", s.Label, throughput, x),
			N:          n,
			Params:     params,
			Stack:      s.Stack,
			Throughput: throughput,
			Payload:    int(x),
			Messages:   measured,
			Warmup:     warmup,
			Seed:       seed,
			MaxVirtual: 30 * time.Second,
		}
	}
}

// buildThroughputSweep returns a builder for latency-vs-throughput figures.
func buildThroughputSweep(n int, params netmodel.Params, payload int) func(StackSpec, float64, float64, int64) Experiment {
	return func(s StackSpec, x, scale float64, seed int64) Experiment {
		measured, warmup := defaultMessages(x, scale)
		return Experiment{
			Name:       fmt.Sprintf("%s tp=%.0f payload=%d", s.Label, x, payload),
			N:          n,
			Params:     params,
			Stack:      s.Stack,
			Throughput: x,
			Payload:    payload,
			Messages:   measured,
			Warmup:     warmup,
			Seed:       seed,
			MaxVirtual: 30 * time.Second,
		}
	}
}

// Figures returns every figure specification, keyed by id.
func Figures() map[string]FigureSpec {
	s1 := netmodel.Setup1()
	s2 := netmodel.Setup2()
	figs := []FigureSpec{
		{
			ID:     "1a",
			Title:  "latency vs payload, n=3, 100 msg/s, Setup 1 (indirect consensus vs consensus on messages)",
			XLabel: "payload [bytes]",
			Xs:     seq(0, 5000, 1000),
			Stacks: []StackSpec{stackIndirect, stackOnMsgs},
			Build:  buildPayloadSweep(3, s1, 100),
		},
		{
			ID:     "1b",
			Title:  "latency vs payload, n=3, 800 msg/s, Setup 1 (indirect consensus vs consensus on messages)",
			XLabel: "payload [bytes]",
			Xs:     seq(0, 4000, 1000),
			Stacks: []StackSpec{stackIndirect, stackOnMsgs},
			Build:  buildPayloadSweep(3, s1, 800),
		},
		{
			ID:     "3a",
			Title:  "latency vs throughput, n=3, payload 1 B, Setup 1 (indirect vs faulty consensus on ids)",
			XLabel: "throughput [msg/s]",
			Xs:     []float64{100, 200, 400, 600, 800},
			Stacks: []StackSpec{stackIndirect, stackFaulty},
			Build:  buildThroughputSweep(3, s1, 1),
		},
		{
			ID:     "3b",
			Title:  "latency vs throughput, n=5, payload 1 B, Setup 1 (indirect vs faulty consensus on ids)",
			XLabel: "throughput [msg/s]",
			Xs:     []float64{100, 200, 400, 600, 800},
			Stacks: []StackSpec{stackIndirect, stackFaulty},
			Build:  buildThroughputSweep(5, s1, 1),
		},
		{
			ID:     "7a",
			Title:  "latency vs throughput, n=3, 1 B, Setup 2, O(n²) rbcast (indirect+rb vs consensus+URB)",
			XLabel: "throughput [msg/s]",
			Xs:     []float64{500, 750, 1000, 1250, 1500, 1750, 2000},
			Stacks: []StackSpec{stackIndirect, stackURB},
			Build:  buildThroughputSweep(3, s2, 1),
		},
		{
			ID:     "7b",
			Title:  "latency vs throughput, n=3, 1 B, Setup 2, O(n) rbcast (indirect+rb vs consensus+URB)",
			XLabel: "throughput [msg/s]",
			Xs:     []float64{500, 750, 1000, 1250, 1500, 1750, 2000},
			Stacks: []StackSpec{stackIndirectN1, stackURB},
			Build:  buildThroughputSweep(3, s2, 1),
		},
	}
	// Figure 4: n=5, indirect vs faulty, payload sweep at four throughputs.
	for _, sub := range []struct {
		id  string
		tp  float64
		max float64 // the paper sweeps only 0-2000 B at 800 msg/s
	}{{"4a", 10, 5000}, {"4b", 100, 5000}, {"4c", 400, 5000}, {"4d", 800, 2000}} {
		figs = append(figs, FigureSpec{
			ID:     sub.id,
			Title:  fmt.Sprintf("latency vs payload, n=5, %.0f msg/s, Setup 1 (indirect vs faulty consensus on ids)", sub.tp),
			XLabel: "payload [bytes]",
			Xs:     seq(0, sub.max, sub.max/5),
			Stacks: []StackSpec{stackIndirect, stackFaulty},
			Build:  buildPayloadSweep(5, s1, sub.tp),
		})
	}
	// Figures 5 and 6: n=3, Setup 2, indirect+rb vs consensus+URB, payload
	// sweeps at three throughputs; Figure 5 uses O(n²) rbcast, Figure 6
	// the O(n) one.
	for _, group := range []struct {
		fig   string
		stack StackSpec
	}{{"5", stackIndirect}, {"6", stackIndirectN1}} {
		for i, tp := range []float64{500, 1500, 2000} {
			id := fmt.Sprintf("%s%c", group.fig, 'a'+i)
			figs = append(figs, FigureSpec{
				ID: id,
				Title: fmt.Sprintf("latency vs payload, n=3, %.0f msg/s, Setup 2, %s diffusion (vs consensus+URB)",
					tp, group.stack.Stack.RB),
				XLabel: "payload [bytes]",
				Xs:     seq(0, 2500, 500),
				Stacks: []StackSpec{group.stack, stackURB},
				Build:  buildPayloadSweep(3, s2, tp),
			})
		}
	}
	// Extension (not a figure in the paper): scalability in the number of
	// processes. Section 2.1 claims the advantage of identifiers "becomes
	// clearer ... as the size of the system increases"; this sweep
	// substantiates it.
	figs = append(figs, FigureSpec{
		ID:     "s1",
		Title:  "EXTENSION: latency vs system size, 200 msg/s, 1000 B, Setup 1",
		Desc:   "scalability extension: latency vs system size n",
		XLabel: "processes [n]",
		Xs:     []float64{3, 5, 7, 9},
		Stacks: []StackSpec{stackIndirect, stackOnMsgs},
		Build: func(s StackSpec, x, scale float64, seed int64) Experiment {
			measured, warmup := defaultMessages(200, scale)
			return Experiment{
				Name:       fmt.Sprintf("%s n=%.0f", s.Label, x),
				N:          int(x),
				Params:     s1,
				Stack:      s.Stack,
				Throughput: 200,
				Payload:    1000,
				Messages:   measured,
				Warmup:     warmup,
				Seed:       seed,
				MaxVirtual: 30 * time.Second,
			}
		},
	})
	// Extension: the pipeline ablation. Delivered throughput as a function
	// of the pipeline width W, at an offered load that saturates the serial
	// engine when MaxBatch bounds per-instance work. The capped curve shows
	// the point of pipelining — the ceiling scales with W — while the
	// unbounded curve is the control: Algorithm 1's whole-set batching
	// already absorbs load into bigger batches, so W buys little.
	figs = append(figs, FigureSpec{
		ID:     "p1",
		Title:  "EXTENSION: delivered throughput vs pipeline width W, n=3, offered 3000 msg/s, 1 B, Setup 2 @ 1 ms links, IndirectCT",
		Desc:   "pipeline ablation: delivered rate vs W on metro 1 ms links, capped vs unbounded batch",
		XLabel: "pipeline width [W]",
		Metric: MetricRate,
		Xs:     []float64{1, 2, 4, 8},
		Stacks: stacksCappedVsUnbounded,
		Build: func(s StackSpec, x, scale float64, seed int64) Experiment {
			measured, warmup := defaultMessages(3000, scale)
			return Experiment{
				Name:       fmt.Sprintf("%s W=%.0f", s.Label, x),
				N:          3,
				Params:     PipelineParams(),
				Stack:      atWidth(s.Stack, int(x)),
				Throughput: 3000,
				Payload:    1,
				Messages:   measured,
				Warmup:     warmup,
				Seed:       seed,
				MaxVirtual: 2 * time.Second,
			}
		},
	})
	// Extension: geo-replication. Figure g1 is the WAN counterpart of p1 —
	// mean delivery latency as a function of the pipeline width W with
	// n=3 processes spread over the three sites of netmodel.WAN3Sites. A
	// consensus round costs an inter-site round trip (~100 ms aggregate),
	// so with per-instance work capped the serial engine's ordering ceiling
	// sits far below the offered load and queueing delay dominates; W
	// concurrent instances lift the ceiling and collapse the latency. The
	// unbounded curve is again the control.
	figs = append(figs, FigureSpec{
		ID:     "g1",
		Title:  "EXTENSION: latency vs pipeline width W, n=3 across 3 WAN sites (1 ms intra, 40-126 ms inter), 100 msg/s, 100 B, IndirectCT",
		Desc:   "WAN: latency vs pipeline width W across 3 sites",
		XLabel: "pipeline width [W]",
		Xs:     []float64{1, 2, 4, 8},
		Stacks: stacksCappedVsUnbounded,
		Build: func(s StackSpec, x, scale float64, seed int64) Experiment {
			measured, warmup := defaultMessages(100, scale)
			return Experiment{
				Name:       fmt.Sprintf("%s W=%.0f wan3", s.Label, x),
				N:          3,
				Params:     netmodel.WAN3Sites(),
				Stack:      atWidth(s.Stack, int(x)),
				Throughput: 100,
				Payload:    100,
				Messages:   measured,
				Warmup:     warmup,
				Seed:       seed,
				MaxVirtual: 90 * time.Second,
			}
		},
	})
	// Extension: figure g2 adds a partition-and-heal episode to the WAN
	// workload — the minority site (process 3) is cut off from 400 ms to
	// 1.1 s of virtual time under PartitionDelay (TCP-like) semantics, a
	// window the send schedule straddles at every scale. The majority pair
	// keeps ordering through the episode (CT tolerates f < n/2 unreachable
	// processes); at the heal, the held traffic flushes and the minority
	// catches up. The delivered-throughput metric shows both effects: the
	// backlog the episode creates and the rate at which each pipeline width
	// drains it.
	figs = append(figs, FigureSpec{
		ID:     "g2",
		Title:  "EXTENSION: delivered throughput vs pipeline width W across a minority-site partition (0.4-1.1 s, site of p3 cut, delay semantics), n=3 WAN, offered 120 msg/s, 100 B, IndirectCT",
		Desc:   "WAN: delivered rate across a delay-mode minority partition-and-heal",
		XLabel: "pipeline width [W]",
		Metric: MetricRate,
		Xs:     []float64{1, 2, 4, 8},
		Stacks: stacksCappedVsUnbounded,
		Build: func(s StackSpec, x, scale float64, seed int64) Experiment {
			measured, warmup := defaultMessages(120, scale)
			return Experiment{
				Name:              fmt.Sprintf("%s W=%.0f wan3+partition", s.Label, x),
				N:                 3,
				Params:            netmodel.WAN3Sites(),
				Stack:             atWidth(s.Stack, int(x)),
				Throughput:        120,
				Payload:           100,
				Messages:          measured,
				Warmup:            warmup,
				Seed:              seed,
				PartitionFrom:     400 * time.Millisecond,
				PartitionUntil:    1100 * time.Millisecond,
				PartitionMinority: []int{3},
				MaxVirtual:        90 * time.Second,
			}
		},
	})
	// Extension: figure g3 is the drop-mode counterpart of g2 — the same
	// WAN partition-and-heal episode, but as a black hole (drop semantics)
	// instead of TCP-like buffering. Without recovery the minority site
	// never catches up: messages sent across the cut are gone, the
	// minority misses decisions and payloads for good, and the
	// delivered-everywhere rate flatlines (points stay saturated at the
	// horizon). With the recovery subsystem enabled (retransmission +
	// anti-entropy + decide-relay + payload fetch) the minority reaches
	// full delivery after the heal and the rate recovers; the tiny-buffer
	// curve shows the same outcome when eviction has destroyed the
	// retransmission window and only the decide-relay/fetch path remains.
	figs = append(figs, FigureSpec{
		ID:     "g3",
		Title:  "EXTENSION: delivered throughput across a DROP-mode partition-and-heal (0.4-1.1 s, site of p3 black-holed), with vs without recovery, n=3 WAN, offered 120 msg/s, 100 B, IndirectCT, MaxBatch=4",
		Desc:   "WAN drop-mode partition: recovery off vs on vs eviction-forced relay",
		XLabel: "pipeline width [W]",
		Metric: MetricRate,
		Xs:     []float64{1, 2, 4},
		Stacks: []StackSpec{
			{Label: "No recovery", Stack: indirectCT(4)},
			{Label: "Recovery", Stack: recovering(indirectCT(4), 0, 0)},
			{Label: "Recovery, 16-msg buffers", Stack: recovering(indirectCT(4), 16, 0)},
		},
		Build: func(s StackSpec, x, scale float64, seed int64) Experiment {
			measured, warmup := defaultMessages(120, scale)
			return Experiment{
				Name:              fmt.Sprintf("%s W=%.0f wan3+drop-partition", s.Label, x),
				N:                 3,
				Params:            netmodel.WAN3Sites(),
				Stack:             atWidth(s.Stack, int(x)),
				Throughput:        120,
				Payload:           100,
				Messages:          measured,
				Warmup:            warmup,
				Seed:              seed,
				PartitionFrom:     400 * time.Millisecond,
				PartitionUntil:    1100 * time.Millisecond,
				PartitionMinority: []int{3},
				PartitionDrop:     true,
				// The no-recovery curve never reaches full delivery, so it
				// always runs to the horizon; keep it short.
				MaxVirtual: 20 * time.Second,
			}
		},
	})
	// Extension: figure g4 is the deep-lag counterpart of g3 — the same
	// drop-mode partition-and-heal episode, but with the decide-relay's
	// decision log capped at 8 instances (and 16-message retransmission
	// buffers, so eviction destroys the replay window). During the 0.7 s
	// cut the majority consumes far more than 8 instances, pushing the
	// minority beyond the relay's horizon: with relay-only recovery the
	// minority can never fill the evicted gap — it holds later decisions it
	// cannot consume, its own instances find no quorum, and the
	// delivered-everywhere rate flatlines at the horizon. With snapshot
	// state transfer enabled, the minority is shipped the delivered prefix,
	// atomically advanced past the gap, and the relay/fetch path finishes
	// the tail — full delivery everywhere, like g3's recovery curves but
	// for arbitrarily deep lag.
	figs = append(figs, FigureSpec{
		ID:     "g4",
		Title:  "EXTENSION: delivered throughput across a DROP-mode partition-and-heal with the minority beyond the decision-log horizon (log cap 8, 16-msg buffers): relay-only vs snapshot state transfer, n=3 WAN, offered 120 msg/s, 100 B, IndirectCT, MaxBatch=4",
		Desc:   "WAN deep-lag drop partition: relay-only vs snapshot state transfer",
		XLabel: "pipeline width [W]",
		Metric: MetricRate,
		Xs:     []float64{1, 2, 4},
		Stacks: []StackSpec{
			{Label: "Relay only", Stack: recovering(indirectCT(4), 16, 8)},
			{Label: "Snapshot", Stack: snapshotting(recovering(indirectCT(4), 16, 8))},
		},
		Build: func(s StackSpec, x, scale float64, seed int64) Experiment {
			measured, warmup := defaultMessages(120, scale)
			return Experiment{
				Name:              fmt.Sprintf("%s W=%.0f wan3+deep-lag", s.Label, x),
				N:                 3,
				Params:            netmodel.WAN3Sites(),
				Stack:             atWidth(s.Stack, int(x)),
				Throughput:        120,
				Payload:           100,
				Messages:          measured,
				Warmup:            warmup,
				Seed:              seed,
				PartitionFrom:     400 * time.Millisecond,
				PartitionUntil:    1100 * time.Millisecond,
				PartitionMinority: []int{3},
				PartitionDrop:     true,
				// The relay-only curve never reaches full delivery, so it
				// always runs to the horizon; keep it short.
				MaxVirtual: 20 * time.Second,
			}
		},
	})
	// Extension: figure p2 closes the loop the static ablations opened —
	// p1 and g1 show that the best hand-picked pipeline width differs
	// between the 1 ms metro network and the 3-site WAN, so no single
	// static W wins everywhere. p2 offers a ramped load (quiet → burst →
	// quiet; rates scaled to each topology's capacity, since a WAN orders
	// two orders of magnitude slower than a metro LAN) and compares static
	// W=1/4/8 against the adaptive control plane, which starts serial on
	// both topologies with identical controller settings and must discover
	// the width from its backlog. The delivered-rate metric rewards
	// draining the burst quickly: the adaptive curve is expected within
	// 10% of (or above) the best static curve on *both* x values — the
	// "no per-topology tuning" claim of the control plane.
	figs = append(figs, FigureSpec{
		ID:     "p2",
		Title:  "EXTENSION: delivered throughput under ramped offered load (quiet-burst-quiet): static pipeline widths vs adaptive control plane, n=3, 100 B, IndirectCT, static MaxBatch=4; x=1: Setup 2 @ 1 ms links (burst 6000 msg/s), x=2: wan3 (burst 320 msg/s)",
		Desc:   "ramped load: adaptive control plane vs static W=1/4/8, metro and wan3",
		XLabel: "topology [1=metro, 2=wan3]",
		Metric: MetricRate,
		Xs:     []float64{1, 2},
		Stacks: []StackSpec{
			{Label: "Static W=1", Stack: atWidth(indirectCT(4), 1)},
			{Label: "Static W=4", Stack: atWidth(indirectCT(4), 4)},
			{Label: "Static W=8", Stack: atWidth(indirectCT(4), 8)},
			{Label: "Adaptive", Stack: core.Config{Variant: core.VariantIndirectCT, RB: rbcast.KindEager, Adaptive: true}},
		},
		Build: func(s StackSpec, x, scale float64, seed int64) Experiment {
			params := PipelineParams()
			load := []LoadPhase{
				{Duration: 300 * time.Millisecond, Throughput: 500},
				{Duration: 700 * time.Millisecond, Throughput: 6000},
				{Duration: 500 * time.Millisecond, Throughput: 500},
			}
			maxVirtual := 20 * time.Second
			if x == 2 {
				params = netmodel.WAN3Sites()
				load = []LoadPhase{
					{Duration: 300 * time.Millisecond, Throughput: 40},
					{Duration: 700 * time.Millisecond, Throughput: 320},
					{Duration: 500 * time.Millisecond, Throughput: 40},
				}
				maxVirtual = 60 * time.Second
			}
			// Quick runs shrink the schedule, not the rates, so the shape —
			// and the controller's job — is preserved at every scale; the
			// message count is the schedule's integral.
			load = scaleLoad(load, scale)
			measured := loadTotal(load)
			return Experiment{
				Name:       fmt.Sprintf("%s x=%.0f ramped", s.Label, x),
				N:          3,
				Params:     params,
				Stack:      s.Stack,
				Load:       load,
				Payload:    100,
				Messages:   measured,
				Warmup:     measured / 8,
				Seed:       seed,
				MaxVirtual: maxVirtual,
			}
		},
	})
	m1Stack := snapshotting(atWidth(indirectCT(4), 4))
	m1Stack.Members = []stack.ProcessID{1, 2, 3}
	figs = append(figs, FigureSpec{
		ID:     "m1",
		Title:  "EXTENSION: delivered throughput under membership churn: static member set vs one join + one leave riding the total order, universe n=4 starting as {1,2,3}, 100 B, IndirectCT, W=4, MaxBatch=4, recovery+snapshot; x=1: Setup 2 @ 1 ms links (2000 msg/s), x=2: wan3 (160 msg/s)",
		Desc:   "membership churn: static members vs join+leave, metro and wan3",
		XLabel: "topology [1=metro, 2=wan3]",
		Metric: MetricRate,
		Xs:     []float64{1, 2},
		Stacks: []StackSpec{
			{Label: "Static members", Stack: m1Stack},
			{Label: "Join+Leave", Stack: m1Stack, Churn: true},
		},
		Build: func(s StackSpec, x, scale float64, seed int64) Experiment {
			params := PipelineParams()
			throughput := 2000.0
			maxVirtual := 20 * time.Second
			if x == 2 {
				params = netmodel.WAN3Sites()
				throughput = 160.0
				maxVirtual = 60 * time.Second
			}
			measured, warmup := defaultMessages(throughput, scale)
			// The churn schedule rides the send window: process 4 joins a
			// third of the way in, process 3 leaves at two thirds — so the
			// run exercises ordering across both switches while load is
			// still flowing, and the final view {1,2,4} measures a joiner
			// that had to catch up from serial 1. Member 1 sponsors both.
			sendDur := time.Duration(float64(measured+warmup) / throughput * float64(time.Second))
			e := Experiment{
				Name:       fmt.Sprintf("%s x=%.0f churn", s.Label, x),
				N:          4,
				Params:     params,
				Stack:      s.Stack,
				Throughput: throughput,
				Payload:    100,
				Messages:   measured,
				Warmup:     warmup,
				Seed:       seed,
				MaxVirtual: maxVirtual,
			}
			if s.Churn {
				e.Churn = []ChurnEvent{
					{At: sendDur / 3, From: 1, Join: 4},
					{At: sendDur * 2 / 3, From: 1, Leave: 3},
				}
			}
			return e
		},
	})
	// Extension: CPU saturation. The paper's LAN figures are network-bound;
	// figure c1 instead charges each received consensus-protocol message
	// 150 µs of processor time (simnet.ProcessingDelays), putting the
	// ordering layer in a CPU-saturated regime at 3000 msg/s offered. Per
	// Algorithm 1 the consensus message count scales with the number of
	// instances, not the identifiers per instance — so batching (MaxBatch
	// unbounded, many ids per instance) slashes the charged CPU and holds
	// the offered rate, while widening the pipeline with per-instance work
	// capped (MaxBatch=1, W up to 8) only multiplies concurrently-saturated
	// instances and stays flat: batching beats widening when the cost is
	// processor time rather than round trips.
	figs = append(figs, FigureSpec{
		ID:     "c1",
		Title:  "EXTENSION: delivered throughput vs pipeline width W with 150 µs CPU per received consensus message, n=3, offered 3000 msg/s, 1 B, Setup 1, IndirectCT",
		Desc:   "CPU saturation: delivered rate vs W with per-message consensus CPU cost, batching vs widening",
		XLabel: "pipeline width [W]",
		Metric: MetricRate,
		Xs:     []float64{1, 2, 4, 8},
		Stacks: []StackSpec{
			{Label: "Indirect, MaxBatch=1", Stack: indirectCT(1)},
			{Label: "Indirect, MaxBatch=4", Stack: indirectCT(4)},
			{Label: "Indirect, unbounded", Stack: indirectCT(0)},
		},
		Build: func(s StackSpec, x, scale float64, seed int64) Experiment {
			measured, warmup := defaultMessages(3000, scale)
			return Experiment{
				Name:       fmt.Sprintf("%s W=%.0f cpu", s.Label, x),
				N:          3,
				Params:     netmodel.Setup1(),
				Stack:      atWidth(s.Stack, int(x)),
				Throughput: 3000,
				Payload:    1,
				Messages:   measured,
				Warmup:     warmup,
				Seed:       seed,
				MaxVirtual: 2 * time.Second,
				ProcDelays: simnet.ProcessingDelays{stack.ProtoCons: 150 * time.Microsecond},
			}
		},
	})
	// Extension: crash-recovery. Figure r1 crashes process 3 at 800 ms with
	// in-flight traffic dropped and — on the restart curve — brings a fresh
	// incarnation back on the same checkpoint store after x ms of downtime.
	// The restarted process is excluded from the senders but still measured:
	// the Rate metric counts messages delivered *everywhere* per virtual
	// second, so each point folds in how long the restarted incarnation
	// takes to rehydrate from its checkpoint and catch the tail through
	// relay/fetch/snapshot — longer downtime, bigger tail, lower rate. The
	// baseline curve never restarts: the two live processes (a CT majority)
	// keep ordering, but full delivery never happens, so those points run to
	// the horizon and read as saturated — the cost of having no recovery at
	// all, same role as g3's no-recovery curve.
	r1Stack := indirectCT(4)
	r1Stack.Persist = &core.PersistConfig{}
	figs = append(figs, FigureSpec{
		ID:     "r1",
		Title:  "EXTENSION: delivered throughput vs crash downtime: restart from checkpoint vs staying down, n=3, p3 crashes at 800 ms (in-flight dropped), offered 60 msg/s, 100 B, Setup 1, IndirectCT, MaxBatch=4, persistence on",
		Desc:   "crash-recovery: delivered rate vs downtime, restart-from-checkpoint vs no restart",
		XLabel: "downtime [ms]",
		Metric: MetricRate,
		Xs:     []float64{200, 500, 1000, 2000},
		Stacks: []StackSpec{
			{Label: "Restart from checkpoint", Stack: r1Stack, Restart: true},
			{Label: "No restart", Stack: r1Stack},
		},
		Build: func(s StackSpec, x, scale float64, seed int64) Experiment {
			measured, warmup := defaultMessages(60, scale)
			e := Experiment{
				Name:           fmt.Sprintf("%s downtime=%.0fms", s.Label, x),
				N:              3,
				Params:         netmodel.Setup1(),
				Stack:          s.Stack,
				Throughput:     60,
				Payload:        100,
				Messages:       measured,
				Warmup:         warmup,
				Seed:           seed,
				RestartProc:    3,
				RestartCrashAt: 800 * time.Millisecond,
				// The no-restart curve never reaches full delivery, so it
				// always runs to the horizon; keep it short.
				MaxVirtual: 20 * time.Second,
			}
			if s.Restart {
				e.RestartAt = e.RestartCrashAt + time.Duration(x)*time.Millisecond
			}
			return e
		},
	})
	// Extension: observability. Figure o1 runs the pipeline sweep traced and
	// reports where each millisecond of delivery latency is spent: the
	// lifecycle trace splits every delivered message's end-to-end time into
	// diffusion (abroadcast → payload receipt), consensus (receipt →
	// ordered-queue entry, which folds in the serial wait for earlier
	// instances) and queue (entry → adeliver, ~0 unless a payload is
	// missing), averaged like the latency metric. Diffusion is the flat
	// propagation floor on both topologies; the consensus stage dominates at
	// W=1 — on the WAN it is an order of magnitude above the round-trip time,
	// pure serial-consumption backlog — and collapses toward the bare round
	// as W grows. Tracing only appends to a buffer on existing event paths,
	// so a traced run's measurements match the untraced figures exactly.
	figs = append(figs, FigureSpec{
		ID:     "o1",
		Title:  "EXTENSION: stage-latency breakdown (diffusion+consensus+queue) vs pipeline width W, n=3, 100 B, IndirectCT, MaxBatch=4, traced; curves: Setup 2 @ 1 ms links (600 msg/s) and wan3 (100 msg/s)",
		Desc:   "observability: stacked stage-latency breakdown vs W, metro and wan3",
		XLabel: "pipeline width [W]",
		Xs:     []float64{1, 2, 4, 8},
		Stacks: []StackSpec{
			{Label: "Metro 1 ms", Stack: indirectCT(4)},
			{Label: "3-site WAN", Stack: indirectCT(4)},
		},
		Build: func(s StackSpec, x, scale float64, seed int64) Experiment {
			params := PipelineParams()
			throughput := 600.0
			maxVirtual := 20 * time.Second
			if s.Label == "3-site WAN" {
				params = netmodel.WAN3Sites()
				throughput = 100.0
				maxVirtual = 90 * time.Second
			}
			measured, warmup := defaultMessages(throughput, scale)
			return Experiment{
				Name:       fmt.Sprintf("%s W=%.0f traced", s.Label, x),
				N:          3,
				Params:     params,
				Stack:      atWidth(s.Stack, int(x)),
				Throughput: throughput,
				Payload:    100,
				Messages:   measured,
				Warmup:     warmup,
				Seed:       seed,
				Trace:      true,
				MaxVirtual: maxVirtual,
			}
		},
	})
	out := make(map[string]FigureSpec, len(figs))
	for _, f := range figs {
		out[f.ID] = f
	}
	return out
}

// NamedParams resolves a network-model name, as accepted by the -topo flag
// of cmd/abench: the paper's two LAN test beds, the pipeline ablation's
// metro network, and the 3-site WAN topology.
func NamedParams(name string) (netmodel.Params, error) {
	switch strings.ToLower(name) {
	case "setup1":
		return netmodel.Setup1(), nil
	case "setup2":
		return netmodel.Setup2(), nil
	case "pipeline":
		return PipelineParams(), nil
	case "wan3":
		return netmodel.WAN3Sites(), nil
	default:
		return netmodel.Params{}, fmt.Errorf("bench: unknown topology %q (have setup1, setup2, pipeline, wan3)", name)
	}
}

// WithOverride returns a copy of the spec whose Build post-processes every
// experiment with fn. cmd/abench uses it to re-run any figure on a
// different network model (-topo) or with a fault episode (-partition).
func (f FigureSpec) WithOverride(fn func(*Experiment)) FigureSpec {
	orig := f.Build
	f.Build = func(s StackSpec, x, scale float64, seed int64) Experiment {
		e := orig(s, x, scale, seed)
		fn(&e)
		return e
	}
	return f
}

// Describe returns the one-line description `abench -list` prints: the
// short Desc when one is set, the full Title otherwise.
func (f FigureSpec) Describe() string {
	if f.Desc != "" {
		return f.Desc
	}
	return f.Title
}

// FigureIDs returns all figure ids in display order.
func FigureIDs() []string {
	ids := make([]string, 0)
	for id := range Figures() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunAndPrint regenerates one figure and renders it.
func RunAndPrint(w io.Writer, id string, scale float64, seed int64) error {
	spec, ok := Figures()[id]
	if !ok {
		return fmt.Errorf("bench: unknown figure %q (have %s)", id, strings.Join(FigureIDs(), ", "))
	}
	return RunSpecAndPrint(w, spec, scale, seed)
}

// RunSpecAndPrint regenerates one figure from an explicit spec (possibly
// carrying overrides) and renders it.
func RunSpecAndPrint(w io.Writer, spec FigureSpec, scale float64, seed int64) error {
	fig, err := spec.Run(scale, seed)
	if err != nil {
		return err
	}
	fig.Print(w)
	return nil
}
