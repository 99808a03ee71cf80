package abcast

// This file regenerates the paper's evaluation as Go benchmarks: one
// benchmark per figure (Figures 1, 3, 4, 5, 6, 7 — every experimental
// figure in the paper), plus ablation benchmarks for the design choices
// called out in DESIGN.md.
//
// Each figure benchmark runs a reduced-resolution sweep per iteration and
// reports the mean atomic broadcast latency of each stack at the sweep's
// most loaded point, as ms metrics. Run with:
//
//	go test -bench=. -benchmem
//
// For full-resolution tables use cmd/abench.

import (
	"fmt"
	"testing"
	"time"

	"abcast/internal/bench"
	"abcast/internal/core"
	"abcast/internal/netmodel"
	"abcast/internal/rbcast"
)

// benchScale keeps per-iteration sim workloads small; cmd/abench is the
// full-resolution path.
const benchScale = 0.12

// runFigure executes one figure sweep per iteration and reports the mean
// latency of every stack at the heaviest x value.
func runFigure(b *testing.B, id string) {
	b.Helper()
	spec, ok := bench.Figures()[id]
	if !ok {
		b.Fatalf("unknown figure %q", id)
	}
	var last bench.Figure
	for i := 0; i < b.N; i++ {
		fig, err := spec.Run(benchScale, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	for _, s := range spec.Stacks {
		pts := last.Series[s.Label]
		if len(pts) == 0 {
			continue
		}
		r := pts[len(pts)-1].Result
		b.ReportMetric(r.Latency.Mean, "ms-lat/"+sanitize(s.Label))
	}
}

// sanitize makes stack labels metric-name friendly.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// Figure 1: atomic broadcast latency vs message size — indirect consensus
// vs consensus on full messages (n=3, Setup 1).
func BenchmarkFig1a(b *testing.B) { runFigure(b, "1a") }
func BenchmarkFig1b(b *testing.B) { runFigure(b, "1b") }

// Figure 3: latency vs throughput — indirect consensus vs the faulty
// direct use of consensus on identifiers (1-byte payloads, Setup 1).
func BenchmarkFig3a(b *testing.B) { runFigure(b, "3a") }
func BenchmarkFig3b(b *testing.B) { runFigure(b, "3b") }

// Figure 4: latency vs payload at four throughputs — indirect vs faulty
// consensus on identifiers (n=5, Setup 1).
func BenchmarkFig4a(b *testing.B) { runFigure(b, "4a") }
func BenchmarkFig4b(b *testing.B) { runFigure(b, "4b") }
func BenchmarkFig4c(b *testing.B) { runFigure(b, "4c") }
func BenchmarkFig4d(b *testing.B) { runFigure(b, "4d") }

// Figure 5: latency vs payload — indirect consensus + O(n²) reliable
// broadcast vs consensus on ids + uniform reliable broadcast (Setup 2).
func BenchmarkFig5a(b *testing.B) { runFigure(b, "5a") }
func BenchmarkFig5b(b *testing.B) { runFigure(b, "5b") }
func BenchmarkFig5c(b *testing.B) { runFigure(b, "5c") }

// Figure 6: as Figure 5 but with the O(n) reliable broadcast.
func BenchmarkFig6a(b *testing.B) { runFigure(b, "6a") }
func BenchmarkFig6b(b *testing.B) { runFigure(b, "6b") }
func BenchmarkFig6c(b *testing.B) { runFigure(b, "6c") }

// Figure 7: latency vs throughput for the two correct id-based stacks
// (Setup 2, 1-byte payloads).
func BenchmarkFig7a(b *testing.B) { runFigure(b, "7a") }
func BenchmarkFig7b(b *testing.B) { runFigure(b, "7b") }

// Extension: latency vs system size (not a paper figure; substantiates the
// paper's Section 2.1 claim that identifier-based ordering wins more as n
// grows).
func BenchmarkScalabilityN(b *testing.B) { runFigure(b, "s1") }

// runPoint executes a single experiment per iteration and reports its mean
// latency.
func runPoint(b *testing.B, e bench.Experiment) {
	b.Helper()
	var last bench.Result
	for i := 0; i < b.N; i++ {
		e.Seed = int64(i + 1)
		r, err := bench.Run(e)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Latency.Mean, "ms-lat")
	b.ReportMetric(float64(last.MsgsSent)/float64(last.Experiment.Messages), "netmsgs/abcast")
}

// point builds a mid-load Setup 1 experiment for ablations.
func point(variant core.Variant, rb rbcast.Kind, rcvCost time.Duration) bench.Experiment {
	params := netmodel.Setup1()
	params.RcvCheckPerID = rcvCost
	return bench.Experiment{
		Name:       "ablation",
		N:          3,
		Params:     params,
		Stack:      core.Config{Variant: variant, RB: rb},
		Throughput: 400,
		Payload:    100,
		Messages:   200,
		Warmup:     50,
		Seed:       1,
	}
}

// BenchmarkAblationRcvCost isolates the rcv(v) CPU charge — the knob behind
// the Figure 3/4 overhead: the same indirect stack with the check cost
// zeroed collapses onto the faulty stack's latency.
func BenchmarkAblationRcvCost(b *testing.B) {
	for _, c := range []struct {
		name string
		cost time.Duration
	}{
		{"calibrated", netmodel.Setup1().RcvCheckPerID},
		{"zero", 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			runPoint(b, point(core.VariantIndirectCT, rbcast.KindEager, c.cost))
		})
	}
}

// BenchmarkAblationRBcast compares the O(n²) and O(n) reliable broadcasts
// beneath the same indirect stack (the delta between Figures 5 and 6).
func BenchmarkAblationRBcast(b *testing.B) {
	for _, c := range []struct {
		name string
		kind rbcast.Kind
	}{
		{"eager-n2", rbcast.KindEager},
		{"lazy-n", rbcast.KindLazy},
	} {
		b.Run(c.name, func(b *testing.B) {
			runPoint(b, point(core.VariantIndirectCT, c.kind, netmodel.Setup1().RcvCheckPerID))
		})
	}
}

// BenchmarkAblationAlgo compares the two indirect consensus algorithms
// (Algorithm 2 vs Algorithm 3) under identical load; MR's decision takes
// two communication steps in good runs versus CT's three.
func BenchmarkAblationAlgo(b *testing.B) {
	for _, c := range []struct {
		name    string
		variant core.Variant
	}{
		{"indirect-CT", core.VariantIndirectCT},
		{"indirect-MR", core.VariantIndirectMR},
	} {
		b.Run(c.name, func(b *testing.B) {
			runPoint(b, point(c.variant, rbcast.KindEager, netmodel.Setup1().RcvCheckPerID))
		})
	}
}

// BenchmarkAblationBatching shows how the engine's consensus batching
// responds to load: instances per message drop as throughput rises.
func BenchmarkAblationBatching(b *testing.B) {
	for _, tp := range []float64{50, 400, 800} {
		b.Run(fmt.Sprintf("tp=%.0f", tp), func(b *testing.B) {
			e := point(core.VariantIndirectCT, rbcast.KindEager, netmodel.Setup1().RcvCheckPerID)
			e.Throughput = tp
			runPoint(b, e)
		})
	}
}

// BenchmarkAblationMaxBatch compares unbounded batching (the paper's
// Algorithm 1) against a hard cap of one identifier per consensus instance:
// the cap multiplies the number of instances and collapses throughput
// headroom.
func BenchmarkAblationMaxBatch(b *testing.B) {
	for _, c := range []struct {
		name string
		cap  int
	}{
		{"unbounded", 0},
		{"one-per-instance", 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := point(core.VariantIndirectCT, rbcast.KindEager, netmodel.Setup1().RcvCheckPerID)
			e.Stack.MaxBatch = c.cap
			runPoint(b, e)
		})
	}
}

// BenchmarkAblationPipeline measures the pipeline window (figure p1's knob)
// at the ablation's network point: with per-instance work capped, delivered
// throughput should rise with W; the reported metric is msg/s delivered.
func BenchmarkAblationPipeline(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			var last bench.Result
			for i := 0; i < b.N; i++ {
				e := bench.Experiment{
					Name:       "pipeline",
					N:          3,
					Params:     bench.PipelineParams(),
					Stack:      core.Config{Variant: core.VariantIndirectCT, RB: rbcast.KindEager, MaxBatch: 4, Pipeline: w},
					Throughput: 3000,
					Payload:    1,
					Messages:   1000,
					Warmup:     100,
					Seed:       int64(i + 1),
					MaxVirtual: time.Second,
				}
				r, err := bench.Run(e)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.Rate, "msg/s-delivered")
		})
	}
}

// BenchmarkClusterLive measures the live goroutine runtime end to end (not
// a paper figure; a sanity benchmark for the public API).
func BenchmarkClusterLive(b *testing.B) {
	c, err := New(3, Options{Latency: 50 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Broadcast(i%3+1, payload); err != nil {
			b.Fatal(err)
		}
		if _, ok := c.Next(1, 10*time.Second); !ok {
			b.Fatal("delivery timeout")
		}
	}
}
