package bench

import (
	"strings"
	"testing"
	"time"

	"abcast/internal/core"
	"abcast/internal/netmodel"
	"abcast/internal/rbcast"
)

func quickExp(variant core.Variant) Experiment {
	return Experiment{
		Name:       "quick",
		N:          3,
		Params:     netmodel.Setup1(),
		Stack:      core.Config{Variant: variant, RB: rbcast.KindEager},
		Throughput: 200,
		Payload:    10,
		Messages:   60,
		Warmup:     10,
		Seed:       3,
		MaxVirtual: 20 * time.Second,
	}
}

func TestRunDeliversEverything(t *testing.T) {
	r, err := Run(quickExp(core.VariantIndirectCT))
	if err != nil {
		t.Fatal(err)
	}
	if r.Undelivered != 0 {
		t.Fatalf("%d messages undelivered at a gentle load", r.Undelivered)
	}
	if r.Delivered != 60 {
		t.Fatalf("Delivered = %d, want 60", r.Delivered)
	}
	if r.Latency.N != 60 {
		t.Fatalf("latency samples = %d", r.Latency.N)
	}
	if r.Latency.Mean <= 0 || r.Latency.Mean > 100 {
		t.Fatalf("implausible mean latency %v ms", r.Latency.Mean)
	}
	if r.Latency.Min > r.Latency.Median || r.Latency.Median > r.Latency.Max {
		t.Fatal("latency summary not ordered")
	}
	if r.MsgsSent == 0 || r.BytesSent == 0 {
		t.Fatal("traffic counters empty")
	}
}

func TestRunDeterministicAcrossRepeats(t *testing.T) {
	a, err := Run(quickExp(core.VariantIndirectCT))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickExp(core.VariantIndirectCT))
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency.Mean != b.Latency.Mean || a.MsgsSent != b.MsgsSent {
		t.Fatalf("same seed produced different results: %.6f/%.6f ms, %d/%d msgs",
			a.Latency.Mean, b.Latency.Mean, a.MsgsSent, b.MsgsSent)
	}
}

func TestRunSeedChangesSchedule(t *testing.T) {
	a, _ := Run(quickExp(core.VariantIndirectCT))
	e := quickExp(core.VariantIndirectCT)
	e.Seed = 4
	b, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency.Mean == b.Latency.Mean && a.MsgsSent == b.MsgsSent {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestRunValidation(t *testing.T) {
	bad := quickExp(core.VariantIndirectCT)
	bad.Throughput = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero throughput accepted")
	}
	bad = quickExp(core.VariantIndirectCT)
	bad.Messages = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero messages accepted")
	}
	bad = quickExp(core.Variant(99))
	if _, err := Run(bad); err == nil {
		t.Error("bogus variant accepted")
	}
}

func TestDefaultMessagesScaling(t *testing.T) {
	lowM, lowW := defaultMessages(10, 1)
	highM, _ := defaultMessages(2000, 1)
	if lowM < 100 {
		t.Fatalf("low-rate sample too small: %d", lowM)
	}
	if highM <= lowM {
		t.Fatal("message count does not scale with throughput")
	}
	if highM > 2400 {
		t.Fatalf("message count uncapped: %d", highM)
	}
	if lowW <= 0 || lowW >= lowM {
		t.Fatalf("warmup = %d of %d", lowW, lowM)
	}
}

func TestFiguresComplete(t *testing.T) {
	figs := Figures()
	want := []string{
		"1a", "1b",
		"3a", "3b",
		"4a", "4b", "4c", "4d",
		"5a", "5b", "5c",
		"s1", "p1",
		"6a", "6b", "6c",
		"7a", "7b",
		"g1", "g2", "g3", "g4",
		"p2",
		"m1",
		"c1",
		"r1",
		"o1",
	}
	// Most figures compare two stacks over ≥4 x values; g3 is the recovery
	// comparison (off / on / on-with-tiny-buffers), g4 the deep-lag one
	// (relay-only / snapshot), each over the three pipeline widths that
	// matter, p2 the adaptive comparison (static W=1/4/8 / adaptive) over
	// its two topologies, m1 the membership-churn comparison (static /
	// join+leave) over its two topologies, and c1 the CPU-saturation
	// batching comparison (MaxBatch 1 / 4 / unbounded) over four widths.
	wantStacks := map[string]int{"g3": 3, "p2": 4, "c1": 3}
	minPoints := map[string]int{"g3": 3, "g4": 3, "p2": 2, "m1": 2}
	for _, id := range want {
		spec, ok := figs[id]
		if !ok {
			t.Errorf("figure %s missing", id)
			continue
		}
		points := 4
		if p, ok := minPoints[id]; ok {
			points = p
		}
		if len(spec.Xs) < points {
			t.Errorf("figure %s has only %d points", id, len(spec.Xs))
		}
		stacks := 2
		if s, ok := wantStacks[id]; ok {
			stacks = s
		}
		if len(spec.Stacks) != stacks {
			t.Errorf("figure %s has %d stacks, want %d", id, len(spec.Stacks), stacks)
		}
		if spec.Build == nil {
			t.Errorf("figure %s has no builder", id)
		}
	}
	if len(figs) != len(want) {
		t.Errorf("figure count = %d, want %d", len(figs), len(want))
	}
	ids := FigureIDs()
	if len(ids) != len(want) {
		t.Errorf("FigureIDs = %v", ids)
	}
}

// TestFigureRunAndPrint runs a tiny sweep end to end and checks the table
// output shape.
func TestFigureRunAndPrint(t *testing.T) {
	spec := FigureSpec{
		ID:     "test",
		Title:  "tiny",
		XLabel: "payload [bytes]",
		Xs:     []float64{0, 100},
		Stacks: []StackSpec{
			{Label: "Indirect", Stack: stackIndirect.Stack},
			{Label: "Faulty", Stack: stackFaulty.Stack},
		},
		Build: buildPayloadSweep(3, netmodel.Setup1(), 100),
	}
	fig, err := spec.Run(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fig.Print(&sb)
	out := sb.String()
	for _, needle := range []string{"# test", "Indirect", "Faulty", "ms"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("output missing %q:\n%s", needle, out)
		}
	}
	if len(fig.Series["Indirect"]) != 2 || len(fig.Series["Faulty"]) != 2 {
		t.Fatalf("series lengths wrong: %+v", fig.Series)
	}
}

func TestRunAndPrintUnknownFigure(t *testing.T) {
	var sb strings.Builder
	if err := RunAndPrint(&sb, "nope", 1, 1); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestSaturationMarksUndelivered: a hopeless overload with a tiny horizon
// must report undelivered messages rather than hanging or dropping them
// silently.
func TestSaturationMarksUndelivered(t *testing.T) {
	e := quickExp(core.VariantConsensusMsgs)
	e.Throughput = 5000
	e.Payload = 5000
	e.Messages = 200
	e.Warmup = 0
	e.MaxVirtual = 300 * time.Millisecond
	r, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Undelivered == 0 {
		t.Fatal("overload with a tiny horizon reported full delivery")
	}
	if r.Latency.N != 200 {
		t.Fatalf("saturated messages dropped from the sample: N=%d", r.Latency.N)
	}
}
