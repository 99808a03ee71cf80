package bench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"abcast/internal/core"
	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/stack"
	"abcast/internal/trace"
)

// checkChains verifies the trace-completeness property on a finished run:
// every adeliver event has a gap-free span chain behind it — an abroadcast
// of the message, and a first receive and first ordered entry at the
// delivering process, in causal timestamp order. Recovery runs may start a
// process's chain from a snapshot install or a restart rehydration, but
// those paths record receive/ordered events too, so the invariant is
// uniform.
func checkChains(t *testing.T, r Result) {
	t.Helper()
	if r.TraceLog == nil {
		t.Fatal("run recorded no trace")
	}
	type key struct {
		p  stack.ProcessID
		id msg.ID
	}
	broadcastAt := map[msg.ID]time.Time{}
	receiveAt := map[key]time.Time{}
	orderedAt := map[key]time.Time{}
	adelivers := 0
	evs := r.TraceLog.Events()
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindABroadcast:
			if _, ok := broadcastAt[ev.ID]; !ok {
				broadcastAt[ev.ID] = ev.At
			}
		case trace.KindReceive:
			k := key{ev.P, ev.ID}
			if _, ok := receiveAt[k]; !ok {
				receiveAt[k] = ev.At
			}
		case trace.KindOrdered:
			k := key{ev.P, ev.ID}
			if _, ok := orderedAt[k]; !ok {
				orderedAt[k] = ev.At
			}
		}
	}
	for _, ev := range evs {
		if ev.Kind != trace.KindADeliver {
			continue
		}
		adelivers++
		k := key{ev.P, ev.ID}
		t0, ok := broadcastAt[ev.ID]
		if !ok {
			t.Fatalf("adeliver of %v at p%d without an abroadcast event", ev.ID, ev.P)
		}
		rcv, ok := receiveAt[k]
		if !ok {
			t.Fatalf("adeliver of %v at p%d without a receive event", ev.ID, ev.P)
		}
		ord, ok := orderedAt[k]
		if !ok {
			t.Fatalf("adeliver of %v at p%d without an ordered event", ev.ID, ev.P)
		}
		// Receive and ordered may land in either order (a decision can
		// precede its payload — the fetch path); both must follow the
		// abroadcast and precede the adeliver.
		if t0.After(rcv) || t0.After(ord) || rcv.After(ev.At) || ord.After(ev.At) {
			t.Fatalf("span chain of %v at p%d out of order: abroadcast %v, receive %v, ordered %v, adeliver %v",
				ev.ID, ev.P, t0, rcv, ord, ev.At)
		}
	}
	if adelivers == 0 {
		t.Fatal("trace holds no adeliver events")
	}
}

// TestTraceCompletenessChurnPartition checks the span-chain property on the
// harshest non-restart run the harness supports: dynamic membership with a
// join and a leave, plus a drop-mode partition the recovery subsystem (with
// snapshot transfer) must repair.
func TestTraceCompletenessChurnPartition(t *testing.T) {
	churning := snapshotting(atWidth(indirectCT(4), 2))
	churning.Members = []stack.ProcessID{1, 2, 3}
	e := Experiment{
		Name:              "trace churn+partition",
		N:                 4,
		Params:            PipelineParams(),
		Stack:             churning,
		Throughput:        400,
		Payload:           50,
		Messages:          120,
		Warmup:            20,
		Seed:              7,
		PartitionFrom:     120 * time.Millisecond,
		PartitionUntil:    240 * time.Millisecond,
		PartitionMinority: []int{2},
		PartitionDrop:     true,
		Trace:             true,
		MaxVirtual:        30 * time.Second,
	}
	sendDur := time.Duration(float64(e.Messages+e.Warmup) / e.Throughput * float64(time.Second))
	e.Churn = []ChurnEvent{
		{At: sendDur / 3, From: 1, Join: 4},
		{At: sendDur * 2 / 3, From: 1, Leave: 3},
	}
	r, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Undelivered != 0 {
		t.Fatalf("%d measured messages undelivered — recovery failed, chains unverifiable", r.Undelivered)
	}
	checkChains(t, r)
}

// TestTraceCompletenessRestart checks the span-chain property across a
// crash-restart episode, and that the restarted incarnation recorded its
// rehydration.
func TestTraceCompletenessRestart(t *testing.T) {
	durable := indirectCT(4)
	durable.Persist = &core.PersistConfig{}
	e := Experiment{
		Name:           "trace restart",
		N:              3,
		Params:         netmodel.Setup1(),
		Stack:          durable,
		Throughput:     60,
		Payload:        50,
		Messages:       80,
		Warmup:         10,
		Seed:           5,
		RestartProc:    3,
		RestartCrashAt: 400 * time.Millisecond,
		RestartAt:      900 * time.Millisecond,
		Trace:          true,
		MaxVirtual:     30 * time.Second,
	}
	r, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Undelivered != 0 {
		t.Fatalf("%d measured messages undelivered after the restart", r.Undelivered)
	}
	checkChains(t, r)
	restarts := 0
	for _, ev := range r.TraceLog.Events() {
		if ev.Kind == trace.KindRestart && ev.P == 3 {
			restarts++
		}
	}
	if restarts != 1 {
		t.Fatalf("restart events at p3 = %d, want 1", restarts)
	}
}

// TestTracedRunMatchesUntraced is the zero-perturbation property: tracing
// must only observe a run, never change it.
func TestTracedRunMatchesUntraced(t *testing.T) {
	off, err := Run(quickExp(core.VariantIndirectCT))
	if err != nil {
		t.Fatal(err)
	}
	traced := quickExp(core.VariantIndirectCT)
	traced.Trace = true
	on, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if off.Latency != on.Latency || off.MsgsSent != on.MsgsSent || off.BytesSent != on.BytesSent || off.Virtual != on.Virtual {
		t.Fatalf("tracing changed the run: off latency %+v msgs %d, on latency %+v msgs %d",
			off.Latency, off.MsgsSent, on.Latency, on.MsgsSent)
	}
	if off.Stages != nil || off.TraceLog != nil {
		t.Fatal("untraced run carries trace output")
	}
	if on.Stages == nil || on.TraceLog == nil {
		t.Fatal("traced run carries no trace output")
	}
}

// TestStageBreakdownSumsToLatency: on a fully delivered run the three stage
// means must sum to the end-to-end latency mean (same messages, same
// averaging).
func TestStageBreakdownSumsToLatency(t *testing.T) {
	e := quickExp(core.VariantIndirectCT)
	e.Trace = true
	r, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Undelivered != 0 {
		t.Fatalf("%d undelivered", r.Undelivered)
	}
	s := r.Stages
	if s == nil {
		t.Fatal("no stage breakdown")
	}
	sum := s.DiffusionMs + s.ConsensusMs + s.QueueMs
	if math.Abs(sum-r.Latency.Mean) > 1e-6 {
		t.Fatalf("stages sum to %.9f ms, latency mean is %.9f ms", sum, r.Latency.Mean)
	}
	if s.DiffusionMs <= 0 || s.ConsensusMs <= 0 {
		t.Fatalf("implausible breakdown %+v", s)
	}
}

// TestTraceDoubleRunIdenticalJSONL: two traced runs of the same experiment
// export byte-identical JSONL — the trace is as deterministic as the run.
func TestTraceDoubleRunIdenticalJSONL(t *testing.T) {
	var dumps [2]bytes.Buffer
	for i := range dumps {
		e := quickExp(core.VariantIndirectCT)
		e.Trace = true
		r, err := Run(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.TraceLog.WriteJSONL(&dumps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if dumps[0].Len() == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(dumps[0].Bytes(), dumps[1].Bytes()) {
		t.Fatal("identical traced runs exported different JSONL")
	}
}

// pinnedArchive is the newest archived point of the virtual-time trajectory
// (docs/OPERATIONS.md "Pinned trajectory"): a PR that archives a new point
// repoints it.
const pinnedArchive = "BENCH_b66b694.json"

// TestPinnedArchiveByteIdentical regenerates the pinned figure set at the
// archived scale and compares it byte-for-byte against the checked-in
// trajectory point. It runs only under ABCAST_PINNED=1 (CI's figures job
// sets it): a PR that changes a figure on purpose fails it by design, until
// it archives the new point; the cheap double-run determinism checks above
// always run.
func TestPinnedArchiveByteIdentical(t *testing.T) {
	if os.Getenv("ABCAST_PINNED") != "1" {
		t.Skip("set ABCAST_PINNED=1 to regenerate and compare the pinned archive")
	}
	want, err := os.ReadFile("../../" + pinnedArchive)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := RunJSON(&got, []string{"p1", "g1", "g3", "g4", "m1", "c1", "r1", "o1"}, 0.25, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("pinned set drifted from %s (got %d bytes, want %d)", pinnedArchive, got.Len(), len(want))
	}
}

// TestArchivesAreDistinct: a trajectory point is archived only when the
// pinned set changed, so no two archived points are the same bytes.
func TestArchivesAreDistinct(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no archived points found (%v)", err)
	}
	seen := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if first, dup := seen[string(data)]; dup {
			t.Errorf("%s is byte-identical to %s", filepath.Base(p), filepath.Base(first))
			continue
		}
		seen[string(data)] = p
	}
}
