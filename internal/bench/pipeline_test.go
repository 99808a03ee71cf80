package bench

import (
	"testing"
	"time"
)

// pipelinePoint is one point of the p1 ablation, shrunk to test size: an
// offered load far above the serial engine's ceiling when per-instance work
// is capped, on the ablation's latency-dominated network, so the delivered
// rate is limited by the ordering path alone.
func pipelinePoint(w int) Experiment {
	return Experiment{
		Name:       "pipeline-ablation",
		N:          3,
		Params:     PipelineParams(),
		Stack:      atWidth(indirectCT(4), w),
		Throughput: 3000,
		Payload:    1,
		Messages:   2500,
		Warmup:     100,
		Seed:       5,
		MaxVirtual: time.Second,
	}
}

// TestPipelineRaisesDeliveredRate is the acceptance check of the pipeline
// extension: with per-instance work capped (MaxBatch), a window of 4
// concurrent consensus instances must deliver measurably more messages per
// second than the paper's serial engine on the IndirectCT stack.
func TestPipelineRaisesDeliveredRate(t *testing.T) {
	serial, err := Run(pipelinePoint(1))
	if err != nil {
		t.Fatal(err)
	}
	pipelined, err := Run(pipelinePoint(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("W=1: rate=%.0f msg/s delivered=%d undelivered=%d virtual=%v",
		serial.Rate, serial.Delivered, serial.Undelivered, serial.Virtual)
	t.Logf("W=4: rate=%.0f msg/s delivered=%d undelivered=%d virtual=%v",
		pipelined.Rate, pipelined.Delivered, pipelined.Undelivered, pipelined.Virtual)
	if serial.Rate <= 0 {
		t.Fatal("serial engine delivered nothing; the workload is broken")
	}
	if pipelined.Rate < serial.Rate*1.3 {
		t.Fatalf("pipelining W=4 did not raise the delivered rate measurably: %.0f vs %.0f msg/s",
			pipelined.Rate, serial.Rate)
	}
}

// TestPipelineUnboundedBatchControl is the ablation's control arm: with the
// paper's unbounded whole-set batching, the serial engine already absorbs
// load into larger batches, so a pipelined window must at least not hurt
// (and everything must still be delivered).
func TestPipelineUnboundedBatchControl(t *testing.T) {
	for _, w := range []int{1, 4} {
		e := pipelinePoint(w)
		e.Stack.MaxBatch = 0
		e.Throughput = 800
		e.MaxVirtual = 20 * time.Second
		r, err := Run(e)
		if err != nil {
			t.Fatal(err)
		}
		if r.Undelivered != 0 {
			t.Fatalf("W=%d: %d messages undelivered with unbounded batching", w, r.Undelivered)
		}
	}
}
