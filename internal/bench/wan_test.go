package bench

// Tests of the geo-replication figures: the WAN point behaves sanely (all
// delivered, latency dominated by inter-site propagation), the partition
// episode composes with the harness under both semantics, and pipelining
// pays on the WAN exactly as figure g1 claims.

import (
	"testing"
	"time"

	"abcast/internal/netmodel"
)

// wanPoint is a small WAN experiment, optionally with the g2 partition
// episode.
func wanPoint(w int, episode bool) Experiment {
	e := Experiment{
		Name:       "wan-point",
		N:          3,
		Params:     netmodel.WAN3Sites(),
		Stack:      atWidth(indirectCT(4), w),
		Throughput: 100,
		Payload:    100,
		Messages:   150,
		Warmup:     30,
		Seed:       11,
		MaxVirtual: 60 * time.Second,
	}
	if episode {
		e.PartitionFrom = 400 * time.Millisecond
		e.PartitionUntil = 1100 * time.Millisecond
		e.PartitionMinority = []int{3}
	}
	return e
}

// TestPartitionMinorityValidated: minority ids outside 1..N must be an
// error, not a silently ineffective partition.
func TestPartitionMinorityValidated(t *testing.T) {
	e := wanPoint(1, true)
	e.PartitionMinority = []int{5} // n=3: out of range
	if _, err := Run(e); err == nil {
		t.Fatal("out-of-range partition minority accepted")
	}
}

// TestWANLatencyDominatedByPropagation: on the 3-site WAN an unloaded
// delivery cannot beat one inter-site crossing, and must stay within a
// small multiple of the slowest round trip.
func TestWANLatencyDominatedByPropagation(t *testing.T) {
	e := wanPoint(1, false)
	e.Throughput = 10
	e.Messages, e.Warmup, e.Stack.MaxBatch = 40, 10, 0
	r, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Undelivered != 0 {
		t.Fatalf("%d undelivered on an unloaded WAN", r.Undelivered)
	}
	if r.Latency.Mean < 40 { // ms: the fastest inter-site link
		t.Fatalf("mean latency %.1f ms below one WAN crossing", r.Latency.Mean)
	}
	if r.Latency.Mean > 2000 {
		t.Fatalf("mean latency %.1f ms absurd for an unloaded WAN", r.Latency.Mean)
	}
}

// TestWANPipelineCollapsesQueueing is the acceptance check of figure g1:
// with per-instance work capped, a pipelined window must cut the WAN mean
// latency well below the saturated serial engine's.
func TestWANPipelineCollapsesQueueing(t *testing.T) {
	serial, err := Run(wanPoint(1, false))
	if err != nil {
		t.Fatal(err)
	}
	piped, err := Run(wanPoint(4, false))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("W=1: %.1f ms, W=4: %.1f ms", serial.Latency.Mean, piped.Latency.Mean)
	if piped.Latency.Mean*2 > serial.Latency.Mean {
		t.Fatalf("W=4 latency %.1f ms not well below serial %.1f ms",
			piped.Latency.Mean, serial.Latency.Mean)
	}
}

// TestWANPartitionEpisodeDelayRecovers: with the default (delay) semantics
// the g2 episode must cost latency but never messages — traffic of the cut
// minority waits for the heal, then everything is delivered.
func TestWANPartitionEpisodeDelayRecovers(t *testing.T) {
	whole, err := Run(wanPoint(4, false))
	if err != nil {
		t.Fatal(err)
	}
	cut, err := Run(wanPoint(4, true))
	if err != nil {
		t.Fatal(err)
	}
	if cut.Undelivered != 0 {
		t.Fatalf("%d messages undelivered despite delay semantics and a heal", cut.Undelivered)
	}
	t.Logf("mean latency: whole %.1f ms, with episode %.1f ms", whole.Latency.Mean, cut.Latency.Mean)
	if cut.Latency.Mean <= whole.Latency.Mean {
		t.Fatalf("partition episode cost no latency: %.1f vs %.1f ms",
			cut.Latency.Mean, whole.Latency.Mean)
	}
}

// TestWANPartitionEpisodeDropLosesMinority: under drop semantics the
// minority misses decide relays for good, so the run must end saturated
// (undelivered messages at the horizon) — the honest signal that black-hole
// partitions break the channel assumption the protocol needs.
func TestWANPartitionEpisodeDropLosesMinority(t *testing.T) {
	e := wanPoint(4, true)
	e.PartitionDrop = true
	// Cut late enough that some measured messages complete everywhere
	// before the episode starts.
	e.PartitionFrom = 800 * time.Millisecond
	e.PartitionUntil = 1300 * time.Millisecond
	e.MaxVirtual = 20 * time.Second // saturated runs always reach the horizon
	r, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Undelivered == 0 {
		t.Fatal("drop-mode partition lost nothing; either the episode never fired or drops are not modelled")
	}
	if r.Delivered == 0 {
		t.Fatal("majority delivered nothing during/after the episode")
	}
}
