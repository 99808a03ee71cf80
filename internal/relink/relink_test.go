package relink

// Unit tests of the reliable-link layer, driven on the discrete-event
// simulator: repair across drop-mode cuts, exactly-once dispatch despite
// retransmission, and the bounded-buffer eviction contract.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// tmsg is a trivial application message.
type tmsg struct {
	N int
}

func (tmsg) WireSize() int { return 8 }

// harness is a simulated n-process world with a Link per process and a
// recording handler on stack.ProtoApp.
type harness struct {
	w     *simnet.World
	links []*Link // index 0 unused
	got   [][]int // got[p] = payload numbers dispatched at p, in order
}

func newHarness(t *testing.T, n int, cfg Config, seed int64) *harness {
	t.Helper()
	h := &harness{
		w:     simnet.NewWorld(n, netmodel.Setup1(), seed),
		links: make([]*Link, n+1),
		got:   make([][]int, n+1),
	}
	for i := 1; i <= n; i++ {
		i := i
		node := h.w.Node(stack.ProcessID(i))
		h.links[i] = New(node, cfg)
		node.Register(stack.ProtoApp, stack.HandlerFunc(func(_ stack.ProcessID, _ uint64, m stack.Message) {
			h.got[i] = append(h.got[i], m.(tmsg).N)
		}))
	}
	return h
}

// send schedules process p to send tmsg{n} to q at virtual instant d.
func (h *harness) send(p, q stack.ProcessID, d time.Duration, n int) {
	h.w.After(p, d, func() {
		h.w.Node(p).Proto(stack.ProtoApp).Send(q, 0, tmsg{N: n})
	})
}

// wants asserts process p dispatched exactly the given payloads (any order,
// each exactly once).
func (h *harness) wants(t *testing.T, p stack.ProcessID, want []int) {
	t.Helper()
	seen := make(map[int]int)
	for _, n := range h.got[p] {
		seen[n]++
	}
	for _, n := range want {
		if seen[n] != 1 {
			t.Fatalf("p%d saw payload %d %d times, want exactly once (got %v)", p, n, seen[n], h.got[p])
		}
		delete(seen, n)
	}
	if len(seen) != 0 {
		t.Fatalf("p%d dispatched unexpected payloads %v", p, seen)
	}
}

// TestRepairAcrossDropCut: messages black-holed by a drop-mode partition are
// retransmitted after the heal and dispatched exactly once.
func TestRepairAcrossDropCut(t *testing.T) {
	h := newHarness(t, 2, Config{}, 1)
	var want []int
	// Before, during, and after a 5-105 ms cut.
	for n := 1; n <= 30; n++ {
		h.send(1, 2, time.Duration(n)*4*time.Millisecond, n)
		want = append(want, n)
	}
	h.w.After(1, 5*time.Millisecond, func() {
		h.w.Partition(simnet.PartitionDrop, []stack.ProcessID{2})
	})
	h.w.After(1, 105*time.Millisecond, func() { h.w.Heal() })
	h.w.RunFor(5 * time.Second)
	h.wants(t, 2, want)
	if st := h.links[1].Stats(); st.Retransmitted == 0 {
		t.Fatalf("no retransmissions despite a drop cut: %+v", st)
	}
	if st := h.links[1].Stats(); st.Evicted != 0 {
		t.Fatalf("evictions with an ample buffer: %+v", st)
	}
}

// TestBufferBoundsAndEviction pins the bounded-buffer contract: with
// BufferCap = 8, a burst of 100 black-holed sends keeps only the last 8
// replayable; the rest are evicted at the sender and given up by the
// receiver (watermark), so the stream converges instead of NACKing forever
// — and traffic sent after the heal still flows.
func TestBufferBoundsAndEviction(t *testing.T) {
	h := newHarness(t, 2, Config{BufferCap: 8}, 2)
	h.w.After(1, 0, func() {
		h.w.Partition(simnet.PartitionDrop, []stack.ProcessID{2})
	})
	for n := 1; n <= 100; n++ {
		h.send(1, 2, time.Duration(10+n)*time.Millisecond, n)
	}
	h.w.After(1, 500*time.Millisecond, func() { h.w.Heal() })
	// Post-heal traffic must be unaffected by the earlier give-ups.
	for n := 101; n <= 110; n++ {
		h.send(1, 2, time.Duration(900+n)*time.Millisecond, n)
	}
	h.w.RunFor(10 * time.Second)

	// Only the retained window (93..100) is recoverable, plus the post-heal
	// sends.
	want := []int{93, 94, 95, 96, 97, 98, 99, 100}
	for n := 101; n <= 110; n++ {
		want = append(want, n)
	}
	h.wants(t, 2, want)
	// 100 sends into a cap-8 buffer evict at least 92 entries; post-heal
	// traffic may add a few benign evictions of already-delivered entries
	// whose acks lag one anti-entropy tick.
	sst := h.links[1].Stats()
	if sst.Evicted < 92 {
		t.Fatalf("sender evicted %d, want ≥ 92 (100 sends, cap 8): %+v", sst.Evicted, sst)
	}
	// The receiver gives up on exactly the 92 black-holed-and-evicted
	// entries; eviction of delivered entries never produces a give-up.
	rst := h.links[2].Stats()
	if rst.GiveUps != 92 {
		t.Fatalf("receiver gave up on %d, want 92: %+v", rst.GiveUps, rst)
	}
}

// TestDedupDropsRepeatedSeq: a retransmitted copy of an already-dispatched
// sequence number is dropped before reaching the protocol layer, so upper
// layers see each message at most once no matter how often the link repeats
// it.
func TestDedupDropsRepeatedSeq(t *testing.T) {
	h := newHarness(t, 2, Config{}, 3)
	env := stack.Envelope{Proto: stack.ProtoApp, Msg: tmsg{N: 7}}
	wrapped := stack.Envelope{Proto: stack.ProtoLink, Msg: &SeqMsg{Seq: 1, Low: 1, Env: env}}
	// Emit the same SeqMsg three times, as a retransmitting sender would.
	for i := 0; i < 3; i++ {
		d := time.Duration(i+1) * time.Millisecond
		h.w.After(1, d, func() { h.w.Proc(1).Send(2, wrapped) })
	}
	h.w.RunFor(time.Second)
	h.wants(t, 2, []int{7})
	if st := h.links[2].Stats(); st.Duplicates != 2 {
		t.Fatalf("duplicates dropped = %d, want 2: %+v", st.Duplicates, st)
	}
}

// TestQuiescence: once every stream is acknowledged, the link generates no
// further control traffic — the simulation goes idle instead of ticking
// forever.
func TestQuiescence(t *testing.T) {
	h := newHarness(t, 3, Config{}, 4)
	for n := 1; n <= 5; n++ {
		for q := stack.ProcessID(2); q <= 3; q++ {
			h.send(1, q, time.Duration(n)*time.Millisecond, n)
		}
	}
	h.w.RunFor(2 * time.Second)
	before := h.links[1].Stats()
	h.w.RunFor(10 * time.Second)
	after := h.links[1].Stats()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("link not quiescent: %+v -> %+v", before, after)
	}
	h.wants(t, 2, []int{1, 2, 3, 4, 5})
	h.wants(t, 3, []int{1, 2, 3, 4, 5})
}

// TestCrashedPeerStopsProbing: a peer that never answers exhausts the
// probe budget, so the link quiesces instead of probing a dead process
// forever.
func TestCrashedPeerStopsProbing(t *testing.T) {
	h := newHarness(t, 2, Config{}, 7)
	h.links[1].maxProbes = 5
	h.w.After(1, time.Millisecond, func() { h.w.Crash(2, simnet.DropInFlight) })
	for n := 1; n <= 3; n++ {
		h.send(1, 2, time.Duration(5+n)*time.Millisecond, n)
	}
	h.w.RunFor(5 * time.Second)
	st := h.links[1].Stats()
	if st.Probes != 5 {
		t.Fatalf("probed a dead peer %d times, want exactly the budget of 5: %+v", st.Probes, st)
	}
	before := st
	h.w.RunFor(10 * time.Second)
	if after := h.links[1].Stats(); !reflect.DeepEqual(after, before) {
		t.Fatalf("link not quiescent with a dead peer: %+v -> %+v", before, after)
	}
}

// TestHeartbeatsBypass: ProtoFD traffic is not sequenced or buffered.
func TestHeartbeatsBypass(t *testing.T) {
	h := newHarness(t, 2, Config{}, 5)
	h.w.After(1, time.Millisecond, func() {
		h.w.Node(1).Proto(stack.ProtoFD).Send(2, 0, tmsg{N: 42})
	})
	h.w.RunFor(time.Second)
	if st := h.links[1].Stats(); st.Sequenced != 0 {
		t.Fatalf("heartbeat was sequenced: %+v", st)
	}
}

// TestStreamsAreIndependent: loss on one directed stream does not disturb
// another (sequence numbers are per peer pair).
func TestStreamsAreIndependent(t *testing.T) {
	h := newHarness(t, 3, Config{}, 6)
	var want2, want3 []int
	for n := 1; n <= 20; n++ {
		h.send(1, 2, time.Duration(n)*3*time.Millisecond, n)
		h.send(1, 3, time.Duration(n)*3*time.Millisecond, 100+n)
		want2 = append(want2, n)
		want3 = append(want3, 100+n)
	}
	// Only p3 is cut off.
	h.w.After(1, 10*time.Millisecond, func() {
		h.w.Partition(simnet.PartitionDrop, []stack.ProcessID{3})
	})
	h.w.After(1, 200*time.Millisecond, func() { h.w.Heal() })
	h.w.RunFor(5 * time.Second)
	h.wants(t, 2, want2)
	h.wants(t, 3, want3)
	for n := range h.got[2] {
		if h.got[2][n] != n+1 {
			t.Fatalf("p2 (uncut stream) saw out-of-order dispatch: %v", h.got[2])
		}
	}
	fmtOK := fmt.Sprintf("%d/%d", len(h.got[2]), len(h.got[3]))
	if fmtOK != "20/20" {
		t.Fatalf("dispatch counts %s, want 20/20", fmtOK)
	}
}

// TestSetIntervalTakesEffectNextTick: retargeting the anti-entropy cadence
// re-arms a pending tick, so the very next tick (and all control traffic
// depending on it) runs at the new cadence instead of finishing one more
// old-cadence period first — the actuator contract the adaptive control
// plane relies on.
func TestSetIntervalTakesEffectNextTick(t *testing.T) {
	// A black-holed send leaves unacknowledged data, so the sender probes
	// on every tick; probe counts measure the cadence.
	h := newHarness(t, 2, Config{}, 5)
	h.links[1].SetInterval(time.Second)
	h.w.After(1, 0, func() {
		h.w.Partition(simnet.PartitionDrop, []stack.ProcessID{2})
	})
	h.send(1, 2, time.Millisecond, 1)
	// Let the slow cadence tick twice, then retarget to 10 ms.
	h.w.RunFor(2500 * time.Millisecond)
	slow := h.links[1].Stats().Probes
	if slow != 2 {
		t.Fatalf("expected 2 probes at the 1 s cadence, got %d", slow)
	}
	h.w.After(1, 0, func() { h.links[1].SetInterval(10 * time.Millisecond) })
	// At the old cadence the pending tick would fire at t=3 s; at the new
	// one, ~10 ms after the retarget. 200 ms is ~20 new-cadence ticks and
	// zero old-cadence ones.
	h.w.RunFor(200 * time.Millisecond)
	fast := h.links[1].Stats().Probes
	if fast < slow+10 {
		t.Fatalf("cadence change not effective: %d probes before, %d after", slow, fast)
	}
	if got := h.links[1].Interval(); got != 10*time.Millisecond {
		t.Fatalf("Interval() = %v after SetInterval", got)
	}
}

// TestRTTEstimate: a probe answered by a digest yields a smoothed per-peer
// round-trip estimate, exported through Stats().RTTs and MaxRTT, in the
// ballpark of the link's actual round trip.
func TestRTTEstimate(t *testing.T) {
	h := newHarness(t, 3, Config{}, 6)
	for _, l := range h.links[1:] {
		l.SetInterval(20 * time.Millisecond)
	}
	// A steady stream keeps unacknowledged data present at most ticks, so
	// the sender probes and the receiver's digests close the exchanges —
	// the healthy-run case, where the estimate should sit near the real
	// round trip rather than a loss-inflated one.
	for n := 1; n <= 200; n++ {
		h.send(1, 2, time.Duration(n)*5*time.Millisecond, n)
	}
	h.w.RunFor(2 * time.Second)
	st := h.links[1].Stats()
	rtt, ok := st.RTTs[2]
	if !ok {
		t.Fatalf("no RTT estimate for the probed peer: %+v", st)
	}
	// Setup 1 links are ~100 µs one way plus CPU costs; an estimate in
	// (0, 5 ms] says real probe→digest round trips were measured (an
	// unsolicited digest can close an exchange early, but never below the
	// wire time).
	if rtt <= 0 || rtt > 5*time.Millisecond {
		t.Fatalf("implausible RTT estimate %v", rtt)
	}
	if got := h.links[1].MaxRTT(); got < rtt {
		t.Fatalf("MaxRTT() = %v below the measured per-peer estimate %v", got, rtt)
	}
	// The unprobed reverse direction has no estimate.
	if _, ok := h.links[3].Stats().RTTs[1]; ok {
		t.Fatalf("RTT estimate on a stream that never probed")
	}
}
