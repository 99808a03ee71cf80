package consensus

// Tests of the deep-lag detector (Config.OnDeepLag): a peer whose apparent
// position lies below the decision log's floor is handed to the callback —
// the seam snapshot state transfer hangs off — instead of being sent a
// best-effort relay it cannot consume.

import (
	"fmt"
	"testing"
	"time"

	"abcast/internal/fd"
	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// deepLagRecord is one OnDeepLag invocation.
type deepLagRecord struct {
	at   stack.ProcessID // process whose callback fired
	peer stack.ProcessID
	from uint64
}

// newDeepLagHarness is newRelayHarness with OnDeepLag recording.
func newDeepLagHarness(t *testing.T, n int, logCap int) (*harness, *[]deepLagRecord) {
	t.Helper()
	h := &harness{
		w:           simnet.NewWorld(n, netmodel.Setup1(), 42),
		fds:         make([]*fd.Scripted, n+1),
		svcs:        make([]*Service, n+1),
		decisions:   make([]map[uint64]Value, n+1),
		decideCount: make([]map[uint64]int, n+1),
	}
	var records []deepLagRecord
	for i := 1; i <= n; i++ {
		i := i
		h.fds[i] = fd.NewScripted()
		h.decisions[i] = make(map[uint64]Value)
		h.decideCount[i] = make(map[uint64]int)
		svc, err := NewService(h.w.Node(stack.ProcessID(i)), Config{
			Algo:           CT,
			Detector:       h.fds[i],
			Relay:          true,
			DecisionLogCap: logCap,
			OnDeepLag: func(q stack.ProcessID, from uint64) {
				records = append(records, deepLagRecord{at: stack.ProcessID(i), peer: q, from: from})
			},
			Decide: func(k uint64, v Value) {
				h.decisions[i][k] = v
				h.decideCount[i][k]++
			},
		})
		if err != nil {
			t.Fatalf("NewService(p%d): %v", i, err)
		}
		h.svcs[i] = svc
	}
	return h, &records
}

// TestDeepLagHandoffInsteadOfRelay: a sync request from below the log floor
// fires OnDeepLag and relays nothing (the peer could not consume the logged
// tail anyway); a later request at the floor is served by the ordinary
// relay without a deep-lag detection. The two paths share the per-peer
// cooldown.
func TestDeepLagHandoffInsteadOfRelay(t *testing.T) {
	const n, instances, logCap = 3, 6, 4
	h, records := newDeepLagHarness(t, n, logCap)
	for k := uint64(1); k <= instances; k++ {
		for i := 1; i <= n; i++ {
			h.propose(stack.ProcessID(i), time.Duration(k)*5*time.Millisecond, k,
				tv(fmt.Sprintf("k%d-v%d", k, i)))
		}
	}
	h.w.RunFor(10 * time.Second)
	svc1 := h.svcs[1]
	h.w.After(1, time.Millisecond, func() { svc1.PruneBelow(instances + 1) })

	// Instances 1 and 2 are evicted (cap 4 of 6): the floor is 3.
	floor := instances - logCap + 1
	// p3 claims to be at instance 1 — below the floor: deep lag, no relay.
	h.w.After(3, 5*time.Millisecond, func() { h.svcs[3].RequestSync(1, 1) })
	h.w.RunFor(time.Second)
	if got := svc1.RelayCount(); got != 0 {
		t.Fatalf("deep-lagged peer was relayed %d decisions; expected the OnDeepLag handoff instead", got)
	}
	if got := svc1.DeepLagCount(); got != 1 {
		t.Fatalf("deep-lag detections = %d, want 1", got)
	}
	if len(*records) != 1 || (*records)[0] != (deepLagRecord{at: 1, peer: 3, from: 1}) {
		t.Fatalf("OnDeepLag records = %+v, want one {at:1 peer:3 from:1}", *records)
	}
	if got := svc1.LogFloor(); got != uint64(floor) {
		t.Fatalf("log floor = %d, want %d", got, floor)
	}

	// From the floor onward the ordinary relay takes over: no further
	// deep-lag detection, the full logged tail relayed.
	h.w.After(3, 5*time.Millisecond, func() { h.svcs[3].RequestSync(1, uint64(floor)) })
	h.w.RunFor(time.Second)
	if got := svc1.RelayCount(); got != logCap {
		t.Fatalf("relayed %d decisions from the floor, want %d", got, logCap)
	}
	if got := svc1.DeepLagCount(); got != 1 {
		t.Fatalf("deep-lag detections after floor-level sync = %d, want still 1", got)
	}
}

// TestDeepLagSharesRelayCooldown: a deep-lag detection consumes the peer's
// relay cooldown slot, so a burst of stale traffic cannot fan out a burst
// of offers.
func TestDeepLagSharesRelayCooldown(t *testing.T) {
	const n, instances, logCap = 3, 6, 4
	h, _ := newDeepLagHarness(t, n, logCap)
	for k := uint64(1); k <= instances; k++ {
		for i := 1; i <= n; i++ {
			h.propose(stack.ProcessID(i), time.Duration(k)*5*time.Millisecond, k,
				tv(fmt.Sprintf("k%d-v%d", k, i)))
		}
	}
	h.w.RunFor(10 * time.Second)
	svc1 := h.svcs[1]
	h.w.After(1, time.Millisecond, func() { svc1.PruneBelow(instances + 1) })
	// Two deep requests inside one cooldown window: only the first detects.
	h.w.After(3, 5*time.Millisecond, func() { h.svcs[3].RequestSync(1, 1) })
	h.w.After(3, 5*time.Millisecond+RelayCooldown/2, func() { h.svcs[3].RequestSync(1, 2) })
	h.w.RunFor(time.Second)
	if got := svc1.DeepLagCount(); got != 1 {
		t.Fatalf("deep-lag detections = %d, want 1 (cooldown must rate-limit)", got)
	}
}
