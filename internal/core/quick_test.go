package core

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// quickRun is one run of the property sweeps: random jitter, traffic and
// crash time for p3, then the history oracle with the survivors complete.
func quickRun(t *testing.T, seed16 uint16, crashAt8, traffic8 uint8, mutate ...func(*Config)) bool {
	seed := int64(seed16) + 1
	params := netmodel.Setup1()
	params.Jitter = time.Duration(seed%5) * 20 * time.Microsecond
	g := newGroup(t, 3, VariantIndirectCT, params, seed, append([]func(*Config){freeRcv}, mutate...)...)
	msgs := int(traffic8)%12 + 4
	for s := 0; s < msgs; s++ {
		p := stack.ProcessID(s%3 + 1)
		at := time.Duration((int(seed)*31+s*47)%300) * time.Millisecond
		g.Broadcast(p, at, fmt.Sprintf("m%d", s))
	}
	crashAt := time.Duration(crashAt8) * 2 * time.Millisecond
	g.w.After(1, crashAt, func() { g.w.Crash(3, simnet.DropInFlight) })
	g.Run(15 * time.Second)
	g.complete(procs(1, 2))
	return true
}

// TestSafetyPropertiesQuick is a property-based test: for random seeds,
// jitters, traffic patterns and crash times, the indirect-CT stack must
// satisfy the history oracle, with the survivors complete.
func TestSafetyPropertiesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized simulation sweep")
	}
	property := func(seed16 uint16, crashAt8, traffic8 uint8) bool {
		return quickRun(t, seed16, crashAt8, traffic8)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSafetyPropertiesQuickPipelined extends the property sweep with a
// random pipeline window and batch cap: whatever (W, MaxBatch, seed, crash
// time) the generator picks, the same must hold.
func TestSafetyPropertiesQuickPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized simulation sweep")
	}
	property := func(seed16 uint16, crashAt8, traffic8, w8, batch8 uint8) bool {
		w := int(w8)%4 + 1          // W in 1..4
		maxBatch := int(batch8) % 4 // 0 = unbounded, else 1..3
		return quickRun(t, seed16, crashAt8, traffic8, pipelined(w, maxBatch))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// SoakLongRun pushes sustained traffic with periodic payload size changes
// for many virtual minutes; guards against slow state leaks and ordering
// drift in long executions.
func TestSoakLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	g := newGroup(t, 3, VariantIndirectCT, netmodel.Setup1(), 99)
	const total = 2000
	for s := 0; s < total; s++ {
		p := stack.ProcessID(s%3 + 1)
		at := time.Duration(s) * 2 * time.Millisecond // ~500 msg/s for 4s
		size := (s % 5) * 400
		g.Broadcast(p, at, string(make([]byte, size)))
	}
	g.Run(60 * time.Second)
	for p := 1; p <= 3; p++ {
		st := g.engines[p].Stats()
		if st.Delivered != total {
			t.Fatalf("p%d delivered %d/%d", p, st.Delivered, total)
		}
		if st.Unordered != 0 || st.OrderedQ != 0 {
			t.Fatalf("p%d left residue: %+v", p, st)
		}
		if count := g.engines[p].cons.InstanceCount(); count > 3 {
			t.Fatalf("p%d retains %d instances after soak", p, count)
		}
	}
}
