package core

// Hot-path microbenchmark: per-message cost of fully-ordered delivery
// through the whole engine — broadcast, identifier bookkeeping, indirect
// consensus, deterministic delivery — on a loss-free 3-process world.

import (
	"testing"
	"time"

	"abcast/internal/netmodel"
	"abcast/internal/stack"
)

// BenchmarkEngineOrderedDelivery atomically broadcasts b.N messages from
// rotating senders and reports the cost per message delivered in total
// order at all three processes.
func BenchmarkEngineOrderedDelivery(b *testing.B) {
	g := newGroup(b, 3, VariantIndirectCT, netmodel.Setup1(), 11, freeRcv)
	const gap = 2 * time.Millisecond
	payload := make([]byte, 256)
	for i := 0; i < b.N; i++ {
		p := stack.ProcessID(i%3 + 1)
		at := time.Duration(i) * gap
		g.w.After(p, at, func() { g.abcast(p, payload) })
	}
	b.ReportAllocs()
	b.ResetTimer()
	g.w.RunFor(time.Duration(b.N)*gap + 5*time.Second)
	b.StopTimer()
	for p := stack.ProcessID(1); p <= 3; p++ {
		if got := len(g.delivered(p)); got != b.N {
			b.Fatalf("p%d delivered %d/%d", p, got, b.N)
		}
	}
	g.complete(procs(1, 2, 3))
}
