package consensus

// Allocation pins for the per-instance path: an instance is one allocation,
// its first two rounds live inside it, and a relayed decide is sent as it
// was received.

import (
	"testing"

	"abcast/internal/fd"
	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

var sinkInstance *instance

func TestNewInstanceIsOneAllocation(t *testing.T) {
	for _, algo := range []Algo{CT, MR} {
		svc := &Service{cfg: Config{Algo: algo}}
		got := testing.AllocsPerRun(100, func() { sinkInstance = newInstance(svc, 1) })
		if got != 1 {
			t.Errorf("%v: newInstance allocates %v objects, want 1", algo, got)
		}
	}
}

func TestFirstTwoRoundsAreInline(t *testing.T) {
	var rs rounds[ctRound]
	got := testing.AllocsPerRun(100, func() {
		rs = rounds[ctRound]{}
		rs.at(1).propSent = true
		rs.at(2).propSent = true
		if !rs.at(1).propSent || !rs.at(2).propSent {
			t.Fatal("a round record lost its state")
		}
	})
	if got != 0 {
		t.Errorf("rounds 1 and 2 allocate %v objects, want 0", got)
	}
	got = testing.AllocsPerRun(100, func() {
		rs = rounds[ctRound]{}
		rs.at(1).propSent = true
		rs.at(2)
		rs.at(3)
		if !rs.at(1).propSent {
			t.Fatal("round 1 lost its state when round 3 moved the records")
		}
	})
	if got == 0 {
		t.Error("a third round allocates nothing: the inline records cannot hold it")
	}
}

// countingSender stands in for the transport and counts what it is handed.
type countingSender struct{ sent int }

func (s *countingSender) Send(stack.ProcessID, stack.Envelope) { s.sent++ }

func TestRelayedDecideAllocatesNothing(t *testing.T) {
	const n, runs = 3, 100
	w := simnet.NewWorld(n, netmodel.Setup1(), 42)
	node := w.Node(1)
	svc, err := NewService(node, Config{Algo: CT, Detector: fd.NewScripted()})
	if err != nil {
		t.Fatal(err)
	}
	out := &countingSender{}
	node.SetSender(out)
	for k := uint64(1); k <= runs+1; k++ {
		svc.instance(k)
	}
	var m stack.Message = DecideMsg{Est: tv("v")}
	k := uint64(1)
	got := testing.AllocsPerRun(runs, func() {
		svc.receive(2, k, m)
		k++
	})
	if got != 0 {
		t.Errorf("relaying a received decide allocates %v objects, want 0", got)
	}
	if want := (runs + 1) * (n - 1); out.sent != want {
		t.Fatalf("%d decides relayed, want %d", out.sent, want)
	}
}
