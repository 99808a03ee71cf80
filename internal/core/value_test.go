package core

import (
	"testing"
	"time"

	"abcast/internal/fd"
	"abcast/internal/metrics"
	"abcast/internal/msg"
	"abcast/internal/simnet"
	"abcast/internal/stack"

	"abcast/internal/netmodel"
)

func mkApp(s, q int, size int) *msg.App {
	return &msg.App{
		ID:      msg.ID{Sender: stack.ProcessID(s), Seq: uint64(q)},
		Payload: make([]byte, size),
	}
}

func TestIDSetValueDecoupledFromPayload(t *testing.T) {
	// The motivating property: identifier values do not grow with message
	// size.
	small := IDSetValue{Set: msg.NewIDSet(mkApp(1, 1, 1).ID)}
	big := IDSetValue{Set: msg.NewIDSet(mkApp(1, 1, 1_000_000).ID)}
	if small.WireSize() != big.WireSize() {
		t.Fatalf("id value size depends on payload: %d vs %d", small.WireSize(), big.WireSize())
	}
}

func TestMsgSetValueCarriesPayload(t *testing.T) {
	v := NewMsgSetValue([]*msg.App{mkApp(1, 1, 5000)})
	if v.WireSize() < 5000 {
		t.Fatalf("message value too small: %d", v.WireSize())
	}
}

func TestMsgSetValueSortsByID(t *testing.T) {
	v := NewMsgSetValue([]*msg.App{mkApp(3, 1, 0), mkApp(1, 2, 0), mkApp(1, 1, 0)})
	ids := v.IDs()
	want := []msg.ID{{Sender: 1, Seq: 1}, {Sender: 1, Seq: 2}, {Sender: 3, Seq: 1}}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
}

func TestValueKeysAgreeAcrossRepresentations(t *testing.T) {
	apps := []*msg.App{mkApp(2, 2, 10), mkApp(1, 1, 10)}
	mv := NewMsgSetValue(apps)
	iv := IDSetValue{Set: msg.NewIDSet(apps[0].ID, apps[1].ID)}
	if mv.Key() != iv.Key() {
		t.Fatal("the id-set and message-set encodings of the same set disagree on Key")
	}
}

func TestIdsOfValue(t *testing.T) {
	apps := []*msg.App{mkApp(1, 1, 0), mkApp(2, 1, 0)}
	if got := idsOfValue(NewMsgSetValue(apps)); len(got) != 2 {
		t.Fatalf("idsOfValue(MsgSet) = %v", got)
	}
	iv := IDSetValue{Set: msg.NewIDSet(apps[0].ID)}
	if got := idsOfValue(iv); len(got) != 1 || got[0] != apps[0].ID {
		t.Fatalf("idsOfValue(IDSet) = %v", got)
	}
	if got := idsOfValue(nil); got != nil {
		t.Fatalf("idsOfValue(nil) = %v", got)
	}
}

func TestConfigValidationCore(t *testing.T) {
	w := simnet.NewWorld(1, netmodel.Instant(), 1)
	if _, err := New(w.Node(1), Config{}); err == nil {
		t.Error("nil Deliver accepted")
	}
	if _, err := New(w.Node(1), Config{Deliver: func(*msg.App) {}, Variant: Variant(99)}); err == nil {
		t.Error("unknown variant accepted")
	}
	// A nil Detector is not an error: the engine makes the default heartbeat
	// detector, and it runs.
	reg := metrics.New()
	e, err := New(w.Node(1), Config{Variant: VariantIndirectCT, Deliver: func(*msg.App) {}, Metrics: reg})
	if err != nil {
		t.Fatalf("nil detector rejected: %v", err)
	}
	w.RunFor(time.Second)
	if _, ok := e.cfg.Detector.(*fd.Heartbeat); !ok || reg.Snapshot()["fd.heartbeats_sent"] == 0 {
		t.Errorf("default detector = %T, %d heartbeats sent; want a running *fd.Heartbeat",
			e.cfg.Detector, reg.Snapshot()["fd.heartbeats_sent"])
	}
}

// TestMaxBatchOneInstancePerMessage pins the batching knob: with MaxBatch=1
// each consensus instance orders exactly one message.
func TestMaxBatchOneInstancePerMessage(t *testing.T) {
	const n = 3
	g := newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), 5, freeRcv, func(cfg *Config) { cfg.MaxBatch = 1 })
	const total = 12
	for s := 0; s < total; s++ {
		g.Broadcast(stack.ProcessID(s%n+1), time.Duration(s)*300*time.Microsecond, "x")
	}
	g.Run(30 * time.Second)
	st := g.engines[1].Stats()
	if st.Delivered != total {
		t.Fatalf("delivered %d/%d", st.Delivered, total)
	}
	if st.Instances != total {
		t.Fatalf("MaxBatch=1 ran %d instances for %d messages", st.Instances, total)
	}
}
