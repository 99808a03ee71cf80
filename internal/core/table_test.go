package core

import (
	"testing"
	"time"

	"abcast/internal/msg"
)

// checkTable holds an engine's message table to its invariants. The table's
// transitions are supposed to make these true by construction; every group
// run calls this between simulation slices (group.Run) so that crashes,
// partitions, snapshots, restarts and CorruptVolatile all get a chance to
// break them.
func checkTable(t testing.TB, e *Engine) {
	t.Helper()
	tb := &e.msgs
	p := e.ctx.ID()

	queued := make(map[msg.ID]bool, len(tb.ordered))
	for _, rec := range tb.ordered {
		if queued[rec.id] {
			t.Errorf("p%d: %v queued twice in ordered", p, rec.id)
		}
		queued[rec.id] = true
	}
	ids := tb.unordered.RawIDs()
	for i := 1; i < len(ids); i++ {
		if !ids[i-1].Less(ids[i]) {
			t.Errorf("p%d: unordered index out of order at %d: %v, %v", p, i, ids[i-1], ids[i])
		}
	}

	// Every record is in exactly the place its phase names, and nowhere else.
	held, claimed, unordered, ordered := 0, 0, 0, 0
	for id, en := range tb.entries {
		if en.app != nil {
			held++
			if en.app.ID != id {
				t.Errorf("p%d: %v holds the payload of %v", p, id, en.app.ID)
			}
		}
		if en.claimed {
			claimed++
		}
		if en.app == nil && !en.claimed && (en.phase == phaseNone || en.phase == phaseDelivered) {
			t.Errorf("p%d: %v has a record that says nothing (phase %d)", p, id, en.phase)
		}
		if !tb.retain && en.phase == phaseDelivered && (en.app != nil || !en.claimed) {
			// Nobody can ask for a delivered payload: delivery was the last
			// transition, and only a claim keeps the record until release.
			t.Errorf("p%d: %v outlived its delivery (payload held: %v, claimed: %v)", p, id, en.app != nil, en.claimed)
		}
		if en.phase == phaseUnordered {
			unordered++
			if en.app == nil {
				t.Errorf("p%d: %v is unordered without a payload", p, id)
			}
		}
		if en.phase == phaseOrdered {
			ordered++
		}
		if got := tb.unordered.Contains(id); got != (en.phase == phaseUnordered) {
			t.Errorf("p%d: %v phase %d, in unordered index: %v", p, id, en.phase, got)
		}
		if queued[id] != (en.phase == phaseOrdered) {
			t.Errorf("p%d: %v phase %d, in ordered queue: %v", p, id, en.phase, queued[id])
		}
		if got := tb.delivered.Has(id); got != (en.phase == phaseDelivered) {
			t.Errorf("p%d: %v phase %d, in delivered set: %v", p, id, en.phase, got)
		}
	}
	// With the per-record checks above, equal sizes make the index and the
	// queue exactly the phase-unordered and phase-ordered records.
	if unordered != tb.unordered.Len() || ordered != len(tb.ordered) {
		t.Errorf("p%d: %d unordered records vs index of %d; %d ordered records vs queue of %d",
			p, unordered, tb.unordered.Len(), ordered, len(tb.ordered))
	}
	if held != tb.held || claimed != tb.claimed {
		t.Errorf("p%d: counters held=%d claimed=%d, recount %d and %d", p, tb.held, tb.claimed, held, claimed)
	}
	for _, id := range tb.wanted.RawIDs() {
		if tb.payload(id) != nil {
			t.Errorf("p%d: %v is wanted and held", p, id)
		}
	}
	// The claims are exactly this process's outstanding proposals.
	inFlight := 0
	for _, prop := range e.inFlight {
		inFlight += prop.ids.Len()
		for _, id := range prop.ids.RawIDs() {
			if !tb.entries[id].claimed {
				t.Errorf("p%d: %v is in an outstanding proposal but not claimed", p, id)
			}
		}
	}
	if inFlight != tb.claimed {
		t.Errorf("p%d: %d identifiers in outstanding proposals, %d claimed", p, inFlight, tb.claimed)
	}
}

// TestDrainedQueueKeepsItsArray: a serial run orders one message and
// delivers it before the next is decided, draining the ordered queue each
// time; the next order goes into the array the queue already has.
func TestDrainedQueueKeepsItsArray(t *testing.T) {
	const runs = 100
	tb := msgTable{entries: make(map[msg.ID]msgEntry, 2*runs)}
	for seq := uint64(1); seq <= runs+1; seq++ {
		tb.receive(&msg.App{ID: msg.ID{Sender: 1, Seq: seq}}, time.Time{}, false)
	}
	seq := uint64(0)
	got := testing.AllocsPerRun(runs, func() {
		seq++
		id := msg.ID{Sender: 1, Seq: seq}
		if !tb.order(id, seq) {
			t.Fatalf("%v not ordered", id)
		}
		if rec, app := tb.deliverNext(); app == nil || rec.id != id || len(tb.ordered) != 0 {
			t.Fatalf("%v not delivered alone", id)
		}
	})
	if got != 0 {
		t.Errorf("order and delivery on a drained queue allocate %v objects, want 0", got)
	}
}
