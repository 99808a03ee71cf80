package check

import (
	"strings"
	"testing"

	"abcast/internal/msg"
	"abcast/internal/stack"
)

func id(sender, seq int) msg.ID { return msg.ID{Sender: stack.ProcessID(sender), Seq: uint64(seq)} }

// a, b, c, d, e are five messages, broadcast by p1 and p2.
var a, b, c, d, e = id(1, 1), id(2, 1), id(1, 2), id(2, 2), id(1, 3)

// runs is a slice of incarnations, one per argument.
func runs(incs ...[]msg.ID) [][]msg.ID { return incs }

func TestOracleCatchesEachViolation(t *testing.T) {
	all := []msg.ID{a, b, c, d, e}
	correct := []stack.ProcessID{1, 2, 3}
	for _, tc := range []struct {
		name string
		h    History
		want string // a fragment of the first violation reported
	}{
		{"duplicate", History{
			Logs:      [][][]msg.ID{nil, runs([]msg.ID{a, b, a})},
			Broadcast: all,
		}, "delivered 1:1 twice"},
		{"swapped order", History{
			Logs:      [][][]msg.ID{nil, runs([]msg.ID{a, b, c}), runs([]msg.ID{a, c, b})},
			Broadcast: all,
		}, "total order violated at position 1"},
		{"swapped order at a crashed process", History{
			Logs:      [][][]msg.ID{nil, runs([]msg.ID{a, b, c, d}), runs([]msg.ID{b})},
			Broadcast: all,
		}, "total order violated at position 0"},
		{"incarnation gap", History{
			Logs:      [][][]msg.ID{nil, runs([]msg.ID{a, b, c, d, e}), runs([]msg.ID{a, b}, []msg.ID{d, e})},
			Broadcast: all,
		}, "p2 incarnation 1 resumed at position 3 of the total order, past position 2"},
		{"divergent decisions", History{
			Logs:      [][][]msg.ID{nil, runs([]msg.ID{a, b}), runs([]msg.ID{a, b})},
			Broadcast: all,
			Decisions: []Decision{{P: 2, K: 1, Key: "ab"}, {P: 1, K: 1, Key: "a"}, {P: 1, K: 2, Key: "b"}},
		}, "instance 1 decided twice: p1"},
		{"divergent decisions across incarnations", History{
			Logs:      [][][]msg.ID{nil, runs([]msg.ID{a}, nil)},
			Broadcast: all,
			Decisions: []Decision{{P: 1, K: 1, Key: "a"}, {P: 1, K: 1, Key: "b"}},
		}, "instance 1 decided twice"},
		{"never broadcast", History{
			Logs:      [][][]msg.ID{nil, runs([]msg.ID{a, id(3, 1)})},
			Broadcast: all,
		}, "delivered 3:1, which was never broadcast"},
		{"aliased broadcast", History{
			Logs:      [][][]msg.ID{nil, runs([]msg.ID{a})},
			Broadcast: []msg.ID{a, b, a},
		}, "two broadcasts share the identifier 1:1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := Safety(tc.h)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Safety = %v, want a violation containing %q", err, tc.want)
			}
			if again := Safety(tc.h); again.Error() != err.Error() {
				t.Fatalf("the same history reported %q, then %q", err, again)
			}
			if cerr := Complete(tc.h, correct); cerr == nil || cerr.Error() != err.Error() {
				t.Fatalf("Complete = %v, want the safety violation %v first", cerr, err)
			}
		})
	}
}

func TestOracleCatchesMissingDelivery(t *testing.T) {
	full := []msg.ID{a, b, c, d}
	for _, tc := range []struct {
		name    string
		h       History
		correct []stack.ProcessID
		senders []stack.ProcessID
		want    string
	}{
		{"a correct process stopped short", History{
			Logs:      [][][]msg.ID{nil, runs(full), runs(full[:3]), runs(full)},
			Broadcast: full,
		}, []stack.ProcessID{1, 2, 3}, nil, "p2 stopped at position 3 of the 4-message total order, before 2:2"},
		{"a crashed process delivered what a correct one did not", History{
			Logs:      [][][]msg.ID{nil, runs(full[:2]), runs(full)},
			Broadcast: full,
		}, []stack.ProcessID{1}, nil, "p1 stopped at position 2"},
		{"a restarted process did not catch up", History{
			Logs:      [][][]msg.ID{nil, runs(full), runs(full[:3], full[1:2])},
			Broadcast: full,
		}, []stack.ProcessID{1, 2}, nil, "p2 stopped at position 2"},
		{"a correct broadcast was lost", History{
			Logs:      [][][]msg.ID{nil, runs(full[:3]), runs(full[:3])},
			Broadcast: full,
		}, []stack.ProcessID{1, 2}, nil, "2:2, broadcast by p2, was never delivered"},
		{"a leaver's broadcast was lost", History{
			Logs:      [][][]msg.ID{nil, runs(full[:3]), runs(full[:3])},
			Broadcast: full,
		}, []stack.ProcessID{1}, []stack.ProcessID{2}, "2:2, broadcast by p2, was never delivered"},
		{"a process that never delivered", History{
			Logs:      [][][]msg.ID{nil, runs(full)},
			Broadcast: full,
		}, []stack.ProcessID{1, 4}, nil, "p4 stopped at position 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := Safety(tc.h); err != nil {
				t.Fatalf("a safe history failed Safety: %v", err)
			}
			err := Complete(tc.h, tc.correct, tc.senders...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Complete = %v, want a violation containing %q", err, tc.want)
			}
		})
	}
}

// TestOracleAcceptsRestartRedelivery: a restarted process resumes at its
// checkpoint, below where it crashed, and redelivers the suffix above it; a
// process that crashed for good keeps a prefix; a lost broadcast of a crashed
// process binds nobody.
func TestOracleAcceptsRestartRedelivery(t *testing.T) {
	h := History{
		Logs: [][][]msg.ID{nil,
			runs([]msg.ID{a, b, c, d, e}),
			runs([]msg.ID{a, b, c}, []msg.ID{b, c, d}, nil, []msg.ID{d, e}),
			runs([]msg.ID{a, b}),
			runs([]msg.ID{a}, []msg.ID{b, c, d, e}),
		},
		Broadcast: []msg.ID{a, b, c, d, e, id(3, 1)},
		Decisions: []Decision{{P: 1, K: 1, Key: "ab"}, {P: 2, K: 1, Key: "ab"}, {P: 2, K: 1, Key: "ab"}, {P: 4, K: 2, Key: "cde"}},
	}
	if err := Safety(h); err != nil {
		t.Fatalf("Safety: %v", err)
	}
	if err := Complete(h, []stack.ProcessID{1, 2, 4}); err != nil {
		t.Fatalf("Complete: %v", err)
	}
}
