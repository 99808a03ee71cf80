// Package check is the history oracle of atomic broadcast. It takes what a
// run left behind — every process's deliveries, every broadcast identifier,
// every decision a process learned — and holds it to the paper's contract
// (Section 2): Uniform integrity, Uniform total order and one decided value
// per consensus instance on any prefix of a run (Safety), and, once the run
// is quiescent, Validity and Uniform agreement (Complete). It reads
// identifiers only, so any harness can feed it: the simulator's test group,
// the live Cluster, tcpnet peers.
//
// A process that restarts is a sequence of incarnations. A new incarnation
// may redeliver what the previous one delivered (it resumes at its
// checkpoint), so integrity is per incarnation; but each incarnation must be
// a contiguous window of the one total order, starting no later than where
// the previous one stopped.
//
// Decisions are compared, not only delivery logs: two processes can decide
// different values for one instance and still deliver the same sequence, when
// one value's identifiers turn up again in a later instance.
//
// Every check walks processes, incarnations and positions in increasing
// order, and broadcasts and decisions sorted, so a failing history reports
// the same violation every time.
package check

import (
	"cmp"
	"fmt"
	"slices"

	"abcast/internal/msg"
	"abcast/internal/stack"
)

// History is one run's record.
type History struct {
	// Logs[p][i] is what incarnation i of process p delivered, in delivery
	// order. Logs[0] is unused.
	Logs [][][]msg.ID
	// Broadcast lists the identifier of every message any process
	// broadcast.
	Broadcast []msg.ID
	// Decisions lists every decision a process learned, once per
	// incarnation that learned it.
	Decisions []Decision
}

// Decision is process P learning the value of consensus instance K. Key is
// the value's canonical identity (consensus.Value.Key).
type Decision struct {
	P   stack.ProcessID
	K   uint64
	Key string
}

// Safety checks what must hold of every prefix of a run:
//   - Uniform integrity: no two broadcasts share an identifier, and each
//     incarnation delivers only broadcast messages, each at most once;
//   - Uniform total order: every incarnation of every process, crashed or
//     not, is a window of one order, as the package doc describes;
//   - every process that decided instance k, in any incarnation, decided the
//     same value.
func Safety(h History) error {
	_, _, err := safety(h)
	return err
}

// safety is Safety, also returning the total order and, per process, the
// position where its latest incarnation stopped.
func safety(h History) (canon []msg.ID, last []int, err error) {
	if canon, last, err = order(h); err != nil {
		return nil, nil, err
	}
	ds := slices.Clone(h.Decisions)
	slices.SortStableFunc(ds, func(a, b Decision) int {
		return cmp.Or(cmp.Compare(a.K, b.K), cmp.Compare(a.P, b.P))
	})
	for i := 1; i < len(ds); i++ {
		if a, b := ds[i-1], ds[i]; a.K == b.K && a.Key != b.Key {
			return nil, nil, fmt.Errorf("instance %d decided twice: p%d decided %x, p%d decided %x", a.K, a.P, a.Key, b.P, b.Key)
		}
	}
	return canon, last, nil
}

// Complete checks, at quiescence, that the latest incarnation of every
// process in correct has delivered the whole total order — every message any
// process delivered — and that the order holds every message broadcast by a
// process in correct or in senders. senders names processes that are not
// bound to deliver but whose broadcasts are: a member that left the group,
// or one that a fault stopped. Complete reports a safety violation first.
func Complete(h History, correct []stack.ProcessID, senders ...stack.ProcessID) error {
	canon, last, err := safety(h)
	if err != nil {
		return err
	}
	ordered := make(map[msg.ID]bool, len(canon))
	for _, id := range canon {
		ordered[id] = true
	}
	bound := append(slices.Clone(correct), senders...)
	for _, id := range sortedIDs(h.Broadcast) {
		if slices.Contains(bound, id.Sender) && !ordered[id] {
			return fmt.Errorf("%v, broadcast by p%d, was never delivered", id, id.Sender)
		}
	}
	for _, p := range slices.Sorted(slices.Values(correct)) {
		at := 0
		if int(p) < len(last) {
			at = last[p]
		}
		if at < len(canon) {
			return fmt.Errorf("p%d stopped at position %d of the %d-message total order, before %v",
				p, at, len(canon), canon[at])
		}
	}
	return nil
}

// order checks integrity and builds the total order every incarnation is a
// window of.
func order(h History) (canon []msg.ID, last []int, err error) {
	sent := make(map[msg.ID]bool, len(h.Broadcast))
	for _, id := range sortedIDs(h.Broadcast) {
		if sent[id] {
			return nil, nil, fmt.Errorf("two broadcasts share the identifier %v", id)
		}
		sent[id] = true
	}
	for p := 1; p < len(h.Logs); p++ {
		for i, log := range h.Logs[p] {
			at := make(map[msg.ID]int, len(log))
			for j, id := range log {
				if !sent[id] {
					return nil, nil, fmt.Errorf("p%d incarnation %d delivered %v, which was never broadcast", p, i, id)
				}
				if k, dup := at[id]; dup {
					return nil, nil, fmt.Errorf("p%d incarnation %d delivered %v twice, at %d and %d", p, i, id, k, j)
				}
				at[id] = j
			}
		}
	}

	pos := make(map[msg.ID]int)
	var by []int // by[i]: the process whose log put canon[i] there
	place := func(p, i int, log []msg.ID, start int) error {
		for j, id := range log {
			if at := start + j; at < len(canon) {
				if canon[at] != id {
					return fmt.Errorf("total order violated at position %d: p%d incarnation %d delivered %v, p%d delivered %v",
						at, p, i, id, by[at], canon[at])
				}
				continue
			}
			if k, dup := pos[id]; dup {
				return fmt.Errorf("p%d incarnation %d delivered %v at position %d of the total order, which has it at %d",
					p, i, id, len(canon), k)
			}
			pos[id] = len(canon)
			canon = append(canon, id)
			by = append(by, p)
		}
		return nil
	}
	last = make([]int, len(h.Logs))
	for p := 1; p < len(h.Logs); p++ {
		if len(h.Logs[p]) > 0 {
			if err := place(p, 0, h.Logs[p][0], 0); err != nil {
				return nil, nil, err
			}
			last[p] = len(h.Logs[p][0])
		}
	}
	for p := 1; p < len(h.Logs); p++ {
		for i := 1; i < len(h.Logs[p]); i++ {
			log := h.Logs[p][i]
			if len(log) == 0 {
				continue
			}
			// A window whose first message is not yet in the order can only
			// start where the previous incarnation stopped.
			start := last[p]
			if at, ok := pos[log[0]]; ok {
				start = at
			}
			if start > last[p] {
				return nil, nil, fmt.Errorf("p%d incarnation %d resumed at position %d of the total order, past position %d where the one before stopped",
					p, i, start, last[p])
			}
			if err := place(p, i, log, start); err != nil {
				return nil, nil, err
			}
			last[p] = start + len(log)
		}
	}
	return canon, last, nil
}

func sortedIDs(ids []msg.ID) []msg.ID {
	out := slices.Clone(ids)
	slices.SortFunc(out, func(a, b msg.ID) int {
		return cmp.Or(cmp.Compare(a.Sender, b.Sender), cmp.Compare(a.Seq, b.Seq))
	})
	return out
}
