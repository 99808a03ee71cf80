package core

import (
	"time"

	"abcast/internal/msg"
)

// The message table: Algorithm 1's receivedp, unorderedp, orderedp and the
// adelivered set as one record per identifier. The paper describes a message
// by where it is; the record stores that as its phase, and each transition is
// one method, so "unordered, ordered and delivered are disjoint" holds by
// construction instead of being kept in step across maps:
//
//	none ─receive→ unordered ─order→ ordered ─deliverNext→ delivered ─prune→ gone
//	  └──────order (payload not here yet)──────┘
//
// The payload is independent of the phase: an identifier can be ordered
// before its message arrives, and deliverNext then waits for it. The flags
// that ride along are drawn in docs/ARCHITECTURE.md, "Engine state".
//
// How long a message stays delivered depends on who can still ask for it.
// The only readers of a delivered payload are the repair planes (the fetch
// and snapshot producers), which exist only under Config.Recover: without
// them deliverNext takes the last edge itself, and the table holds what is in
// flight and nothing else. With them the payload stays until Persist's
// checkpoint boundary prunes it — or, without Persist, for good.

// phase is where Algorithm 1 has a message.
type phase uint8

const (
	phaseNone      phase = iota // no position: known only by a payload or a claim
	phaseUnordered              // received, not yet decided: proposable
	phaseOrdered                // decided, queued for delivery
	phaseDelivered              // adelivered
)

// msgEntry is the record of one identifier. Records are map values, so a
// message costs no allocation of its own; a transition is load-modify-store.
type msgEntry struct {
	app *msg.App // the payload, nil while not (or no longer) held
	// since is when the message entered unordered or was last re-diffused.
	// Its one reader is stale, so it is stamped only under Recover.
	since   time.Time
	phase   phase
	claimed bool // inside one of this process's outstanding proposals
}

// msgTable is the engine's per-message state.
//
//abcheck:eventloop part of Engine; owned by the process's event loop
type msgTable struct {
	entries map[msg.ID]msgEntry
	// retain says delivered payloads have a reader (Config.Recover after
	// resolve). Without one, delivery forgets the message: see deliverNext.
	retain bool
	// unordered indexes the phase-unordered identifiers in canonical order
	// (what proposals are cut from); ordered is orderedp, the decided
	// identifiers awaiting delivery, in decision order.
	unordered msg.IDSet
	ordered   []ordRec
	// delivered is every identifier ever adelivered here. It outlives the
	// record (deliverNext, prune), so a late copy of a forgotten message is
	// still a duplicate.
	delivered msg.SeenSet
	// wanted indexes the identifiers a failed rcv check named (Engine.rcv)
	// whose payload is still missing: what the recovery fetch asks peers for.
	wanted msg.IDSet
	// held and claimed count the records with a payload and with the claimed
	// flag (Stats.Received; the adaptive backlog is unordered − claimed).
	held, claimed int
}

// payload returns the message held for id, or nil.
func (t *msgTable) payload(id msg.ID) *msg.App { return t.entries[id].app }

// has reports whether this process has received id's message (receivedp,
// which Algorithm 1 never shrinks): the payload is held, or it was delivered
// and may since have been forgotten.
func (t *msgTable) has(id msg.ID) bool {
	return t.entries[id].app != nil || t.delivered.Has(id)
}

// put stores en under id — or drops the record once it says nothing: no
// payload, no claim, and no position the delivered set does not also know.
func (t *msgTable) put(id msg.ID, en msgEntry) {
	if en.app == nil && !en.claimed && (en.phase == phaseNone || en.phase == phaseDelivered) {
		delete(t.entries, id)
		return
	}
	t.entries[id] = en
}

// receive files app's payload and reports whether it was news: not for a
// duplicate, nor for a straggling copy of a message delivered and forgotten,
// which must not re-accumulate what delivery or the prune dropped. R-delivery
// (Algorithm 1 lines 11-14) also makes an identifier without a position
// proposable, as of now; a payload that came inside a decision or a snapshot
// is only filed, since the caller is about to order it.
func (t *msgTable) receive(app *msg.App, now time.Time, proposable bool) bool {
	en, known := t.entries[app.ID]
	if en.app != nil || en.phase == phaseDelivered || (!known && t.delivered.Has(app.ID)) {
		return false
	}
	en.app = app
	t.held++
	t.wanted.Remove(app.ID)
	if proposable && en.phase == phaseNone {
		en.phase, en.since = phaseUnordered, now
		t.unordered.Add(app.ID)
	}
	t.entries[app.ID] = en
	return true
}

// claimBatch cuts a proposal: the unordered identifiers no outstanding
// proposal has claimed, in canonical order, at most max (0 = no cap), now
// claimed by this one. Disjoint batches keep a pipeline from ordering an
// identifier twice through two of this process's own proposals.
func (t *msgTable) claimBatch(max int) []msg.ID {
	all := t.unordered.RawIDs()
	batch := make([]msg.ID, 0, len(all))
	for _, id := range all {
		if en := t.entries[id]; !en.claimed {
			en.claimed = true
			t.entries[id] = en
			if batch = append(batch, id); len(batch) == max {
				break
			}
		}
	}
	t.claimed += len(batch)
	return batch
}

// release undoes the claim once the proposal's instance is settled: whatever
// the decision did not order is proposable again.
func (t *msgTable) release(batch []msg.ID) {
	for _, id := range batch {
		if en := t.entries[id]; en.claimed {
			en.claimed = false
			t.put(id, en)
			t.claimed--
		}
	}
}

// order appends id, decided by instance k, to the ordered queue (Algorithm 1
// lines 19-21) and reports it, unless id is already queued or delivered.
func (t *msgTable) order(id msg.ID, k uint64) bool {
	en := t.entries[id]
	if en.phase == phaseUnordered {
		t.unordered.Remove(id)
	} else if en.phase != phaseNone || t.delivered.Has(id) {
		return false
	}
	en.phase = phaseOrdered
	t.entries[id] = en
	t.ordered = append(t.ordered, ordRec{id: id, k: k})
	return true
}

// blocked reports whether the head of the ordered queue lacks its payload.
func (t *msgTable) blocked() bool {
	return len(t.ordered) > 0 && t.payload(t.ordered[0].id) == nil
}

// deliverNext moves the head of the ordered queue to delivered (Algorithm 1
// lines 23-25) and returns it with its message. A nil message means the
// queue is empty or blocked, and nothing moved. When delivered payloads have
// no reader this is the message's last transition: the payload goes to the
// caller and out of the table, and so does the record (put) unless an
// outstanding proposal of ours still claims it — then release drops it.
func (t *msgTable) deliverNext() (ordRec, *msg.App) {
	if len(t.ordered) == 0 {
		return ordRec{}, nil
	}
	rec := t.ordered[0]
	en := t.entries[rec.id]
	app := en.app
	if app == nil {
		return ordRec{}, nil
	}
	if len(t.ordered) == 1 {
		t.ordered = t.ordered[:0] // drained: keep the array for the next order
	} else {
		t.ordered = t.ordered[1:]
	}
	en.phase = phaseDelivered
	if !t.retain {
		en.app = nil
		t.held--
	}
	t.put(rec.id, en)
	t.delivered.Add(rec.id)
	return rec, app
}

// missing lists, in canonical order, up to max identifiers whose payload is
// known to be lacking: the gaps in the ordered queue, then the wanted index.
func (t *msgTable) missing(max int) []msg.ID {
	var out msg.IDSet
	for i := 0; i < len(t.ordered) && out.Len() < max; i++ {
		if id := t.ordered[i].id; t.payload(id) == nil {
			out.Add(id)
		}
	}
	for i := 0; i < t.wanted.Len() && out.Len() < max; i++ {
		out.Add(t.wanted.RawIDs()[i])
	}
	return out.RawIDs()
}

// stale returns, in canonical order, up to max unordered messages that
// entered or were last re-diffused at least age ago, and restarts their
// clock: the next offer comes no sooner than age from now.
func (t *msgTable) stale(now time.Time, age time.Duration, max int) []*msg.App {
	var out []*msg.App
	for _, id := range t.unordered.RawIDs() {
		if en := t.entries[id]; len(out) < max && now.Sub(en.since) >= age {
			en.since = now
			t.entries[id] = en
			out = append(out, en.app)
		}
	}
	return out
}

// unqueue empties the ordered queue; its identifiers keep their payloads. The
// snapshot installer rebuilds the queue from the transferred decided suffix.
func (t *msgTable) unqueue() {
	for _, rec := range t.ordered {
		en := t.entries[rec.id]
		en.phase = phaseNone
		t.put(rec.id, en)
	}
	t.ordered = t.ordered[:0]
}

// prune drops a delivered message's payload — and its record, unless a claim
// still rides on it. The delivered set keeps the identifier.
func (t *msgTable) prune(id msg.ID) {
	if en := t.entries[id]; en.app != nil {
		en.app = nil
		t.put(id, en)
		t.held--
	}
}

// corruptVolatile is the table's share of Engine.CorruptVolatile: everything
// not yet delivered goes — payloads, the unordered pool, the ordered queue,
// the wanted index — and every claim. The delivered set and the delivered
// messages' payloads stay.
func (t *msgTable) corruptVolatile() {
	for id, en := range t.entries {
		if en.phase != phaseDelivered {
			if en.app != nil {
				t.held--
			}
			en = msgEntry{}
		}
		en.claimed = false
		t.put(id, en)
	}
	t.unordered, t.wanted, t.ordered, t.claimed = msg.IDSet{}, msg.IDSet{}, t.ordered[:0], 0
}
