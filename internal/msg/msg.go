// Package msg defines application messages and message identifiers — the
// paper's id(m) and msgs(-) constructs (Section 2.1).
//
// Every atomically-broadcast message m carries a unique identifier id(m),
// the pair (sender, per-sender sequence number). The relationship between
// messages and identifiers is bijective, which is the property the paper's
// reduction relies on to infer a delivery order of messages from an ordered
// sequence of identifiers.
//
// IDSet is the value type indirect consensus decides on: deterministic
// canonical order (Algorithm 1 line 20 needs one), cheap set algebra for
// the engine's unordered/ordered bookkeeping, and a wire footprint that
// depends only on the number of identifiers — the decoupling of consensus
// cost from payload size that motivates the whole approach.
//
// SeenSet (seenset.go) is the other set of identifiers: append-only, and
// compressed along the way identifiers are numbered. Every layer that asks
// "have I seen id(m)" — the engine's adelivered set, each broadcast's
// duplicate suppression, the persist checkpoint's digest — asks one.
package msg

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"abcast/internal/stack"
)

// IDWireBytes is the wire footprint of one identifier (4-byte sender +
// 8-byte sequence number).
const IDWireBytes = 12

// ID uniquely identifies an application message.
type ID struct {
	Sender stack.ProcessID
	Seq    uint64
}

// Less orders identifiers deterministically (by sender, then sequence
// number). Algorithm 1 line 20 needs "elements of idSet in some
// deterministic order"; this is that order.
func (a ID) Less(b ID) bool {
	if a.Sender != b.Sender {
		return a.Sender < b.Sender
	}
	return a.Seq < b.Seq
}

// String implements fmt.Stringer.
func (a ID) String() string { return fmt.Sprintf("%d:%d", a.Sender, a.Seq) }

// ConfigChange is a membership reconfiguration request riding the total
// order like any payload: at most one process joining and one leaving. Its
// delivery point — the ordering serial the carrying message is delivered at
// — defines where the quorum switch takes effect (see internal/core).
type ConfigChange struct {
	Join  stack.ProcessID // 0 = no join
	Leave stack.ProcessID // 0 = no leave
}

// configWireBytes is the wire footprint of an embedded ConfigChange (two
// 4-byte process ids).
const configWireBytes = 8

// App is an application message: an identifier plus an opaque payload.
// Config, when non-nil, marks the message as a membership reconfiguration;
// the engine consumes it at the delivery boundary instead of handing it to
// the application.
type App struct {
	ID      ID
	Payload []byte
	Config  *ConfigChange
}

// WireSize implements stack.Message.
func (a *App) WireSize() int {
	n := IDWireBytes + len(a.Payload)
	if a.Config != nil {
		n += configWireBytes
	}
	return n
}

var _ stack.Message = (*App)(nil)

// IDSet is a set of message identifiers kept as a sorted slice, so that the
// canonical order is always available and set operations are deterministic.
type IDSet struct {
	ids []ID // sorted, unique
}

// NewIDSet builds a set from the given identifiers (duplicates are
// discarded).
func NewIDSet(ids ...ID) IDSet {
	var s IDSet
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Len returns the number of identifiers in the set.
func (s IDSet) Len() int { return len(s.ids) }

// Empty reports whether the set has no elements.
func (s IDSet) Empty() bool { return len(s.ids) == 0 }

// IDs returns the identifiers in canonical (deterministic) order. The
// returned slice is a copy.
func (s IDSet) IDs() []ID {
	out := make([]ID, len(s.ids))
	copy(out, s.ids)
	return out
}

// search returns the insertion index of id.
func (s IDSet) search(id ID) int {
	return sort.Search(len(s.ids), func(i int) bool { return !s.ids[i].Less(id) })
}

// Contains reports membership.
func (s IDSet) Contains(id ID) bool {
	i := s.search(id)
	return i < len(s.ids) && s.ids[i] == id
}

// Add inserts id, keeping the canonical order. It reports whether the set
// changed.
func (s *IDSet) Add(id ID) bool {
	i := s.search(id)
	if i < len(s.ids) && s.ids[i] == id {
		return false
	}
	s.ids = append(s.ids, ID{})
	copy(s.ids[i+1:], s.ids[i:])
	s.ids[i] = id
	return true
}

// Remove deletes id if present and reports whether the set changed.
func (s *IDSet) Remove(id ID) bool {
	i := s.search(id)
	if i >= len(s.ids) || s.ids[i] != id {
		return false
	}
	s.ids = append(s.ids[:i], s.ids[i+1:]...)
	return true
}

// Clone returns an independent copy.
func (s IDSet) Clone() IDSet {
	return IDSet{ids: append([]ID(nil), s.ids...)}
}

// RawIDs returns the backing sorted slice; callers must not mutate it. The
// wire codec iterates it to avoid the copy IDs() makes on every encode.
func (s IDSet) RawIDs() []ID { return s.ids }

// IDSetFromSorted adopts ids as a set, taking ownership of the slice. It
// trusts the canonical order when it holds and re-normalizes otherwise —
// the defensive path for sets decoded from untrusted wire input.
func IDSetFromSorted(ids []ID) IDSet {
	for i := 1; i < len(ids); i++ {
		if !ids[i-1].Less(ids[i]) {
			return NewIDSet(ids...)
		}
	}
	if len(ids) == 0 {
		ids = nil
	}
	return IDSet{ids: ids}
}

// Equal reports whether both sets hold exactly the same identifiers.
func (s IDSet) Equal(other IDSet) bool {
	if len(s.ids) != len(other.ids) {
		return false
	}
	for i := range s.ids {
		if s.ids[i] != other.ids[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string encoding, used as an equality key by
// consensus algorithms that compare estimates (Mostéfaoui–Raynal Phase 2).
func (s IDSet) Key() string {
	b := make([]byte, 0, len(s.ids)*IDWireBytes)
	for _, id := range s.ids {
		b = append(b,
			byte(id.Sender>>24), byte(id.Sender>>16), byte(id.Sender>>8), byte(id.Sender),
			byte(id.Seq>>56), byte(id.Seq>>48), byte(id.Seq>>40), byte(id.Seq>>32),
			byte(id.Seq>>24), byte(id.Seq>>16), byte(id.Seq>>8), byte(id.Seq),
		)
	}
	return string(b)
}

// WireSize implements stack.Message: identifiers only, independent of the
// size of the underlying messages. This is the decoupling that motivates
// indirect consensus.
func (s IDSet) WireSize() int { return 4 + len(s.ids)*IDWireBytes }

// GobEncode implements gob.GobEncoder: the set travels as its canonical
// identifier slice (the backing slice is unexported). The live transport no
// longer uses gob — internal/wire has its own binary codec — but the codec's
// differential test keeps a gob baseline, which needs these hooks.
func (s IDSet) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.ids); err != nil {
		return nil, fmt.Errorf("encode id set: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (s *IDSet) GobDecode(data []byte) error {
	var ids []ID
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ids); err != nil {
		return fmt.Errorf("decode id set: %w", err)
	}
	*s = IDSet{}
	for _, id := range ids {
		s.Add(id) // re-normalize defensively
	}
	return nil
}

// String implements fmt.Stringer.
func (s IDSet) String() string {
	out := "{"
	for i, id := range s.ids {
		if i > 0 {
			out += ","
		}
		out += id.String()
	}
	return out + "}"
}
