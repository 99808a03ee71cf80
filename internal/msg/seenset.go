package msg

import (
	"sort"

	"abcast/internal/stack"
)

// SeenSet answers "have I seen id(m)" for the stack: the engine's adelivered
// set and the diffusion layer's duplicate suppression are both one. It is
// shaped after how identifiers are made — each sender numbers its messages
// 1, 2, 3, … — and keeps, per sender, the floor of the contiguous prefix
// (every sequence number ≤ the floor is in the set) plus the sparse residue
// of identifiers above their sender's floor. An identifier that extends the
// prefix advances the floor and folds in any residue that became contiguous,
// so once a sender's identifiers have all arrived the set costs one map
// entry for that sender, however long the run.
//
// The zero value is an empty set. Identifiers from the wire are untrusted:
// a sequence number far from the floor, or a sender nobody knows, costs one
// residue entry and never an allocation sized by the value.
type SeenSet struct {
	floors  map[stack.ProcessID]uint64
	residue map[ID]struct{}
}

// Has reports whether id is in the set.
func (s *SeenSet) Has(id ID) bool {
	// Sequence numbers start at 1; id.Seq-1 wraps 0 above every floor.
	if id.Seq-1 < s.floors[id.Sender] {
		return true
	}
	_, ok := s.residue[id]
	return ok
}

// Add inserts id and reports whether the set changed. The common case — the
// sender's next identifier, nothing out of order — is one lookup and one
// store.
func (s *SeenSet) Add(id ID) bool {
	f := s.floors[id.Sender]
	if id.Seq-1 < f {
		return false
	}
	if s.floors == nil {
		s.floors, s.residue = make(map[stack.ProcessID]uint64), make(map[ID]struct{})
	}
	if id.Seq != f+1 || id.Seq == 0 {
		_, had := s.residue[id]
		s.residue[id] = struct{}{}
		return !had
	}
	for f++; len(s.residue) > 0; f++ {
		next := ID{Sender: id.Sender, Seq: f + 1}
		if _, ok := s.residue[next]; !ok {
			break
		}
		delete(s.residue, next)
	}
	s.floors[id.Sender] = f
	return true
}

// Entries is the number of map entries the set occupies: one per sender with
// a floor plus one per residue identifier — what tests assert stays
// O(senders) over a long run.
func (s *SeenSet) Entries() int { return len(s.floors) + len(s.residue) }

// Export returns the set's canonical serialized form (the persist checkpoint
// stores exactly these two lists): the contiguous prefixes, one identifier
// per sender — the last of its prefix — and the identifiers above their
// sender's floor, each list in canonical order.
func (s *SeenSet) Export() (floors, residue []ID) {
	for p, seq := range s.floors {
		floors = append(floors, ID{Sender: p, Seq: seq})
	}
	for id := range s.residue {
		residue = append(residue, id)
	}
	sort.Slice(floors, func(i, j int) bool { return floors[i].Less(floors[j]) })
	sort.Slice(residue, func(i, j int) bool { return residue[i].Less(residue[j]) })
	return floors, residue
}

// Load replaces s with an exported set. The residue goes through Add, so a
// list that is not in canonical form (written by another version, or
// damaged) still loads to the set it denotes.
func (s *SeenSet) Load(floors, residue []ID) {
	*s = SeenSet{floors: make(map[stack.ProcessID]uint64, len(floors)), residue: make(map[ID]struct{})}
	for _, f := range floors {
		s.floors[f.Sender] = max(f.Seq, s.floors[f.Sender])
	}
	for _, id := range residue {
		s.Add(id)
	}
}
