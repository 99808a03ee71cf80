package msg

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Property: SeenSet is a set — it agrees with a plain map under random adds
// in random order, its export round-trips through Load, and once a sender's
// identifiers 1..k have all arrived, whatever the order, they cost one floor
// and no residue.
func TestSeenSetQuickAgainstMap(t *testing.T) {
	check := func(seed int64, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		var s SeenSet
		ref := make(map[ID]bool)
		for _, op := range ops {
			x := id(int(op%4)+1, int(op/4)%24) // sequence number 0 included
			if s.Has(x) != ref[x] {
				return false
			}
			if rng.Intn(4) > 0 {
				if s.Add(x) == ref[x] { // Add reports a change iff x was absent
					return false
				}
				ref[x] = true
			}
		}
		for sender := 1; sender <= 4; sender++ {
			for seq := 0; seq < 26; seq++ {
				if x := id(sender, seq); s.Has(x) != ref[x] {
					return false
				}
			}
		}
		// Canonical form: a floor is as high as it can be, the residue holds
		// exactly the rest.
		floors, residue := s.Export()
		n := 0
		for _, f := range floors {
			for seq := uint64(1); seq <= f.Seq; seq++ {
				if !ref[ID{Sender: f.Sender, Seq: seq}] {
					return false
				}
			}
			if ref[ID{Sender: f.Sender, Seq: f.Seq + 1}] {
				return false
			}
			n += int(f.Seq)
		}
		if n+len(residue) != len(ref) || s.Entries() != len(floors)+len(residue) {
			return false
		}
		var back SeenSet
		back.Load(floors, residue)
		backFloors, backResidue := back.Export()
		return reflect.DeepEqual(backFloors, floors) && reflect.DeepEqual(backResidue, residue)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Out-of-order arrival folds into the floor the moment the gap closes.
func TestSeenSetFoldsResidue(t *testing.T) {
	var s SeenSet
	for _, seq := range []int{3, 5, 2, 4} {
		s.Add(id(1, seq))
	}
	if floors, residue := s.Export(); len(floors) != 0 || len(residue) != 4 {
		t.Fatalf("before the gap closes: floors %v residue %v", floors, residue)
	}
	s.Add(id(1, 1))
	if floors, residue := s.Export(); len(floors) != 1 || floors[0] != id(1, 5) || s.Entries() != 1 {
		t.Fatalf("after the gap closes: floors %v residue %v, want one floor 1:5", floors, residue)
	}
	// A residue list that is not canonical loads to the set it denotes.
	var back SeenSet
	back.Load([]ID{id(1, 2)}, []ID{id(1, 4), id(1, 3), id(1, 9)})
	if floors, residue := back.Export(); floors[0] != id(1, 4) || !reflect.DeepEqual(residue, []ID{id(1, 9)}) {
		t.Fatalf("loaded floors %v residue %v, want floor 1:4 and residue {1:9}", floors, residue)
	}
}

// Identifiers are untrusted input: a sequence number near 2⁶⁴, sequence
// number 0, or a sender nobody knows costs one residue entry — never memory
// proportional to the value, and never a wrapped floor.
func TestSeenSetHostileIdentifiers(t *testing.T) {
	var s SeenSet
	s.Add(id(1, 1))
	hostile := []ID{
		{Sender: 1, Seq: math.MaxUint64},
		{Sender: 1, Seq: math.MaxUint64 - 1},
		{Sender: 1, Seq: 0},
		{Sender: math.MaxInt32, Seq: 1 << 62},
		{Sender: -7, Seq: 3},
	}
	for _, x := range hostile {
		s.Add(x)
	}
	if s.Entries() != 1+len(hostile) {
		t.Fatalf("%d hostile identifiers: %d entries, want one each", len(hostile), s.Entries())
	}
	for _, x := range hostile {
		if !s.Has(x) {
			t.Fatalf("%v lost", x)
		}
	}
	if s.Has(id(1, 2)) || s.Has(ID{Sender: 1, Seq: math.MaxUint64 - 2}) || s.Has(ID{Sender: -7, Seq: 0}) {
		t.Fatal("a hostile identifier made others appear seen")
	}
	if floors, _ := s.Export(); len(floors) != 1 || floors[0] != id(1, 1) {
		t.Fatalf("floors moved: %v", floors)
	}
}
