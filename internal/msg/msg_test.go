package msg

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"abcast/internal/stack"
)

func id(s, q int) ID { return ID{Sender: stack.ProcessID(s), Seq: uint64(q)} }

func TestIDLess(t *testing.T) {
	cases := []struct {
		a, b ID
		want bool
	}{
		{id(1, 1), id(1, 2), true},
		{id(1, 2), id(1, 1), false},
		{id(1, 9), id(2, 1), true},
		{id(2, 1), id(1, 9), false},
		{id(1, 1), id(1, 1), false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIDSetAddRemoveContains(t *testing.T) {
	var s IDSet
	if !s.Empty() {
		t.Fatal("fresh set not empty")
	}
	if !s.Add(id(2, 1)) || !s.Add(id(1, 1)) || !s.Add(id(1, 2)) {
		t.Fatal("Add of new element returned false")
	}
	if s.Add(id(1, 1)) {
		t.Fatal("Add of duplicate returned true")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, x := range []ID{id(1, 1), id(1, 2), id(2, 1)} {
		if !s.Contains(x) {
			t.Fatalf("Contains(%v) = false", x)
		}
	}
	if s.Contains(id(3, 3)) {
		t.Fatal("Contains of absent element = true")
	}
	if !s.Remove(id(1, 2)) || s.Remove(id(1, 2)) {
		t.Fatal("Remove semantics broken")
	}
	if s.Len() != 2 {
		t.Fatalf("Len after remove = %d", s.Len())
	}
}

func TestIDSetCanonicalOrder(t *testing.T) {
	ids := []ID{id(3, 1), id(1, 5), id(2, 2), id(1, 1), id(2, 1)}
	s := NewIDSet(ids...)
	got := s.IDs()
	want := append([]ID(nil), ids...)
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs() = %v, want sorted %v", got, want)
		}
	}
}

func TestIDSetUnionCloneEqual(t *testing.T) {
	a := NewIDSet(id(1, 1), id(2, 2))
	b := NewIDSet(id(2, 2), id(3, 3))
	c := a.Clone()
	c.Add(id(9, 9))
	if a.Contains(id(9, 9)) {
		t.Fatal("Clone shares storage")
	}
	if !a.Equal(NewIDSet(id(2, 2), id(1, 1))) {
		t.Fatal("Equal order-insensitive failed")
	}
	if a.Equal(b) {
		t.Fatal("Equal of different sets = true")
	}
}

func TestKeyBijective(t *testing.T) {
	a := NewIDSet(id(1, 1), id(2, 2))
	b := NewIDSet(id(2, 2), id(1, 1))
	if a.Key() != b.Key() {
		t.Fatal("Key not canonical")
	}
	c := NewIDSet(id(1, 1), id(2, 3))
	if a.Key() == c.Key() {
		t.Fatal("distinct sets share a key")
	}
}

func TestWireSizes(t *testing.T) {
	app := &App{ID: id(1, 1), Payload: make([]byte, 100)}
	if got := app.WireSize(); got != IDWireBytes+100 {
		t.Fatalf("App.WireSize = %d", got)
	}
	s := NewIDSet(id(1, 1), id(2, 2), id(3, 3))
	if got := s.WireSize(); got != 4+3*IDWireBytes {
		t.Fatalf("IDSet.WireSize = %d", got)
	}
	// The decoupling property: identifier size is independent of payload
	// size.
	big := NewIDSet(id(1, 1))
	if big.WireSize() != 4+IDWireBytes {
		t.Fatal("id set size depends on something it should not")
	}
}

// Property: set semantics match a reference map implementation under random
// operation sequences.
func TestIDSetQuickAgainstMap(t *testing.T) {
	check := func(seed int64, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		var s IDSet
		ref := make(map[ID]bool)
		for _, op := range ops {
			x := id(int(op%5)+1, int(op/5)%10)
			if rng.Intn(2) == 0 {
				s.Add(x)
				ref[x] = true
			} else {
				s.Remove(x)
				delete(ref, x)
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		prev := ID{}
		for i, got := range s.IDs() {
			if !ref[got] {
				return false
			}
			if i > 0 && !prev.Less(got) {
				return false // order violated
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Key is injective over distinct sets (bijection between messages
// and identifiers is what lets atomic broadcast order ids instead of
// messages).
func TestKeyInjectiveQuick(t *testing.T) {
	check := func(a, b []uint16) bool {
		mk := func(xs []uint16) IDSet {
			var s IDSet
			for _, x := range xs {
				s.Add(id(int(x%7)+1, int(x/7)%50))
			}
			return s
		}
		sa, sb := mk(a), mk(b)
		return sa.Equal(sb) == (sa.Key() == sb.Key())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if got := id(2, 7).String(); got != "2:7" {
		t.Fatalf("ID.String = %q", got)
	}
	s := NewIDSet(id(1, 1), id(2, 2))
	if got := s.String(); got != "{1:1,2:2}" {
		t.Fatalf("IDSet.String = %q", got)
	}
}
