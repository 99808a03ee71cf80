package binary

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1<<32 - 1, 1 << 32, math.MaxUint64}
	for _, v := range cases {
		b := AppendUvarint(nil, v)
		r := NewReader(b)
		if got := r.Uvarint(); got != v || r.Err() != nil {
			t.Fatalf("uvarint %d: got %d err %v", v, got, r.Err())
		}
		if err := r.Done(); err != nil {
			t.Fatalf("uvarint %d: trailing: %v", v, err)
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 63, -64, 64, -65, math.MaxInt64, math.MinInt64}
	for _, v := range cases {
		b := AppendVarint(nil, v)
		r := NewReader(b)
		if got := r.Varint(); got != v || r.Err() != nil {
			t.Fatalf("varint %d: got %d err %v", v, got, r.Err())
		}
	}
	// Small magnitudes of either sign must stay short (the zigzag point).
	if n := len(AppendVarint(nil, -1)); n != 1 {
		t.Fatalf("zigzag -1 took %d bytes", n)
	}
}

func TestUvarintOverflow(t *testing.T) {
	// 10 continuation bytes push past 64 bits.
	overlong := bytes.Repeat([]byte{0xff}, 10)
	r := NewReader(append(overlong, 0x01))
	r.Uvarint()
	if !errors.Is(r.Err(), ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", r.Err())
	}
	// Exactly representable max stays legal.
	r = NewReader(AppendUvarint(nil, math.MaxUint64))
	if got := r.Uvarint(); got != math.MaxUint64 || r.Err() != nil {
		t.Fatalf("max uint64: got %d err %v", got, r.Err())
	}
}

func TestTruncation(t *testing.T) {
	full := AppendBytes(AppendUvarint(nil, 300), []byte("payload"))
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Uvarint()
		r.Bytes()
		if cut < len(full) && r.Err() == nil {
			if err := r.Done(); err == nil {
				t.Fatalf("cut at %d decoded cleanly", cut)
			}
		}
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader(nil)
	if r.Byte() != 0 || r.Err() == nil {
		t.Fatal("read past end must error")
	}
	first := r.Err()
	r.Uvarint()
	r.Bytes()
	r.Bool()
	if r.Err() != first {
		t.Fatalf("error not sticky: %v then %v", first, r.Err())
	}
}

func TestLenRejectsHostileCount(t *testing.T) {
	// Claims 2^40 elements in a 3-byte input: must fail before allocating.
	b := AppendUvarint(nil, 1<<40)
	r := NewReader(b)
	if n := r.Len(1); n != 0 || !errors.Is(r.Err(), ErrLength) {
		t.Fatalf("hostile len accepted: n=%d err=%v", n, r.Err())
	}
	// elemMin scales the guard: 5 claimed 8-byte elements need 40 bytes.
	b = AppendUvarint(nil, 5)
	b = append(b, make([]byte, 16)...)
	r = NewReader(b)
	if n := r.Len(8); n != 0 || !errors.Is(r.Err(), ErrLength) {
		t.Fatalf("under-backed len accepted: n=%d err=%v", n, r.Err())
	}
}

func TestBytesNilEmptyCollapse(t *testing.T) {
	if got := AppendBytes(nil, nil); !bytes.Equal(got, []byte{0}) {
		t.Fatalf("nil slice encoding: %v", got)
	}
	if got := AppendBytes(nil, []byte{}); !bytes.Equal(got, []byte{0}) {
		t.Fatalf("empty slice encoding: %v", got)
	}
	r := NewReader([]byte{0})
	if got := r.Bytes(); got != nil {
		t.Fatalf("zero-length decode must be nil, got %v", got)
	}
}

// TestBytesAliasing pins the ownership rule: below AliasMin a slice is a
// copy, from AliasMin up a window on the input; either way it has no spare
// capacity to grow into neighboring bytes.
func TestBytesAliasing(t *testing.T) {
	for _, n := range []int{1, 3, AliasMin - 1, AliasMin, AliasMin + 1, 4 * AliasMin} {
		want := bytes.Repeat([]byte{'x'}, n)
		src := append(AppendBytes(nil, want), "next"...)
		r := NewReader(src)
		got := r.Bytes()
		if !bytes.Equal(got, want) || r.Err() != nil {
			t.Fatalf("n=%d: got %d bytes, err %v", n, len(got), r.Err())
		}
		if cap(got) != len(got) {
			t.Fatalf("n=%d: decoded slice leaks capacity: len %d cap %d", n, len(got), cap(got))
		}
		aliases := &got[0] == &src[len(src)-len("next")-n]
		if aliases != (n >= AliasMin) {
			t.Fatalf("n=%d: aliases the input: %v, want %v", n, aliases, n >= AliasMin)
		}
	}
}

func TestBoolCanonical(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

func TestStringRoundTrip(t *testing.T) {
	b := AppendString(nil, "hé\x00llo")
	r := NewReader(b)
	if got := r.String(); got != "hé\x00llo" || r.Err() != nil {
		t.Fatalf("got %q err %v", got, r.Err())
	}
}

func TestDoneRejectsTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Byte()
	if err := r.Done(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("want ErrTrailing, got %v", err)
	}
}
