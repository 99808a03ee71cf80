// Package binary holds the shared low-level primitives of the hand-rolled
// wire codec: append-style writers and a sticky-error Reader for unsigned
// and zigzag varints, booleans, raw bytes and length-prefixed byte slices.
//
// The writers are plain append functions so an encoder builds one []byte
// with no intermediate buffers and no reflection; the Reader treats its
// input as adversarial — every read is bounds-checked, varints are capped
// at 64 bits, and collection lengths are validated against the bytes that
// remain, so a hostile length prefix can never drive an allocation larger
// than the input itself. All errors are sticky: after the first failure
// every subsequent read returns zero values, so per-type decoders can run
// straight-line and check Err once at the end. Bytes is the Reader's only
// aliasing point: a slice it returns aliases the input only from AliasMin up.
package binary

import (
	"errors"
	"fmt"
)

// ErrTruncated reports input that ended in the middle of a value.
var ErrTruncated = errors.New("wire/binary: truncated input")

// ErrOverflow reports a varint longer than 64 bits.
var ErrOverflow = errors.New("wire/binary: varint overflows 64 bits")

// ErrLength reports a collection length prefix that cannot fit in the
// remaining input.
var ErrLength = errors.New("wire/binary: length prefix exceeds remaining input")

// ErrTrailing reports leftover bytes after a complete decode.
var ErrTrailing = errors.New("wire/binary: trailing bytes after value")

// AppendUvarint appends v in LEB128 (7 bits per byte, high bit = more).
func AppendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// AppendVarint appends v zigzag-encoded, so small magnitudes of either sign
// stay short.
func AppendVarint(b []byte, v int64) []byte {
	return AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

// AppendBool appends one byte: 1 for true, 0 for false.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends a length-prefixed byte slice (uvarint length + raw
// bytes). A nil slice encodes exactly like an empty one.
func AppendBytes(b, p []byte) []byte {
	b = AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AliasMin is the shortest byte slice Bytes returns as a window on the
// input: below it, a copy is cheaper than pinning a possibly far larger buffer.
const AliasMin = 4 << 10

// Reader consumes a byte slice with sticky-error semantics.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps data for decoding. The caller must not reuse a buffer of
// AliasMin bytes or more while decoded values are live (see Bytes).
func NewReader(data []byte) *Reader { return &Reader{b: data} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Fail forces the reader into the error state (used by decoders that spot
// semantically invalid values, e.g. an unknown type tag).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Done errors unless the input was consumed exactly.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d of %d bytes unread", ErrTrailing, len(r.b)-r.off, len(r.b))
	}
	return nil
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.err = ErrTruncated
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads one byte and rejects anything but 0 or 1 (keeping the
// encoding canonical, which the golden vectors pin).
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(fmt.Errorf("wire/binary: invalid bool byte"))
		return false
	}
}

// Uvarint reads a LEB128 unsigned varint, rejecting encodings past 64 bits.
func (r *Reader) Uvarint() uint64 {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if shift >= 64 {
			r.Fail(ErrOverflow)
			return 0
		}
		c := r.Byte()
		if r.err != nil {
			return 0
		}
		if shift == 63 && c > 1 {
			r.Fail(ErrOverflow)
			return 0
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Len reads a collection length and validates it against the remaining
// input, assuming each element occupies at least elemMin (≥ 1) bytes. This
// is the allocation guard: whatever length an attacker claims, the decoder
// never allocates more elements than the input could possibly carry.
func (r *Reader) Len(elemMin int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if n > uint64(r.Remaining()/elemMin) {
		r.Fail(ErrLength)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice. A slice shorter than AliasMin
// is copied into an allocation of exactly its length; a longer one aliases
// the input buffer, with no spare capacity to grow into the bytes after it.
// It is nil for a zero length, matching the canonical form of the encoder's
// nil/empty collapse.
func (r *Reader) Bytes() []byte {
	n := r.Len(1)
	if r.err != nil || n == 0 {
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	if n < AliasMin {
		return append(make([]byte, 0, n), v...)
	}
	return v
}

// String reads a length-prefixed string (a copy, as Go strings are
// immutable).
func (r *Reader) String() string {
	return string(r.Bytes())
}
