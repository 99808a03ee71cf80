// Package wire serializes envelopes for transports that cross a real
// network (internal/tcpnet). It is the single place that knows the full set
// of wire types; adding a protocol layer with new message types means
// adding a tag and a ~20-line encode/decode case here (the completeness
// test fails until both exist).
//
// The format is a hand-rolled, length-prefixed binary encoding with
// explicit field order and zero reflection — a version-tagged frame header
// (format version, sender, protocol id, instance number, type tag) followed
// by a per-type body built from the primitives of internal/wire/binary
// (unsigned and zigzag varints, length-prefixed byte slices). It replaced
// encoding/gob, whose per-envelope reflection and type-description preamble
// dominated the transport hot path; the byte layout is pinned by golden
// vectors and proven equivalent to the gob codec by a differential suite
// (both kept test-only).
//
// The decode path treats all input as adversarial: every read is
// bounds-checked, collection lengths are validated against the bytes
// actually present before allocating, nesting depth is capped, and a
// malformed frame yields an error — never a panic.
//
// Buffer ownership. A decoded value references its input only through a
// payload of AliasMin bytes or more, which it keeps as a window on the
// input; every shorter payload is copied. So a frame shorter than AliasMin
// can be decoded in a buffer that is reused right after, and a 64 B payload
// never pins the megabyte SupplyMsg it arrived in. A longer frame's buffer
// can be reused after dispatch too when Lendable says so: its one window is
// a diffusion payload, which the layer keeping it copies.
package wire

import (
	"fmt"

	"abcast/internal/rbcast"
	"abcast/internal/relink"
	"abcast/internal/stack"
	bin "abcast/internal/wire/binary"
)

// EncodeEnvelope serializes an envelope (plus its sender) to bytes: one
// allocation, sized from the message's own wire-size estimate.
func EncodeEnvelope(from stack.ProcessID, env stack.Envelope) ([]byte, error) {
	if env.Msg == nil {
		return nil, fmt.Errorf("encode envelope: %w", errNilMessage)
	}
	// WireSize models the payload bytes closely enough that growth past
	// the initial capacity is rare; the slack covers varint headers.
	return AppendEnvelope(make([]byte, 0, env.WireSize()+16), from, env)
}

// AppendEnvelope appends the bytes EncodeEnvelope would return to dst, for
// a transport that frames envelopes into a buffer it already owns.
func AppendEnvelope(dst []byte, from stack.ProcessID, env stack.Envelope) ([]byte, error) {
	if env.Msg == nil {
		return nil, fmt.Errorf("encode envelope: %w", errNilMessage)
	}
	dst = append(dst, Version)
	dst = bin.AppendVarint(dst, int64(from))
	dst, err := appendEnvelope(dst, env, 0)
	if err != nil {
		return nil, fmt.Errorf("encode envelope: %w", err)
	}
	return dst, nil
}

// AliasMin is the shortest payload a decoded message keeps as a window on
// its input rather than a copy; a transport sizes its read buffer from it.
const AliasMin = bin.AliasMin

// Lendable reports whether the buffer env was decoded from may be reused
// once env has been dispatched: env is an rbcast.DataMsg or rbcast.EchoMsg,
// bare or inside a relink.SeqMsg, so its one window on the buffer is the
// App's payload, which rbcast copies on first receipt (stack.Proto.Lent) and
// nothing else keeps. Any other envelope, a SupplyMsg, a SnapChunkMsg or a
// consensus MsgSetValue among them, is handed its buffer for good.
func Lendable(env stack.Envelope) bool {
	if m, ok := env.Msg.(*relink.SeqMsg); ok {
		env = m.Env
	}
	switch env.Msg.(type) {
	case rbcast.DataMsg, rbcast.EchoMsg:
		return true
	}
	return false
}

// DecodeEnvelope is the inverse of EncodeEnvelope. A payload shorter than
// AliasMin is copied; a longer one aliases data, whose ownership the caller
// then hands over. A buffer shorter than AliasMin is free once it returns.
func DecodeEnvelope(data []byte) (stack.ProcessID, stack.Envelope, error) {
	r := bin.NewReader(data)
	if v := r.Byte(); r.Err() == nil && v != Version {
		return 0, stack.Envelope{}, fmt.Errorf("decode envelope: %w %d", errVersion, v)
	}
	from := stack.ProcessID(r.Varint())
	env := decodeEnvelope(r, 0)
	if err := r.Done(); err != nil {
		return 0, stack.Envelope{}, fmt.Errorf("decode envelope: %w", err)
	}
	return from, env, nil
}
