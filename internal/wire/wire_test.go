package wire

import (
	"bytes"
	"testing"

	"abcast/internal/consensus"
	"abcast/internal/core"
	"abcast/internal/fd"
	"abcast/internal/msg"
	"abcast/internal/rbcast"
	"abcast/internal/stack"
)

// all wire message kinds, one instance each.
func sampleEnvelopes() []stack.Envelope {
	app := &msg.App{ID: msg.ID{Sender: 2, Seq: 5}, Payload: []byte("payload")}
	idv := core.IDSetValue{Set: msg.NewIDSet(
		msg.ID{Sender: 1, Seq: 1}, msg.ID{Sender: 2, Seq: 2})}
	msgv := core.NewMsgSetValue([]*msg.App{app})
	return []stack.Envelope{
		{Proto: stack.ProtoFD, Msg: fd.HeartbeatMsg{}},
		{Proto: stack.ProtoRB, Msg: rbcast.DataMsg{App: app}},
		{Proto: stack.ProtoURB, Msg: rbcast.EchoMsg{App: app}},
		{Proto: stack.ProtoCons, Inst: 3, Msg: consensus.CTEstimateMsg{R: 2, TS: 1, Est: idv}},
		{Proto: stack.ProtoCons, Inst: 3, Msg: consensus.CTProposalMsg{R: 2, Est: idv}},
		{Proto: stack.ProtoCons, Inst: 3, Msg: consensus.CTAckMsg{R: 2, Nack: true}},
		{Proto: stack.ProtoCons, Inst: 3, Msg: consensus.MREchoMsg{R: 1, Est: idv}},
		{Proto: stack.ProtoCons, Inst: 3, Msg: consensus.MREchoMsg{R: 1, Bottom: true}},
		{Proto: stack.ProtoCons, Inst: 3, Msg: consensus.DecideMsg{Est: msgv}},
	}
}

func TestEveryWireTypeRoundTrips(t *testing.T) {
	for i, env := range sampleEnvelopes() {
		data, err := EncodeEnvelope(7, env)
		if err != nil {
			t.Fatalf("encode %d (%T): %v", i, env.Msg, err)
		}
		from, got, err := DecodeEnvelope(data)
		if err != nil {
			t.Fatalf("decode %d (%T): %v", i, env.Msg, err)
		}
		if from != 7 {
			t.Fatalf("sender mangled: %d", from)
		}
		if got.Proto != env.Proto || got.Inst != env.Inst {
			t.Fatalf("header mangled: %+v vs %+v", got, env)
		}
		if got.Msg.WireSize() != env.Msg.WireSize() {
			t.Fatalf("%T: wire size %d != %d", env.Msg, got.Msg.WireSize(), env.Msg.WireSize())
		}
	}
}

// TestAppendEnvelopeMatchesEncode: for every registered type, appending to a
// buffer that already holds bytes leaves them alone and adds exactly what
// EncodeEnvelope returns — what lets tcpnet frame in place.
func TestAppendEnvelopeMatchesEncode(t *testing.T) {
	envs := caseEnvelopes()
	for _, c := range goldenCases() {
		envs = append(envs, c.env)
	}
	var buf []byte // grows across the cases, so later ones append to earlier frames
	for _, env := range envs {
		want, err := EncodeEnvelope(5, env)
		if err != nil {
			t.Fatalf("encode %T: %v", env.Msg, err)
		}
		before := append([]byte(nil), buf...)
		buf, err = AppendEnvelope(buf, 5, env)
		if err != nil {
			t.Fatalf("append %T: %v", env.Msg, err)
		}
		if !bytes.Equal(buf, append(before, want...)) {
			t.Fatalf("%T: AppendEnvelope after %d bytes differs from EncodeEnvelope", env.Msg, len(before))
		}
	}
	if got, err := AppendEnvelope(buf, 5, stack.Envelope{}); err == nil || got != nil {
		t.Fatalf("nil message: %d bytes, error %v", len(got), err)
	}
}

// scribble overwrites a decoded buffer, as a transport reusing it would.
func scribble(b []byte) {
	for i := range b {
		b[i] = ^b[i]
	}
}

// TestDecodedValueOwnsItsBytes: every sample frame is shorter than AliasMin,
// so its decoded envelope keeps nothing of the input — overwriting the input
// leaves it re-encoding to the original bytes.
func TestDecodedValueOwnsItsBytes(t *testing.T) {
	for _, env := range caseEnvelopes() {
		want, err := EncodeEnvelope(3, env)
		if err != nil {
			t.Fatalf("encode %T: %v", env.Msg, err)
		}
		data := append([]byte(nil), want...)
		from, got, err := DecodeEnvelope(data)
		if err != nil {
			t.Fatalf("decode %T: %v", env.Msg, err)
		}
		scribble(data)
		if again, err := EncodeEnvelope(from, got); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("%T changed with the buffer it was decoded from (err %v)", env.Msg, err)
		}
	}
}

func TestMsgSetValueSurvivesWire(t *testing.T) {
	app := &msg.App{ID: msg.ID{Sender: 3, Seq: 8}, Payload: []byte("abcdef")}
	env := stack.Envelope{
		Proto: stack.ProtoCons,
		Msg:   consensus.DecideMsg{Est: core.NewMsgSetValue([]*msg.App{app})},
	}
	data, err := EncodeEnvelope(1, env)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := DecodeEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	dec := got.Msg.(consensus.DecideMsg).Est.(core.MsgSetValue)
	if len(dec.Msgs) != 1 || string(dec.Msgs[0].Payload) != "abcdef" {
		t.Fatalf("message set mangled: %+v", dec)
	}
	if dec.Msgs[0].ID != app.ID {
		t.Fatalf("id mangled: %v", dec.Msgs[0].ID)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, _, err := DecodeEnvelope([]byte("not a gob stream")); err == nil {
		t.Fatal("garbage decoded successfully")
	}
	if _, _, err := DecodeEnvelope(nil); err == nil {
		t.Fatal("empty input decoded successfully")
	}
}

func TestValueKeysSurviveWire(t *testing.T) {
	// MR compares estimates by Key; a round trip must preserve it.
	idv := core.IDSetValue{Set: msg.NewIDSet(
		msg.ID{Sender: 9, Seq: 1}, msg.ID{Sender: 1, Seq: 9})}
	env := stack.Envelope{Proto: stack.ProtoCons, Msg: consensus.MREchoMsg{R: 1, Est: idv}}
	data, err := EncodeEnvelope(2, env)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := DecodeEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	dec := got.Msg.(consensus.MREchoMsg).Est.(core.IDSetValue)
	if dec.Key() != idv.Key() {
		t.Fatal("value key changed across the wire")
	}
}
