package wire

// Fuzz targets for the wire codec. The decoder treats every input as
// adversarial, so the contract under fuzzing is strict: arbitrary bytes
// either fail with an error or decode to a value that re-encodes and
// re-decodes to itself — never a panic, and never an output larger than
// the input (the no-amplification guard that backs the allocation caps).
// A frame Lendable accepts must also survive its input being overwritten
// once its diffusion payload has been copied, as rbcast copies it.
//
// Seed corpora live under testdata/fuzz/<Target>/ in the standard go-fuzz
// corpus format; CI runs each target for a short -fuzztime as a smoke.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"abcast/internal/core"
	"abcast/internal/msg"
	"abcast/internal/rbcast"
	"abcast/internal/relink"
	"abcast/internal/stack"
)

// FuzzDecodeEnvelope feeds arbitrary bytes to the frame decoder.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, env := range caseEnvelopes() {
		data, err := EncodeEnvelope(3, env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version + 1, 0, 0, 0})
	// Payloads long enough to alias the input: two lendable frames and one
	// that keeps its buffer.
	big := &msg.App{ID: msg.ID{Sender: 2, Seq: 7}, Payload: bytes.Repeat([]byte{0x5a}, AliasMin+1)}
	for _, env := range []stack.Envelope{
		{Proto: stack.ProtoRB, Msg: rbcast.DataMsg{App: big}},
		{Proto: stack.ProtoLink, Msg: &relink.SeqMsg{Seq: 4, Low: 1, Env: stack.Envelope{Proto: stack.ProtoURB, Msg: rbcast.EchoMsg{App: big}}}},
		{Proto: stack.ProtoSync, Msg: core.SupplyMsg{Apps: []*msg.App{big}}},
	} {
		data, err := EncodeEnvelope(3, env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		from, env, err := DecodeEnvelope(data)
		if err != nil {
			return // rejected input: the only other acceptable outcome
		}
		reenc, err := EncodeEnvelope(from, env)
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v (%#v)", err, env)
		}
		// Canonical re-encoding can only shrink relative to the accepted
		// input (redundant varints, re-normalized sets); growth would mean
		// small frames hydrate into large values — an allocation vector.
		if len(reenc) > len(data) {
			t.Fatalf("re-encode amplifies input: %d -> %d bytes", len(data), len(reenc))
		}
		from2, env2, err := DecodeEnvelope(reenc)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if from2 != from || !reflect.DeepEqual(env2, env) {
			t.Fatalf("round-trip not stable:\n first:  %#v\n second: %#v", env, env2)
		}
		if !Lendable(env) {
			return
		}
		buf := bytes.Clone(data)
		_, lent, _ := DecodeEnvelope(buf)
		inner := lent.Msg
		if m, ok := inner.(*relink.SeqMsg); ok {
			inner = m.Env.Msg
		}
		var app *msg.App
		switch m := inner.(type) {
		case rbcast.DataMsg:
			app = m.App
		case rbcast.EchoMsg:
			app = m.App
		}
		if app == nil {
			t.Fatalf("Lendable accepts a %T frame", lent.Msg)
		}
		app.Payload = bytes.Clone(app.Payload)
		scribble(buf)
		if again, err := EncodeEnvelope(from, lent); err != nil || !bytes.Equal(again, reenc) {
			t.Fatalf("a lendable frame still reads its input once its payload is copied (err %v)", err)
		}
	})
}

// FuzzRoundTrip generates a random instance of a chosen message type and
// requires encode/decode to be the identity — per-type roundtrip fuzzing
// where the fuzzer steers the type and the generator seed.
func FuzzRoundTrip(f *testing.F) {
	for kind := 0; kind < numMessageKinds; kind++ {
		f.Add(uint8(kind), int64(kind)*977+11, uint32(kind))
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, from uint32) {
		rng := rand.New(rand.NewSource(seed))
		env := stack.Envelope{
			Proto: stack.ProtoID(rng.Intn(10)),
			Inst:  rng.Uint64() >> uint(rng.Intn(64)),
			Msg:   messageOfKind(rng, int(kind)%numMessageKinds, 0),
		}
		sender := stack.ProcessID(from)
		data, err := EncodeEnvelope(sender, env)
		if err != nil {
			t.Fatalf("encode %T: %v", env.Msg, err)
		}
		// Every generated payload is shorter than AliasMin, so the decoded
		// value must not see the buffer it came from being overwritten.
		buf := append([]byte(nil), data...)
		gotFrom, got, err := DecodeEnvelope(buf)
		if err != nil {
			t.Fatalf("decode %T: %v", env.Msg, err)
		}
		scribble(buf)
		if gotFrom != sender || !reflect.DeepEqual(got, env) {
			t.Fatalf("round-trip mismatch for %T:\n got:  %#v\n want: %#v", env.Msg, got, env)
		}
		if again, err := EncodeEnvelope(gotFrom, got); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%T re-encodes to other bytes (err %v)", env.Msg, err)
		}
		// The append form, into a buffer already holding other frames,
		// adds exactly those bytes.
		prefix := make([]byte, rng.Intn(64), 64) // mostly too small: the append must survive regrowth
		rng.Read(prefix)
		appended, err := AppendEnvelope(append([]byte(nil), prefix...), sender, env)
		if err != nil {
			t.Fatalf("append %T: %v", env.Msg, err)
		}
		if !bytes.Equal(appended, append(prefix, data...)) {
			t.Fatalf("AppendEnvelope of %T differs from EncodeEnvelope", env.Msg)
		}
	})
}
