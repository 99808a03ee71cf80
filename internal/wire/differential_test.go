package wire

// Differential equivalence suite: the binary codec against the encoding/gob
// codec it replaced. Gob is kept here, test-only, as the trusted baseline —
// for every registered wire type, hand-built and randomized instances must
// round-trip to deep-equal results through both codecs, so any semantic
// divergence of the new format (a dropped field, a sign mix-up, a
// nil/empty confusion) fails against an independent implementation.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"abcast/internal/consensus"
	"abcast/internal/core"
	"abcast/internal/fd"
	"abcast/internal/msg"
	"abcast/internal/rbcast"
	"abcast/internal/relink"
	"abcast/internal/stack"
)

// gobFrame replicates the on-the-wire unit of the retired gob codec.
type gobFrame struct {
	From stack.ProcessID
	Env  stack.Envelope
}

var gobRegisterOnce sync.Once

// gobRegister registers every wire type with gob, exactly as the retired
// codec's Register did.
func gobRegister() {
	gobRegisterOnce.Do(func() {
		gob.Register(fd.HeartbeatMsg{})
		gob.Register(rbcast.DataMsg{})
		gob.Register(rbcast.EchoMsg{})
		gob.Register(consensus.CTEstimateMsg{})
		gob.Register(consensus.CTProposalMsg{})
		gob.Register(consensus.CTAckMsg{})
		gob.Register(consensus.MREchoMsg{})
		gob.Register(consensus.DecideMsg{})
		gob.Register(consensus.OpenMsg{})
		gob.Register(consensus.PiggyMsg{})
		gob.Register(consensus.SyncReqMsg{})
		gob.Register(core.IDSetValue{})
		gob.Register(core.MsgSetValue{})
		gob.Register(&relink.SeqMsg{})
		gob.Register(relink.AckMsg{})
		gob.Register(relink.ProbeMsg{})
		gob.Register(core.FetchMsg{})
		gob.Register(core.SupplyMsg{})
		gob.Register(core.SnapOfferMsg{})
		gob.Register(core.SnapAcceptMsg{})
		gob.Register(core.SnapChunkMsg{})
		gob.Register(core.FrontierMsg{})
		gob.Register(&msg.App{})
	})
}

// gobEncode is the retired codec's EncodeEnvelope.
func gobEncode(from stack.ProcessID, env stack.Envelope) ([]byte, error) {
	gobRegister()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gobFrame{From: from, Env: env}); err != nil {
		return nil, fmt.Errorf("gob encode envelope: %w", err)
	}
	return buf.Bytes(), nil
}

// gobDecode is the retired codec's DecodeEnvelope.
func gobDecode(data []byte) (stack.ProcessID, stack.Envelope, error) {
	gobRegister()
	var f gobFrame
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&f); err != nil {
		return 0, stack.Envelope{}, fmt.Errorf("gob decode envelope: %w", err)
	}
	return f.From, f.Env, nil
}

// roundTrip pushes env through one codec and returns the decoded result.
func roundTrip(t *testing.T, label string,
	enc func(stack.ProcessID, stack.Envelope) ([]byte, error),
	dec func([]byte) (stack.ProcessID, stack.Envelope, error),
	from stack.ProcessID, env stack.Envelope) stack.Envelope {
	t.Helper()
	data, err := enc(from, env)
	if err != nil {
		t.Fatalf("%s encode (%T): %v", label, env.Msg, err)
	}
	gotFrom, got, err := dec(data)
	if err != nil {
		t.Fatalf("%s decode (%T): %v", label, env.Msg, err)
	}
	if gotFrom != from {
		t.Fatalf("%s sender mangled: %d != %d", label, gotFrom, from)
	}
	return got
}

// checkEquivalent round-trips env through both codecs and requires the
// decoded results to deep-equal each other and the original.
func checkEquivalent(t *testing.T, from stack.ProcessID, env stack.Envelope) {
	t.Helper()
	viaBinary := roundTrip(t, "binary", EncodeEnvelope, DecodeEnvelope, from, env)
	viaGob := roundTrip(t, "gob", gobEncode, gobDecode, from, env)
	if !reflect.DeepEqual(viaBinary, viaGob) {
		t.Fatalf("codecs disagree for %T:\n binary: %#v\n gob:    %#v", env.Msg, viaBinary, viaGob)
	}
	if !reflect.DeepEqual(viaBinary, env) {
		t.Fatalf("binary round-trip not identity for %T:\n got:  %#v\n want: %#v", env.Msg, viaBinary, env)
	}
}

// TestDifferentialHandBuilt drives the hand-built exhaustive cases — every
// registered type, including edge shapes — through both codecs.
func TestDifferentialHandBuilt(t *testing.T) {
	for i, env := range caseEnvelopes() {
		t.Run(fmt.Sprintf("%02d_%T", i, env.Msg), func(t *testing.T) {
			checkEquivalent(t, 7, env)
		})
	}
}

// TestDifferentialRandomized drives per-type randomized generators through
// both codecs across several seeds.
func TestDifferentialRandomized(t *testing.T) {
	iterations := 2500
	if testing.Short() {
		iterations = 300
	}
	rng := rand.New(rand.NewSource(0xd1ff))
	for i := 0; i < iterations; i++ {
		env := randomEnvelope(rng, 0)
		from := stack.ProcessID(rng.Intn(64))
		checkEquivalent(t, from, env)
	}
}

// TestDifferentialPerType makes the per-type coverage explicit: each
// registered message type must be generated and proven equivalent at least
// once, so a generator rot (a type the random pool stops producing) fails
// loudly instead of silently shrinking coverage.
func TestDifferentialPerType(t *testing.T) {
	seen := map[string]bool{}
	record := func(m stack.Message) {
		seen[fmt.Sprintf("%T", m)] = true
		if p, ok := m.(consensus.PiggyMsg); ok {
			seen[fmt.Sprintf("%T", p.M)] = true
		}
	}
	rng := rand.New(rand.NewSource(0x5eed))
	for i := 0; i < 4000; i++ {
		env := randomEnvelope(rng, 0)
		checkEquivalent(t, 3, env)
		record(env.Msg)
		if s, ok := env.Msg.(*relink.SeqMsg); ok {
			record(s.Env.Msg)
		}
	}
	for _, env := range caseEnvelopes() {
		record(env.Msg)
	}
	wantTypes := []stack.Message{
		fd.HeartbeatMsg{}, rbcast.DataMsg{}, rbcast.EchoMsg{},
		consensus.CTEstimateMsg{}, consensus.CTProposalMsg{}, consensus.CTAckMsg{},
		consensus.MREchoMsg{}, consensus.DecideMsg{}, consensus.OpenMsg{},
		consensus.PiggyMsg{}, consensus.SyncReqMsg{},
		&relink.SeqMsg{}, relink.AckMsg{}, relink.ProbeMsg{},
		core.FetchMsg{}, core.SupplyMsg{},
		core.SnapOfferMsg{}, core.SnapAcceptMsg{}, core.SnapChunkMsg{},
		core.FrontierMsg{},
		&msg.App{},
	}
	for _, m := range wantTypes {
		if !seen[fmt.Sprintf("%T", m)] {
			t.Errorf("no differential coverage generated for %T", m)
		}
	}
}
