package wire

// Shared sample and generator infrastructure for the codec test suites:
// hand-built envelopes covering every registered wire type and its edge
// cases (differential + golden + completeness), and per-type randomized
// generators (differential property runs + fuzz seed material).

import (
	"math"
	"math/rand"

	"abcast/internal/consensus"
	"abcast/internal/core"
	"abcast/internal/fd"
	"abcast/internal/msg"
	"abcast/internal/rbcast"
	"abcast/internal/relink"
	"abcast/internal/stack"
)

// caseEnvelopes returns hand-built envelopes covering every registered
// wire type: zero values, nil-vs-present optionals, empty and large
// collections, negative ints, and legal nesting shapes.
func caseEnvelopes() []stack.Envelope {
	app := &msg.App{ID: msg.ID{Sender: 2, Seq: 5}, Payload: []byte("payload")}
	appNilPayload := &msg.App{ID: msg.ID{Sender: 1, Seq: 1}}
	appJoin := &msg.App{ID: msg.ID{Sender: 3, Seq: 9}, Config: &msg.ConfigChange{Join: 4}}
	appLeave := &msg.App{ID: msg.ID{Sender: 1, Seq: 2}, Payload: []byte{0}, Config: &msg.ConfigChange{Leave: 3}}
	appZeroCfg := &msg.App{ID: msg.ID{Sender: 6, Seq: 0}, Config: &msg.ConfigChange{}}
	idv := core.IDSetValue{Set: msg.NewIDSet(
		msg.ID{Sender: 1, Seq: 1}, msg.ID{Sender: 2, Seq: 2}, msg.ID{Sender: 2, Seq: math.MaxUint64})}
	idvEmpty := core.IDSetValue{}
	msgv := core.NewMsgSetValue([]*msg.App{app, appJoin})
	msgvEmpty := core.MsgSetValue{}

	return []stack.Envelope{
		// Failure detector.
		{Proto: stack.ProtoFD, Msg: fd.HeartbeatMsg{}},
		// Reliable broadcast.
		{Proto: stack.ProtoRB, Msg: rbcast.DataMsg{App: app}},
		{Proto: stack.ProtoRB, Msg: rbcast.DataMsg{App: appNilPayload}},
		{Proto: stack.ProtoRB, Msg: rbcast.DataMsg{App: appJoin}},
		{Proto: stack.ProtoRB, Msg: rbcast.DataMsg{App: appZeroCfg}},
		{Proto: stack.ProtoURB, Msg: rbcast.EchoMsg{App: appLeave}},
		// Consensus, all seven algorithm messages.
		{Proto: stack.ProtoCons, Inst: 3, Msg: consensus.CTEstimateMsg{R: 2, TS: 1, Est: idv}},
		{Proto: stack.ProtoCons, Msg: consensus.CTEstimateMsg{}},
		{Proto: stack.ProtoCons, Inst: 1, Msg: consensus.CTEstimateMsg{R: -1, TS: -7, Est: idvEmpty}},
		{Proto: stack.ProtoCons, Inst: 3, Msg: consensus.CTProposalMsg{R: 2, Est: idv}},
		{Proto: stack.ProtoCons, Inst: 9, Msg: consensus.CTProposalMsg{R: 1 << 30, Est: msgv}},
		{Proto: stack.ProtoCons, Inst: 3, Msg: consensus.CTAckMsg{R: 2, Nack: true}},
		{Proto: stack.ProtoCons, Inst: 3, Msg: consensus.CTAckMsg{}},
		{Proto: stack.ProtoCons, Inst: 3, Msg: consensus.MREchoMsg{R: 1, Est: idv}},
		{Proto: stack.ProtoCons, Inst: 3, Msg: consensus.MREchoMsg{R: 1, Bottom: true}},
		{Proto: stack.ProtoCons, Inst: 4, Msg: consensus.DecideMsg{Est: msgv}},
		{Proto: stack.ProtoCons, Inst: 4, Msg: consensus.DecideMsg{Est: msgvEmpty}},
		{Proto: stack.ProtoCons, Inst: 4, Msg: consensus.DecideMsg{}},
		{Proto: stack.ProtoCons, Inst: 7, Msg: consensus.OpenMsg{}},
		{Proto: stack.ProtoCons, Inst: 7, Msg: consensus.OpenMsg{Also: []uint64{8, 9, math.MaxUint64}}},
		{Proto: stack.ProtoCons, Inst: 5, Msg: consensus.PiggyMsg{
			Opens: []uint64{6, 7},
			M:     consensus.CTEstimateMsg{R: 1, Est: idv},
		}},
		{Proto: stack.ProtoCons, Inst: 5, Msg: consensus.PiggyMsg{
			M: consensus.OpenMsg{Also: []uint64{12}},
		}},
		{Proto: stack.ProtoCons, Msg: consensus.SyncReqMsg{From: 42}},
		// Recovery: reliable-link framing (nested envelope, incl. a
		// piggybacked consensus message three levels deep).
		{Proto: stack.ProtoLink, Msg: &relink.SeqMsg{Seq: 10, Low: 3,
			Env: stack.Envelope{Proto: stack.ProtoRB, Msg: rbcast.DataMsg{App: app}}}},
		{Proto: stack.ProtoLink, Msg: &relink.SeqMsg{Seq: 1,
			Env: stack.Envelope{Proto: stack.ProtoCons, Inst: 2, Msg: consensus.PiggyMsg{
				Opens: []uint64{3}, M: consensus.CTAckMsg{R: 4},
			}}}},
		{Proto: stack.ProtoLink, Msg: relink.AckMsg{}},
		{Proto: stack.ProtoLink, Msg: relink.AckMsg{Cum: 17, Have: []uint64{19, 23}}},
		{Proto: stack.ProtoLink, Msg: relink.ProbeMsg{Max: 90, Low: 12}},
		// Recovery: payload fetch.
		{Proto: stack.ProtoSync, Msg: core.FetchMsg{}},
		{Proto: stack.ProtoSync, Msg: core.FetchMsg{IDs: []msg.ID{{Sender: 1, Seq: 4}, {Sender: 5, Seq: 1}}}},
		{Proto: stack.ProtoSync, Msg: core.SupplyMsg{}},
		{Proto: stack.ProtoSync, Msg: core.SupplyMsg{Apps: []*msg.App{app, appLeave}}},
		// Recovery: checkpoint frontier gossip.
		{Proto: stack.ProtoSync, Msg: core.FrontierMsg{}},
		{Proto: stack.ProtoSync, Msg: core.FrontierMsg{Frontier: math.MaxUint64}},
		// Recovery: snapshot state transfer.
		{Proto: stack.ProtoSnapshot, Msg: core.SnapOfferMsg{Boundary: 99}},
		{Proto: stack.ProtoSnapshot, Msg: core.SnapAcceptMsg{Delivered: 12}},
		{Proto: stack.ProtoSnapshot, Msg: core.SnapChunkMsg{Boundary: 40, Start: 8, Seq: 1, Total: 3}},
		{Proto: stack.ProtoSnapshot, Msg: core.SnapChunkMsg{
			Boundary: 40, Start: 8, Seq: 2, Total: 3, More: true,
			Entries: []core.SnapEntry{
				{ID: msg.ID{Sender: 1, Seq: 1}, K: 3, Payload: []byte("state")},
				{ID: msg.ID{Sender: 2, Seq: 7}, K: 4, Missing: true},
				{ID: msg.ID{Sender: 3, Seq: 2}, K: 5, Cfg: &msg.ConfigChange{Join: 4, Leave: 2}},
			}}},
		// Application traffic.
		{Proto: stack.ProtoApp, Msg: app},
		{Proto: stack.ProtoApp, Inst: 11, Msg: appJoin},
	}
}

// --- randomized generators -------------------------------------------

func randomID(rng *rand.Rand) msg.ID {
	return msg.ID{
		Sender: stack.ProcessID(rng.Intn(64)),
		Seq:    rng.Uint64() >> uint(rng.Intn(64)),
	}
}

func randomConfig(rng *rand.Rand) *msg.ConfigChange {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return &msg.ConfigChange{Join: stack.ProcessID(rng.Intn(8) + 1)}
	case 2:
		return &msg.ConfigChange{Leave: stack.ProcessID(rng.Intn(8) + 1)}
	default:
		return &msg.ConfigChange{
			Join:  stack.ProcessID(rng.Intn(8) + 1),
			Leave: stack.ProcessID(rng.Intn(8) + 1),
		}
	}
}

func randomApp(rng *rand.Rand) *msg.App {
	var payload []byte
	if n := rng.Intn(64); n > 0 {
		payload = make([]byte, n)
		rng.Read(payload)
	}
	return &msg.App{ID: randomID(rng), Payload: payload, Config: randomConfig(rng)}
}

func randomApps(rng *rand.Rand, max int) []*msg.App {
	n := rng.Intn(max + 1)
	if n == 0 {
		return nil
	}
	out := make([]*msg.App, n)
	for i := range out {
		out[i] = randomApp(rng)
	}
	return out
}

func randomIDSet(rng *rand.Rand) msg.IDSet {
	ids := make([]msg.ID, rng.Intn(12))
	for i := range ids {
		ids[i] = randomID(rng)
	}
	return msg.NewIDSet(ids...)
}

func randomValue(rng *rand.Rand) consensus.Value {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return core.IDSetValue{Set: randomIDSet(rng)}
	default:
		// Keep empties canonical (nil, not zero-length): both codecs decode
		// an empty set to the nil form, so originals must match it for the
		// decoded-vs-original comparison to stay strict.
		if apps := randomApps(rng, 6); apps != nil {
			return core.NewMsgSetValue(apps)
		}
		return core.MsgSetValue{}
	}
}

func randomUint64s(rng *rand.Rand, max int) []uint64 {
	n := rng.Intn(max + 1)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64() >> uint(rng.Intn(64))
	}
	return out
}

// numMessageKinds is the number of concrete message types messageOfKind can
// produce; kinds 19 and 20 are the nesting types (Piggy, Seq).
const numMessageKinds = 21

// randomMessage draws one random message instance. depth bounds nesting so
// Piggy/Seq recursion terminates.
func randomMessage(rng *rand.Rand, depth int) stack.Message {
	n := numMessageKinds
	if depth >= 2 {
		n = 19 // exclude the two nesting types deeper down
	}
	return messageOfKind(rng, rng.Intn(n), depth)
}

// messageOfKind draws a random instance of one specific message type, so
// the per-type fuzz target can steer generation by kind.
func messageOfKind(rng *rand.Rand, kind, depth int) stack.Message {
	switch kind {
	case 0:
		return fd.HeartbeatMsg{}
	case 1:
		return rbcast.DataMsg{App: randomApp(rng)}
	case 2:
		return rbcast.EchoMsg{App: randomApp(rng)}
	case 3:
		return consensus.CTEstimateMsg{R: rng.Intn(100) - 1, TS: rng.Intn(100) - 1, Est: randomValue(rng)}
	case 4:
		return consensus.CTProposalMsg{R: rng.Intn(100), Est: randomValue(rng)}
	case 5:
		return consensus.CTAckMsg{R: rng.Intn(100), Nack: rng.Intn(2) == 0}
	case 6:
		return consensus.MREchoMsg{R: rng.Intn(100), Bottom: rng.Intn(2) == 0, Est: randomValue(rng)}
	case 7:
		return consensus.DecideMsg{Est: randomValue(rng)}
	case 8:
		return consensus.OpenMsg{Also: randomUint64s(rng, 8)}
	case 9:
		return consensus.SyncReqMsg{From: rng.Uint64() >> uint(rng.Intn(64))}
	case 10:
		return relink.AckMsg{Cum: rng.Uint64() >> uint(rng.Intn(64)), Have: randomUint64s(rng, 8)}
	case 11:
		return relink.ProbeMsg{Max: rng.Uint64() >> uint(rng.Intn(64)), Low: rng.Uint64() >> uint(rng.Intn(64))}
	case 12:
		var ids []msg.ID
		if n := rng.Intn(8); n > 0 {
			ids = make([]msg.ID, n)
			for i := range ids {
				ids[i] = randomID(rng)
			}
		}
		return core.FetchMsg{IDs: ids}
	case 13:
		return core.SupplyMsg{Apps: randomApps(rng, 6)}
	case 14:
		return core.SnapOfferMsg{Boundary: rng.Uint64() >> uint(rng.Intn(64))}
	case 15:
		return core.SnapAcceptMsg{Delivered: rng.Uint64() >> uint(rng.Intn(64))}
	case 16:
		var entries []core.SnapEntry
		if n := rng.Intn(5); n > 0 {
			entries = make([]core.SnapEntry, n)
			for i := range entries {
				var payload []byte
				if m := rng.Intn(16); m > 0 {
					payload = make([]byte, m)
					rng.Read(payload)
				}
				entries[i] = core.SnapEntry{
					ID:      randomID(rng),
					K:       rng.Uint64() >> uint(rng.Intn(64)),
					Missing: rng.Intn(2) == 0,
					Payload: payload,
					Cfg:     randomConfig(rng),
				}
			}
		}
		return core.SnapChunkMsg{
			Boundary: rng.Uint64() >> uint(rng.Intn(64)),
			Start:    rng.Uint64() >> uint(rng.Intn(64)),
			Seq:      rng.Intn(10),
			Total:    rng.Intn(10),
			More:     rng.Intn(2) == 0,
			Entries:  entries,
		}
	case 17:
		return randomApp(rng)
	case 18:
		return core.FrontierMsg{Frontier: rng.Uint64() >> uint(rng.Intn(64))}
	case 19:
		return consensus.PiggyMsg{
			Opens: randomUint64s(rng, 6),
			M:     randomMessage(rng, depth+1),
		}
	default:
		return &relink.SeqMsg{
			Seq: rng.Uint64() >> uint(rng.Intn(64)),
			Low: rng.Uint64() >> uint(rng.Intn(64)),
			Env: randomEnvelope(rng, depth+1),
		}
	}
}

// randomEnvelope draws one random envelope.
func randomEnvelope(rng *rand.Rand, depth int) stack.Envelope {
	return stack.Envelope{
		Proto: stack.ProtoID(rng.Intn(10)),
		Inst:  rng.Uint64() >> uint(rng.Intn(64)),
		Msg:   randomMessage(rng, depth),
	}
}
