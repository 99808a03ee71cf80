package wire

// Microbenchmarks for the wire codec: encode and decode per representative
// message type, binary against the retired gob baseline (kept test-only in
// differential_test.go). The rbcast data message and the consensus piggy
// message are the two frame types that dominate steady-state traffic, so
// those are the ones the allocation budget is judged on; the others pin the
// breadth of the comparison.
//
// Numbers (and the procedure to refresh them) are recorded in
// docs/ARCHITECTURE.md's wire-format section.

import (
	"testing"

	"abcast/internal/consensus"
	"abcast/internal/core"
	"abcast/internal/fd"
	"abcast/internal/msg"
	"abcast/internal/rbcast"
	"abcast/internal/relink"
	"abcast/internal/stack"
)

// benchCase is one representative frame for the hot-path comparison.
type benchCase struct {
	name string
	env  stack.Envelope
}

// benchCases returns realistic steady-state frames: payload sizes and set
// cardinalities mirror what the figure benchmarks generate.
func benchCases() []benchCase {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	app := &msg.App{ID: msg.ID{Sender: 2, Seq: 40}, Payload: payload}
	ids := make([]msg.ID, 8)
	for i := range ids {
		ids[i] = msg.ID{Sender: stack.ProcessID(i%3 + 1), Seq: uint64(100 + i)}
	}
	est := core.IDSetValue{Set: msg.NewIDSet(ids...)}
	return []benchCase{
		{"rbcast.DataMsg", stack.Envelope{Proto: stack.ProtoRB, Msg: rbcast.DataMsg{App: app}}},
		{"consensus.PiggyMsg", stack.Envelope{Proto: stack.ProtoCons, Inst: 41, Msg: consensus.PiggyMsg{
			Opens: []uint64{42},
			M:     consensus.CTEstimateMsg{R: 0, TS: -1, Est: est},
		}}},
		{"consensus.DecideMsg", stack.Envelope{Proto: stack.ProtoCons, Inst: 41, Msg: consensus.DecideMsg{Est: est}}},
		{"relink.SeqMsg", stack.Envelope{Proto: stack.ProtoLink, Msg: &relink.SeqMsg{Seq: 77, Low: 12,
			Env: stack.Envelope{Proto: stack.ProtoRB, Msg: rbcast.DataMsg{App: app}}}}},
		{"relink.AckMsg", stack.Envelope{Proto: stack.ProtoLink, Msg: relink.AckMsg{Cum: 70, Have: []uint64{72, 75}}}},
		{"fd.HeartbeatMsg", stack.Envelope{Proto: stack.ProtoFD, Msg: fd.HeartbeatMsg{}}},
		{"core.SnapChunkMsg", stack.Envelope{Proto: stack.ProtoSnapshot, Msg: core.SnapChunkMsg{
			Boundary: 40, Start: 8, Seq: 1, Total: 2, More: true,
			Entries: []core.SnapEntry{
				{ID: msg.ID{Sender: 1, Seq: 2}, K: 3, Payload: payload[:64]},
				{ID: msg.ID{Sender: 2, Seq: 1}, K: 4, Missing: true},
			}}}},
	}
}

var (
	benchBytes []byte
	benchEnv   stack.Envelope
)

func BenchmarkEncode(b *testing.B) {
	for _, c := range benchCases() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := EncodeEnvelope(3, c.env)
				if err != nil {
					b.Fatal(err)
				}
				benchBytes = data
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, c := range benchCases() {
		data, err := EncodeEnvelope(3, c.env)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, env, err := DecodeEnvelope(data)
				if err != nil {
					b.Fatal(err)
				}
				benchEnv = env
			}
		})
	}
}

// The gob baseline: what every frame used to cost. A fresh encoder/decoder
// per frame is not a strawman — gob streams are stateful (type descriptors
// travel once per stream), so datagram framing forced exactly this usage in
// the retired codec.

func BenchmarkGobEncode(b *testing.B) {
	for _, c := range benchCases() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := gobEncode(3, c.env)
				if err != nil {
					b.Fatal(err)
				}
				benchBytes = data
			}
		})
	}
}

func BenchmarkGobDecode(b *testing.B) {
	for _, c := range benchCases() {
		data, err := gobEncode(3, c.env)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, env, err := gobDecode(data)
				if err != nil {
					b.Fatal(err)
				}
				benchEnv = env
			}
		})
	}
}
