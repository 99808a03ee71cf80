package wire

// Golden-vector suite: the exact encoded bytes of one instance of every
// wire type are checked in under testdata/golden.hex. Any accidental format
// change — a field reordered, a width changed, a tag renumbered — fails
// here loudly, in both directions: today's encoder must reproduce the
// pinned bytes, and the pinned bytes must decode back to the original
// value (what an already-deployed peer would emit).
//
// Version-bump procedure (enforced by this test): if a format change is
// intentional, bump wire.Version, regenerate the vectors with
//
//	ABCAST_REGEN_GOLDEN=1 go test ./internal/wire -run TestGolden
//
// and describe the change in docs/ARCHITECTURE.md's wire-format section.
// Never regenerate without the version bump: two binaries disagreeing
// about the same version byte is exactly the failure mode the vectors
// exist to prevent.

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"abcast/internal/consensus"
	"abcast/internal/core"
	"abcast/internal/fd"
	"abcast/internal/msg"
	"abcast/internal/rbcast"
	"abcast/internal/relink"
	"abcast/internal/stack"
)

// goldenCase pins one instance of one wire type.
type goldenCase struct {
	name string
	from stack.ProcessID
	env  stack.Envelope
}

// goldenCases returns one deterministic instance per registered wire type
// (plus one per consensus-value shape). Do not edit existing entries: each
// is a frozen contract with the checked-in bytes.
func goldenCases() []goldenCase {
	app := &msg.App{ID: msg.ID{Sender: 2, Seq: 5}, Payload: []byte("golden")}
	cfgApp := &msg.App{ID: msg.ID{Sender: 1, Seq: 8}, Config: &msg.ConfigChange{Join: 4, Leave: 3}}
	idv := core.IDSetValue{Set: msg.NewIDSet(msg.ID{Sender: 1, Seq: 1}, msg.ID{Sender: 3, Seq: 2})}
	msgv := core.NewMsgSetValue([]*msg.App{app})
	return []goldenCase{
		{"fd.HeartbeatMsg", 1, stack.Envelope{Proto: stack.ProtoFD, Msg: fd.HeartbeatMsg{}}},
		{"rbcast.DataMsg", 2, stack.Envelope{Proto: stack.ProtoRB, Msg: rbcast.DataMsg{App: app}}},
		{"rbcast.EchoMsg", 3, stack.Envelope{Proto: stack.ProtoURB, Msg: rbcast.EchoMsg{App: cfgApp}}},
		{"consensus.CTEstimateMsg", 1, stack.Envelope{Proto: stack.ProtoCons, Inst: 4, Msg: consensus.CTEstimateMsg{R: 2, TS: 1, Est: idv}}},
		{"consensus.CTProposalMsg", 2, stack.Envelope{Proto: stack.ProtoCons, Inst: 4, Msg: consensus.CTProposalMsg{R: 2, Est: idv}}},
		{"consensus.CTAckMsg", 3, stack.Envelope{Proto: stack.ProtoCons, Inst: 4, Msg: consensus.CTAckMsg{R: 2, Nack: true}}},
		{"consensus.MREchoMsg", 1, stack.Envelope{Proto: stack.ProtoCons, Inst: 5, Msg: consensus.MREchoMsg{R: 3, Bottom: true, Est: nil}}},
		{"consensus.DecideMsg", 2, stack.Envelope{Proto: stack.ProtoCons, Inst: 5, Msg: consensus.DecideMsg{Est: msgv}}},
		{"consensus.OpenMsg", 3, stack.Envelope{Proto: stack.ProtoCons, Inst: 6, Msg: consensus.OpenMsg{Also: []uint64{7, 9}}}},
		{"consensus.PiggyMsg", 1, stack.Envelope{Proto: stack.ProtoCons, Inst: 6, Msg: consensus.PiggyMsg{Opens: []uint64{7}, M: consensus.CTAckMsg{R: 1}}}},
		{"consensus.SyncReqMsg", 2, stack.Envelope{Proto: stack.ProtoCons, Msg: consensus.SyncReqMsg{From: 12}}},
		{"relink.SeqMsg", 3, stack.Envelope{Proto: stack.ProtoLink, Msg: &relink.SeqMsg{Seq: 9, Low: 2, Env: stack.Envelope{Proto: stack.ProtoRB, Msg: rbcast.DataMsg{App: app}}}}},
		{"relink.AckMsg", 1, stack.Envelope{Proto: stack.ProtoLink, Msg: relink.AckMsg{Cum: 5, Have: []uint64{7, 8}}}},
		{"relink.ProbeMsg", 2, stack.Envelope{Proto: stack.ProtoLink, Msg: relink.ProbeMsg{Max: 11, Low: 4}}},
		{"core.FetchMsg", 3, stack.Envelope{Proto: stack.ProtoSync, Msg: core.FetchMsg{IDs: []msg.ID{{Sender: 2, Seq: 3}}}}},
		{"core.SupplyMsg", 1, stack.Envelope{Proto: stack.ProtoSync, Msg: core.SupplyMsg{Apps: []*msg.App{app}}}},
		{"core.SnapOfferMsg", 2, stack.Envelope{Proto: stack.ProtoSnapshot, Msg: core.SnapOfferMsg{Boundary: 40}}},
		{"core.SnapAcceptMsg", 3, stack.Envelope{Proto: stack.ProtoSnapshot, Msg: core.SnapAcceptMsg{Delivered: 16}}},
		{"core.SnapChunkMsg", 1, stack.Envelope{Proto: stack.ProtoSnapshot, Msg: core.SnapChunkMsg{
			Boundary: 40, Start: 8, Seq: 1, Total: 2, More: true,
			Entries: []core.SnapEntry{
				{ID: msg.ID{Sender: 1, Seq: 2}, K: 3, Payload: []byte("st")},
				{ID: msg.ID{Sender: 2, Seq: 1}, K: 4, Missing: true, Cfg: &msg.ConfigChange{Join: 4}},
			}}}},
		{"core.FrontierMsg", 2, stack.Envelope{Proto: stack.ProtoSync, Msg: core.FrontierMsg{Frontier: 33}}},
		{"msg.App", 2, stack.Envelope{Proto: stack.ProtoApp, Inst: 1, Msg: cfgApp}},
		{"value.IDSetValue.empty", 1, stack.Envelope{Proto: stack.ProtoCons, Inst: 7, Msg: consensus.DecideMsg{Est: core.IDSetValue{}}}},
		{"value.nil", 2, stack.Envelope{Proto: stack.ProtoCons, Inst: 7, Msg: consensus.CTEstimateMsg{R: 1, TS: -1}}},
	}
}

const goldenFile = "testdata/golden.hex"

// readGolden parses the checked-in vectors: one "name hex" pair per line.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("golden vectors missing (regenerate with ABCAST_REGEN_GOLDEN=1): %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// regenGolden rewrites the vector file from the current encoder.
func regenGolden(t *testing.T) {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Golden wire vectors, format version %d.\n", Version)
	sb.WriteString("# One 'name hex' pair per line; see golden_test.go for the\n")
	sb.WriteString("# instances and the version-bump procedure.\n")
	for _, c := range goldenCases() {
		data, err := EncodeEnvelope(c.from, c.env)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		fmt.Fprintf(&sb, "%s %s\n", c.name, hex.EncodeToString(data))
	}
	if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %s — if the format changed, wire.Version must be bumped too", goldenFile)
}

// TestGoldenVectors pins the byte layout in both directions.
func TestGoldenVectors(t *testing.T) {
	if os.Getenv("ABCAST_REGEN_GOLDEN") != "" {
		regenGolden(t)
		return
	}
	want := readGolden(t)
	cases := goldenCases()
	if len(want) != len(cases) {
		t.Errorf("golden file has %d vectors, cases have %d (stale file? regenerate and bump Version if the format changed)", len(want), len(cases))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantHex, ok := want[c.name]
			if !ok {
				t.Fatalf("no golden vector for %s (regenerate with ABCAST_REGEN_GOLDEN=1)", c.name)
			}
			data, err := EncodeEnvelope(c.from, c.env)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if got := hex.EncodeToString(data); got != wantHex {
				t.Fatalf("byte layout changed for %s:\n got:  %s\n want: %s\n"+
					"If intentional: bump wire.Version, regenerate with ABCAST_REGEN_GOLDEN=1, and document the change in docs/ARCHITECTURE.md.",
					c.name, got, wantHex)
			}
			// The pinned bytes (what a deployed peer emits) must still
			// decode to the original value.
			raw, err := hex.DecodeString(wantHex)
			if err != nil {
				t.Fatal(err)
			}
			from, env, err := DecodeEnvelope(raw)
			if err != nil {
				t.Fatalf("decode pinned bytes: %v", err)
			}
			if from != c.from || !reflect.DeepEqual(env, c.env) {
				t.Fatalf("pinned bytes decode mismatch:\n got:  %#v\n want: %#v", env, c.env)
			}
		})
	}
}

// TestGoldenVersionByte pins the frame's first byte to the declared format
// version, the field the bump procedure revolves around.
func TestGoldenVersionByte(t *testing.T) {
	data, err := EncodeEnvelope(1, stack.Envelope{Proto: stack.ProtoFD, Msg: fd.HeartbeatMsg{}})
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != Version {
		t.Fatalf("frame starts with %d, want Version=%d", data[0], Version)
	}
	// A frame from a future version must be rejected, not misparsed.
	future := append([]byte{Version + 1}, data[1:]...)
	if _, _, err := DecodeEnvelope(future); err == nil {
		t.Fatal("future-version frame decoded")
	}
}
