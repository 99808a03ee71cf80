package wire

import (
	"errors"
	"fmt"
	"sort"

	"abcast/internal/consensus"
	"abcast/internal/core"
	"abcast/internal/fd"
	"abcast/internal/msg"
	"abcast/internal/rbcast"
	"abcast/internal/relink"
	"abcast/internal/stack"
	bin "abcast/internal/wire/binary"
)

// Version is the wire-format version, the first byte of every frame. Any
// change to the byte layout below — a field added, reordered or re-widened,
// a tag renumbered — must bump it and regenerate the golden vectors (see
// docs/ARCHITECTURE.md, "Wire format").
const Version = 1

// Type tags, one per concrete message type the codec covers. Tags are part
// of the frozen format: never renumber an existing tag, only append.
const (
	tagHeartbeat  byte = 1  // fd.HeartbeatMsg
	tagRBData     byte = 2  // rbcast.DataMsg
	tagRBEcho     byte = 3  // rbcast.EchoMsg
	tagCTEstimate byte = 4  // consensus.CTEstimateMsg
	tagCTProposal byte = 5  // consensus.CTProposalMsg
	tagCTAck      byte = 6  // consensus.CTAckMsg
	tagMREcho     byte = 7  // consensus.MREchoMsg
	tagDecide     byte = 8  // consensus.DecideMsg
	tagOpen       byte = 9  // consensus.OpenMsg
	tagPiggy      byte = 10 // consensus.PiggyMsg
	tagSyncReq    byte = 11 // consensus.SyncReqMsg
	tagLinkSeq    byte = 12 // *relink.SeqMsg
	tagLinkAck    byte = 13 // relink.AckMsg
	tagLinkProbe  byte = 14 // relink.ProbeMsg
	tagFetch      byte = 15 // core.FetchMsg
	tagSupply     byte = 16 // core.SupplyMsg
	tagSnapOffer  byte = 17 // core.SnapOfferMsg
	tagSnapAccept byte = 18 // core.SnapAcceptMsg
	tagSnapChunk  byte = 19 // core.SnapChunkMsg
	tagApp        byte = 20 // *msg.App (application-level traffic)
	tagFrontier   byte = 21 // core.FrontierMsg
)

// Value tags for the consensus.Value interface field of consensus messages.
const (
	valNil    byte = 0 // absent value (e.g. an MREcho carrying ⊥)
	valIDSet  byte = 1 // core.IDSetValue
	valMsgSet byte = 2 // core.MsgSetValue
)

// registeredTypes lists every concrete message type the codec covers, by
// package path and name. The test suites are driven off it: completeness
// diffs it against a source scan for stack.Message implementations, and the
// differential/golden suites iterate it to prove full coverage.
var registeredTypes = []string{
	"abcast/internal/fd.HeartbeatMsg",
	"abcast/internal/rbcast.DataMsg",
	"abcast/internal/rbcast.EchoMsg",
	"abcast/internal/consensus.CTEstimateMsg",
	"abcast/internal/consensus.CTProposalMsg",
	"abcast/internal/consensus.CTAckMsg",
	"abcast/internal/consensus.MREchoMsg",
	"abcast/internal/consensus.DecideMsg",
	"abcast/internal/consensus.OpenMsg",
	"abcast/internal/consensus.PiggyMsg",
	"abcast/internal/consensus.SyncReqMsg",
	"abcast/internal/relink.SeqMsg",
	"abcast/internal/relink.AckMsg",
	"abcast/internal/relink.ProbeMsg",
	"abcast/internal/core.FetchMsg",
	"abcast/internal/core.SupplyMsg",
	"abcast/internal/core.SnapOfferMsg",
	"abcast/internal/core.SnapAcceptMsg",
	"abcast/internal/core.SnapChunkMsg",
	"abcast/internal/core.FrontierMsg",
	"abcast/internal/core.IDSetValue",
	"abcast/internal/core.MsgSetValue",
	"abcast/internal/msg.App",
}

// maxNest bounds message nesting (PiggyMsg wrapping a message, SeqMsg
// wrapping an envelope). Legitimate traffic nests at most three deep — a
// relink frame around a piggybacked algorithm message — so the cap only
// exists to stop adversarial input from driving unbounded recursion.
const maxNest = 8

var (
	errNilMessage = errors.New("wire: nil message")
	errDepth      = errors.New("wire: message nesting exceeds limit")
	errUnknownTag = errors.New("wire: unknown type tag")
	errVersion    = errors.New("wire: unsupported format version")
)

// --- encode -----------------------------------------------------------

// appendEnvelope appends proto id, instance number and the tagged message.
func appendEnvelope(b []byte, env stack.Envelope, depth int) ([]byte, error) {
	b = append(b, byte(env.Proto))
	b = bin.AppendUvarint(b, env.Inst)
	return appendMessage(b, env.Msg, depth)
}

// appendMessage appends the type tag and body of m. The type switch is the
// whole dispatch — no reflection anywhere on the encode path.
func appendMessage(b []byte, m stack.Message, depth int) ([]byte, error) {
	if m == nil {
		return nil, errNilMessage
	}
	if depth > maxNest {
		return nil, errDepth
	}
	switch v := m.(type) {
	case fd.HeartbeatMsg:
		return append(b, tagHeartbeat), nil
	case rbcast.DataMsg:
		b = append(b, tagRBData)
		return appendApp(b, v.App)
	case rbcast.EchoMsg:
		b = append(b, tagRBEcho)
		return appendApp(b, v.App)
	case consensus.CTEstimateMsg:
		b = append(b, tagCTEstimate)
		b = bin.AppendVarint(b, int64(v.R))
		b = bin.AppendVarint(b, int64(v.TS))
		return appendValue(b, v.Est)
	case consensus.CTProposalMsg:
		b = append(b, tagCTProposal)
		b = bin.AppendVarint(b, int64(v.R))
		return appendValue(b, v.Est)
	case consensus.CTAckMsg:
		b = append(b, tagCTAck)
		b = bin.AppendVarint(b, int64(v.R))
		return bin.AppendBool(b, v.Nack), nil
	case consensus.MREchoMsg:
		b = append(b, tagMREcho)
		b = bin.AppendVarint(b, int64(v.R))
		b = bin.AppendBool(b, v.Bottom)
		return appendValue(b, v.Est)
	case consensus.DecideMsg:
		b = append(b, tagDecide)
		return appendValue(b, v.Est)
	case consensus.OpenMsg:
		b = append(b, tagOpen)
		return appendUint64s(b, v.Also), nil
	case consensus.PiggyMsg:
		b = append(b, tagPiggy)
		b = appendUint64s(b, v.Opens)
		return appendMessage(b, v.M, depth+1)
	case consensus.SyncReqMsg:
		b = append(b, tagSyncReq)
		return bin.AppendUvarint(b, v.From), nil
	case *relink.SeqMsg:
		if v == nil {
			return nil, errNilMessage
		}
		b = append(b, tagLinkSeq)
		b = bin.AppendUvarint(b, v.Seq)
		b = bin.AppendUvarint(b, v.Low)
		return appendEnvelope(b, v.Env, depth+1)
	case relink.AckMsg:
		b = append(b, tagLinkAck)
		b = bin.AppendUvarint(b, v.Cum)
		return appendUint64s(b, v.Have), nil
	case relink.ProbeMsg:
		b = append(b, tagLinkProbe)
		b = bin.AppendUvarint(b, v.Max)
		return bin.AppendUvarint(b, v.Low), nil
	case core.FetchMsg:
		b = append(b, tagFetch)
		b = bin.AppendUvarint(b, uint64(len(v.IDs)))
		for _, id := range v.IDs {
			b = appendID(b, id)
		}
		return b, nil
	case core.SupplyMsg:
		b = append(b, tagSupply)
		return appendApps(b, v.Apps)
	case core.SnapOfferMsg:
		b = append(b, tagSnapOffer)
		return bin.AppendUvarint(b, v.Boundary), nil
	case core.SnapAcceptMsg:
		b = append(b, tagSnapAccept)
		return bin.AppendUvarint(b, v.Delivered), nil
	case core.SnapChunkMsg:
		b = append(b, tagSnapChunk)
		b = bin.AppendUvarint(b, v.Boundary)
		b = bin.AppendUvarint(b, v.Start)
		b = bin.AppendVarint(b, int64(v.Seq))
		b = bin.AppendVarint(b, int64(v.Total))
		b = bin.AppendBool(b, v.More)
		b = bin.AppendUvarint(b, uint64(len(v.Entries)))
		for _, en := range v.Entries {
			b = appendID(b, en.ID)
			b = bin.AppendUvarint(b, en.K)
			b = bin.AppendBool(b, en.Missing)
			b = bin.AppendBytes(b, en.Payload)
			b = appendConfig(b, en.Cfg)
		}
		return b, nil
	case core.FrontierMsg:
		b = append(b, tagFrontier)
		return bin.AppendUvarint(b, v.Frontier), nil
	case *msg.App:
		b = append(b, tagApp)
		return appendApp(b, v)
	case core.IDSetValue, core.MsgSetValue:
		// Consensus values travel inside consensus messages; a bare value
		// is never a wire message of its own.
		return nil, fmt.Errorf("wire: %T is a consensus value, not a standalone message", m)
	default:
		return nil, fmt.Errorf("wire: unregistered message type %T", m)
	}
}

// appendID appends one message identifier.
func appendID(b []byte, id msg.ID) []byte {
	b = bin.AppendVarint(b, int64(id.Sender))
	return bin.AppendUvarint(b, id.Seq)
}

// appendConfig appends a presence flag plus the two process ids of a
// membership change.
func appendConfig(b []byte, c *msg.ConfigChange) []byte {
	if c == nil {
		return bin.AppendBool(b, false)
	}
	b = bin.AppendBool(b, true)
	b = bin.AppendVarint(b, int64(c.Join))
	return bin.AppendVarint(b, int64(c.Leave))
}

// appendApp appends one application message: id, payload, optional config.
func appendApp(b []byte, a *msg.App) ([]byte, error) {
	if a == nil {
		return nil, fmt.Errorf("wire: nil *msg.App")
	}
	b = appendID(b, a.ID)
	b = bin.AppendBytes(b, a.Payload)
	return appendConfig(b, a.Config), nil
}

// appendApps appends a length-prefixed slice of application messages.
func appendApps(b []byte, apps []*msg.App) ([]byte, error) {
	b = bin.AppendUvarint(b, uint64(len(apps)))
	var err error
	for _, a := range apps {
		if b, err = appendApp(b, a); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// appendUint64s appends a length-prefixed slice of uvarints.
func appendUint64s(b []byte, vs []uint64) []byte {
	b = bin.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = bin.AppendUvarint(b, v)
	}
	return b
}

// appendValue appends a tagged consensus value (nil, identifier set, or
// message set).
func appendValue(b []byte, v consensus.Value) ([]byte, error) {
	switch val := v.(type) {
	case nil:
		return append(b, valNil), nil
	case core.IDSetValue:
		b = append(b, valIDSet)
		ids := val.Set.RawIDs()
		b = bin.AppendUvarint(b, uint64(len(ids)))
		for _, id := range ids {
			b = appendID(b, id)
		}
		return b, nil
	case core.MsgSetValue:
		b = append(b, valMsgSet)
		return appendApps(b, val.Msgs)
	default:
		return nil, fmt.Errorf("wire: unregistered consensus value type %T", v)
	}
}

// --- decode -----------------------------------------------------------

// decodeEnvelope is the inverse of appendEnvelope. On any malformed input
// the reader is left in its sticky error state and a zero envelope returns.
func decodeEnvelope(r *bin.Reader, depth int) stack.Envelope {
	var env stack.Envelope
	env.Proto = stack.ProtoID(r.Byte())
	env.Inst = r.Uvarint()
	env.Msg = decodeMessage(r, depth)
	return env
}

// decodeMessage reads the type tag and dispatches to the per-type decoder.
// Every collection length is validated against the remaining input before
// allocating (bin.Reader.Len), so hostile frames cannot over-allocate.
func decodeMessage(r *bin.Reader, depth int) stack.Message {
	if depth > maxNest {
		r.Fail(errDepth)
		return nil
	}
	switch tag := r.Byte(); tag {
	case tagHeartbeat:
		return fd.HeartbeatMsg{}
	case tagRBData:
		return rbcast.DataMsg{App: decodeApp(r)}
	case tagRBEcho:
		return rbcast.EchoMsg{App: decodeApp(r)}
	case tagCTEstimate:
		var m consensus.CTEstimateMsg
		m.R = int(r.Varint())
		m.TS = int(r.Varint())
		m.Est = decodeValue(r)
		return m
	case tagCTProposal:
		var m consensus.CTProposalMsg
		m.R = int(r.Varint())
		m.Est = decodeValue(r)
		return m
	case tagCTAck:
		var m consensus.CTAckMsg
		m.R = int(r.Varint())
		m.Nack = r.Bool()
		return m
	case tagMREcho:
		var m consensus.MREchoMsg
		m.R = int(r.Varint())
		m.Bottom = r.Bool()
		m.Est = decodeValue(r)
		return m
	case tagDecide:
		return consensus.DecideMsg{Est: decodeValue(r)}
	case tagOpen:
		return consensus.OpenMsg{Also: decodeUint64s(r)}
	case tagPiggy:
		var m consensus.PiggyMsg
		m.Opens = decodeUint64s(r)
		m.M = decodeMessage(r, depth+1)
		return m
	case tagSyncReq:
		return consensus.SyncReqMsg{From: r.Uvarint()}
	case tagLinkSeq:
		m := &relink.SeqMsg{Seq: r.Uvarint(), Low: r.Uvarint()}
		m.Env = decodeEnvelope(r, depth+1)
		return m
	case tagLinkAck:
		var m relink.AckMsg
		m.Cum = r.Uvarint()
		m.Have = decodeUint64s(r)
		return m
	case tagLinkProbe:
		var m relink.ProbeMsg
		m.Max = r.Uvarint()
		m.Low = r.Uvarint()
		return m
	case tagFetch:
		n := r.Len(2) // an id is at least two varint bytes
		var m core.FetchMsg
		if n > 0 {
			m.IDs = make([]msg.ID, n)
			for i := range m.IDs {
				m.IDs[i] = decodeID(r)
			}
		}
		return m
	case tagSupply:
		return core.SupplyMsg{Apps: decodeApps(r)}
	case tagSnapOffer:
		return core.SnapOfferMsg{Boundary: r.Uvarint()}
	case tagSnapAccept:
		return core.SnapAcceptMsg{Delivered: r.Uvarint()}
	case tagSnapChunk:
		var m core.SnapChunkMsg
		m.Boundary = r.Uvarint()
		m.Start = r.Uvarint()
		m.Seq = int(r.Varint())
		m.Total = int(r.Varint())
		m.More = r.Bool()
		// id(2) + k(1) + missing(1) + payload len(1) + cfg flag(1)
		n := r.Len(6)
		if n > 0 {
			m.Entries = make([]core.SnapEntry, n)
			for i := range m.Entries {
				e := &m.Entries[i]
				e.ID = decodeID(r)
				e.K = r.Uvarint()
				e.Missing = r.Bool()
				e.Payload = r.Bytes()
				e.Cfg = decodeConfig(r)
			}
		}
		return m
	case tagFrontier:
		return core.FrontierMsg{Frontier: r.Uvarint()}
	case tagApp:
		return decodeApp(r)
	default:
		r.Fail(fmt.Errorf("%w %d", errUnknownTag, tag))
		return nil
	}
}

// decodeID reads one message identifier.
func decodeID(r *bin.Reader) msg.ID {
	var id msg.ID
	id.Sender = stack.ProcessID(r.Varint())
	id.Seq = r.Uvarint()
	return id
}

// decodeConfig reads an optional membership change.
func decodeConfig(r *bin.Reader) *msg.ConfigChange {
	if !r.Bool() || r.Err() != nil {
		return nil
	}
	var c msg.ConfigChange
	c.Join = stack.ProcessID(r.Varint())
	c.Leave = stack.ProcessID(r.Varint())
	return &c
}

// decodeApp reads one application message. A payload of AliasMin bytes or
// more aliases the frame buffer; DecodeEnvelope documents the rule.
func decodeApp(r *bin.Reader) *msg.App {
	var a msg.App
	a.ID = decodeID(r)
	a.Payload = r.Bytes()
	a.Config = decodeConfig(r)
	if r.Err() != nil {
		return nil
	}
	return &a
}

// decodeApps reads a length-prefixed slice of application messages.
func decodeApps(r *bin.Reader) []*msg.App {
	// id(2) + payload len(1) + cfg flag(1) per element, minimum.
	n := r.Len(4)
	if r.Err() != nil || n == 0 {
		return nil
	}
	apps := make([]*msg.App, n)
	for i := range apps {
		if apps[i] = decodeApp(r); apps[i] == nil {
			return nil
		}
	}
	return apps
}

// decodeUint64s reads a length-prefixed uvarint slice.
func decodeUint64s(r *bin.Reader) []uint64 {
	n := r.Len(1)
	if r.Err() != nil || n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.Uvarint()
	}
	return vs
}

// decodeValue reads a tagged consensus value. Hostile input claiming an
// unsorted identifier or message set is re-normalized, preserving the
// invariant every consumer of these types relies on.
func decodeValue(r *bin.Reader) consensus.Value {
	switch tag := r.Byte(); tag {
	case valNil:
		return nil
	case valIDSet:
		n := r.Len(2)
		if r.Err() != nil {
			return nil
		}
		ids := make([]msg.ID, n)
		for i := range ids {
			ids[i] = decodeID(r)
		}
		return core.IDSetValue{Set: msg.IDSetFromSorted(ids)}
	case valMsgSet:
		apps := decodeApps(r)
		if sort.SliceIsSorted(apps, func(i, j int) bool { return apps[i].ID.Less(apps[j].ID) }) {
			return core.MsgSetValue{Msgs: apps}
		}
		return core.NewMsgSetValue(apps)
	default:
		r.Fail(fmt.Errorf("%w (value) %d", errUnknownTag, tag))
		return nil
	}
}
