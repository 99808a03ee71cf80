// Package relink restores reliable-channel semantics over lossy links: a
// sequencing, retransmitting link layer slotted between the protocol stack
// and the transport.
//
// The paper's model assumes quasi-reliable channels — a message sent between
// two correct processes is eventually delivered. A drop-mode network
// partition (simnet.PartitionDrop, a routing black hole over a datagram
// transport) violates that assumption: traffic crossing the cut is lost for
// good, and the protocol properties that rely on eventual delivery (minority
// catch-up after a heal, full delivery everywhere) fail with it. A Link
// repairs the channel underneath the protocols, the way TCP or a gossip
// anti-entropy pass would, so the model's assumption holds again end to end:
//
//   - every remote send is assigned a per-(sender, receiver) sequence number
//     and retained in a bounded per-peer retransmission buffer until the
//     receiver acknowledges it (oldest entries are evicted beyond
//     Config.BufferCap — see below); the *SeqMsg sent is itself the retained
//     copy, never written once it has left, so a send costs one allocation;
//   - the receiver tracks, per peer, the contiguous prefix it has seen and
//     the out-of-order sequence numbers beyond it; duplicates are dropped, so
//     upper layers still see each message at most once;
//   - on a timer (every 100 ms until SetInterval retargets it), both ends
//     run anti-entropy: receivers with gaps or un-acknowledged progress send
//     a digest (AckMsg: cumulative prefix + the sparse set above it), and
//     senders with unacknowledged data probe (ProbeMsg: highest sequence
//     sent + eviction watermark). A digest tells the sender exactly what is
//     missing; it retransmits those envelopes and trims what was received.
//
// The exchange is receiver-driven where possible (no per-message timers) and
// quiesces completely: once all streams are acknowledged and gap-free, no
// further control traffic is generated. A peer that stops answering
// altogether (it crashed, or a cut is outlasting the probes) is probed at
// most maxProbes consecutive times and then left alone until fresh
// traffic to it — which the broadcast-to-all protocol layers above keep
// generating while the system is active — re-earns the budget, so a dead
// peer cannot keep the link ticking forever.
//
// Eviction makes the buffer bounded rather than the recovery perfect: an
// envelope evicted before it was acknowledged can never be retransmitted.
// Every SeqMsg and ProbeMsg therefore carries the sender's eviction watermark
// (Low), and the receiver advances its accounted prefix over such permanent
// gaps instead of NACKing them forever. Repairing the *semantic* loss is the
// job of the layer above: the consensus decide-relay replays decisions a
// healed peer missed, and the atomic broadcast engine fetches missing
// payloads by identifier (see internal/consensus and internal/core). The
// division of labour mirrors production systems: bounded in-window repair at
// the transport (TCP retransmission), state transfer above it (Raft
// snapshots, anti-entropy in Dynamo-style stores).
//
// Failure-detector heartbeats (stack.ProtoFD) bypass the layer: they are
// periodic and carry no state worth replaying, and retransmitting stale
// heartbeats would only distort timeout adaptation.
package relink

import (
	"sort"
	"time"

	"abcast/internal/metrics"
	"abcast/internal/stack"
	"abcast/internal/stats"
	"abcast/internal/trace"
)

// Config parameterizes a Link. The zero value is valid.
type Config struct {
	// BufferCap is the maximum number of unacknowledged envelopes retained
	// per peer for retransmission; beyond it the oldest are evicted
	// (0 = DefaultBufferCap).
	BufferCap int
	// StartSeq is the first sequence number new outgoing streams assign
	// (default 1). A restarted process must resume *above* every sequence
	// number its previous incarnation ever used: receivers remember the
	// old stream positions, and a reused number would be dropped as a
	// duplicate — silently losing a fresh envelope. The crash-recovery
	// layer passes the write-ahead-logged reservation here.
	StartSeq uint64
	// OnReserve, when set, is invoked whenever the link claims a new block
	// of sequence numbers: every number the link will ever assign is below
	// the reported limit until OnReserve is called again with a higher
	// one. The crash-recovery layer logs the limit write-ahead and feeds
	// it back via StartSeq on restart.
	OnReserve func(limit uint64)
	// Metrics, when non-nil, is the registry the link counters (relink.*)
	// register into; nil leaves them standalone (Stats works either way).
	Metrics *metrics.Registry
	// Trace, when non-nil, records a retransmit lifecycle event per digest
	// that triggered re-sends. Nil (the default) records nothing and costs
	// one pointer test.
	Trace *trace.Recorder
}

// DefaultBufferCap is the retransmission buffer capacity of the zero Config.
const DefaultBufferCap = 1024

// Fixed link tuning.
const (
	// initialInterval is the anti-entropy cadence a link starts at: how often
	// receivers digest and senders probe (SetInterval retargets it at
	// runtime). The cadence doubles as the retransmission guard — an
	// envelope (re)sent within the last interval is not retransmitted again,
	// so an in-flight copy is not duplicated by a digest that predates it.
	initialInterval = 100 * time.Millisecond
	// burst caps retransmissions per processed digest, bounding the load
	// spike when a long gap is repaired after a heal; the next anti-entropy
	// round picks up where the burst stopped.
	burst = 256
	// haveCap bounds the per-peer set of out-of-order sequence numbers a
	// receiver tracks; beyond it the oldest gap is declared lost.
	haveCap = 4096
	// maxProbes bounds consecutive unanswered probes per outgoing stream: a
	// peer that answers nothing for that many anti-entropy rounds (it has
	// crashed, or the cut is outlasting the probes) stops being probed, so
	// the link still quiesces with a dead peer in the group. Any fresh send
	// to the peer, or any digest from it, resets the budget — which is what
	// re-triggers repair after a long cut heals, since the protocol layers
	// above keep broadcasting to every process.
	maxProbes = 25
)

// reserveSlack is the size of each sequence-number block claimed through
// Config.OnReserve: large enough that steady traffic reserves rarely, small
// enough that the numbers skipped on restart are negligible against the
// uint64 space.
const reserveSlack = 1024

// SeqMsg wraps one protocol envelope with its stream sequence number. Low is
// the sender's eviction watermark: no sequence number below it can be
// retransmitted anymore, so the receiver gives up waiting for those.
//
// A SeqMsg travels as a pointer. The one Link.Send builds is also the copy
// the sender retains, never written once it has left, so a receiver on
// another goroutine may read it meanwhile; a retransmission is a fresh
// SeqMsg with the current watermark.
type SeqMsg struct {
	Seq uint64
	Low uint64
	Env stack.Envelope
}

// WireSize implements stack.Message.
func (m *SeqMsg) WireSize() int { return 16 + m.Env.WireSize() }

// AckMsg is the receiver's digest of one incoming stream: every sequence
// number ≤ Cum has been accounted for (delivered or given up), and Have
// lists the out-of-order ones received beyond Cum. The sender trims its
// buffer to the digest and retransmits exactly the gaps.
type AckMsg struct {
	Cum  uint64
	Have []uint64
}

// WireSize implements stack.Message.
func (m AckMsg) WireSize() int { return 10 + 8*len(m.Have) }

// ProbeMsg advertises the sender's stream extent while unacknowledged data
// remains: Max is the highest sequence number sent, Low the eviction
// watermark. It makes tail loss visible — a dropped final burst reveals no
// gap to the receiver, so the receiver cannot know to NACK until a probe
// tells it what Max to expect. The receiver always answers with its digest.
type ProbeMsg struct {
	Max uint64
	Low uint64
}

// WireSize implements stack.Message.
func (m ProbeMsg) WireSize() int { return 16 }

// Stats counts link-layer activity, for tests and diagnostics.
type Stats struct {
	// Sequenced is the number of envelopes sent through the layer.
	Sequenced int64
	// Retransmitted counts envelope re-sends triggered by digests.
	Retransmitted int64
	// Evicted counts buffered envelopes discarded unacknowledged because
	// the per-peer buffer exceeded BufferCap.
	Evicted int64
	// Duplicates counts received envelopes dropped as already-delivered.
	Duplicates int64
	// GiveUps counts sequence numbers a receiver stopped waiting for
	// because the sender's watermark passed them (or haveCap overflowed).
	GiveUps int64
	// Probes and Acks count control messages sent.
	Probes int64
	Acks   int64
	// RTTs is the smoothed per-peer round-trip estimate of each outgoing
	// stream that has completed at least one ProbeMsg→AckMsg exchange
	// (absent peers are unmeasured). It is the signal the adaptive control
	// plane feeds into SetInterval, so the anti-entropy cadence tracks the
	// topology instead of a constant; see Link.MaxRTT.
	RTTs map[stack.ProcessID]time.Duration
}

// outStream is the sender side of one directed stream: a ring of envelopes
// indexed by sequence number, base..base+len-1, settled where acknowledged
// or evicted.
type outStream struct {
	next    uint64 // last sequence number assigned
	base    uint64 // sequence number of entries[0]; everything below is settled
	entries []outEntry
	live    int // unsettled entries
	// unanswered counts consecutive probes with no digest back; at
	// maxProbes the stream stops probing until fresh traffic or a digest
	// resets it.
	unanswered int
	// probeAt is when the oldest unanswered probe of the current exchange
	// was sent (zero = no probe outstanding); the next digest from the peer
	// closes the round trip and folds it into rtt. Measuring from the
	// *oldest* probe makes a lost probe inflate the sample rather than
	// vanish, which errs the anti-entropy cadence toward patience on lossy
	// paths. A digest the receiver emitted on its own can close the exchange
	// early and under-measure; the smoothing absorbs it.
	probeAt time.Time
	// rtt is the smoothed probe→digest round-trip estimate for this stream.
	rtt stats.Ewma
}

// outEntry is one retained envelope: the SeqMsg first sent for it (nil once
// settled) and when it was last (re)sent.
type outEntry struct {
	msg      *SeqMsg
	lastSent time.Time
}

// inStream is the receiver side: the contiguous accounted prefix plus the
// sparse set of sequence numbers received beyond it.
type inStream struct {
	cum      uint64 // every seq ≤ cum accounted for (delivered or given up)
	have     map[uint64]bool
	ackDirty bool // progress since the last digest we sent
}

// Link is the per-process recovery layer. Install with New; it hooks itself
// into the node as both the outbound Sender and the ProtoLink handler. All
// methods run on the process's event loop (like every protocol layer), so no
// locking is needed.
//
//abcheck:eventloop all Link state is owned by the process's event loop
type Link struct {
	node *stack.Node
	ctx  stack.Context
	cfg  Config
	// interval is the current anti-entropy cadence (see SetInterval);
	// maxProbes is the probe budget, a field only so the in-package test can
	// shorten it.
	interval  time.Duration
	maxProbes int

	out map[stack.ProcessID]*outStream
	in  map[stack.ProcessID]*inStream

	// reserve is the sequence-number limit last reported through
	// Config.OnReserve: every stream's next assignment stays below it, or a
	// new block is claimed first.
	reserve uint64

	timerArmed bool
	cancelTick func()
	tr         *trace.Recorder

	// Counter cells, registered under relink.* when Config.Metrics is set
	// (standalone otherwise); Stats is a view over them.
	sequenced     *metrics.Counter
	retransmitted *metrics.Counter
	evicted       *metrics.Counter
	duplicates    *metrics.Counter
	giveUps       *metrics.Counter
	probes        *metrics.Counter
	acks          *metrics.Counter
}

// rttAlpha is the smoothing gain of the per-stream round-trip estimate (the
// classic TCP SRTT weight).
const rttAlpha = 0.125

// New wires a Link into the node: outgoing envelopes (except heartbeats and
// the link's own control traffic) are sequenced and buffered; incoming
// SeqMsg envelopes are unwrapped, deduplicated and dispatched to their
// protocol layer.
//
//abcheck:entry constructor; runs before the event loop starts
func New(node *stack.Node, cfg Config) *Link {
	if cfg.BufferCap <= 0 {
		cfg.BufferCap = DefaultBufferCap
	}
	if cfg.StartSeq == 0 {
		cfg.StartSeq = 1
	}
	l := &Link{
		node: node,
		ctx:  node.Context(),
		cfg:  cfg,
		out:  make(map[stack.ProcessID]*outStream),
		in:   make(map[stack.ProcessID]*inStream),
		tr:   cfg.Trace,

		interval:  initialInterval,
		maxProbes: maxProbes,

		sequenced:     cfg.Metrics.Counter("relink.sequenced"),
		retransmitted: cfg.Metrics.Counter("relink.retransmitted"),
		evicted:       cfg.Metrics.Counter("relink.evicted"),
		duplicates:    cfg.Metrics.Counter("relink.duplicates"),
		giveUps:       cfg.Metrics.Counter("relink.give_ups"),
		probes:        cfg.Metrics.Counter("relink.probes"),
		acks:          cfg.Metrics.Counter("relink.acks"),
	}
	l.reserve = cfg.StartSeq
	node.Register(stack.ProtoLink, stack.HandlerFunc(l.receive))
	node.SetSender(l)
	return l
}

// Stats returns a snapshot of the link counters, including the smoothed
// per-peer RTT of every outgoing stream measured so far.
func (l *Link) Stats() Stats {
	st := Stats{
		Sequenced:     l.sequenced.Value(),
		Retransmitted: l.retransmitted.Value(),
		Evicted:       l.evicted.Value(),
		Duplicates:    l.duplicates.Value(),
		GiveUps:       l.giveUps.Value(),
		Probes:        l.probes.Value(),
		Acks:          l.acks.Value(),
	}
	for q, os := range l.out {
		if os.rtt.Seen() {
			if st.RTTs == nil {
				st.RTTs = make(map[stack.ProcessID]time.Duration, len(l.out))
			}
			st.RTTs[q] = time.Duration(os.rtt.Value())
		}
	}
	return st
}

// MaxRTT returns the largest smoothed per-peer round-trip estimate, or 0
// when no stream has completed a probe→digest exchange yet. The adaptive
// control plane paces the anti-entropy cadence off it: the slowest link
// dictates how long a digest can usefully be waited for.
func (l *Link) MaxRTT() time.Duration {
	var max float64
	for _, os := range l.out {
		if os.rtt.Seen() && os.rtt.Value() > max {
			max = os.rtt.Value()
		}
	}
	return time.Duration(max)
}

// Interval returns the current anti-entropy cadence.
func (l *Link) Interval() time.Duration { return l.interval }

// SetInterval retargets the anti-entropy cadence (and with it the
// retransmission guard window) at runtime. A pending tick is re-armed at the
// new cadence, so the change takes effect on the next tick rather than after
// one more old-cadence period. Non-positive durations are ignored.
//
//abcheck:entry control-plane actuator; invoked on-loop by core.adaptTick and external controllers via Do
func (l *Link) SetInterval(d time.Duration) {
	if d <= 0 || d == l.interval {
		return
	}
	l.interval = d
	if l.timerArmed && l.cancelTick != nil {
		l.cancelTick()
		l.timerArmed = false
		l.arm()
	}
}

// Send implements stack.Sender: sequence, buffer, transmit.
//
//abcheck:entry stack.Sender seam, dispatched through the interface from every layer's on-loop sends
func (l *Link) Send(to stack.ProcessID, env stack.Envelope) {
	if env.Proto == stack.ProtoLink || env.Proto == stack.ProtoFD {
		// Control traffic and heartbeats ride raw (see the package comment).
		l.ctx.Send(to, env)
		return
	}
	os := l.outTo(to)
	os.next++
	if l.cfg.OnReserve != nil && os.next >= l.reserve {
		// Claim the next block write-ahead: the callback must make the limit
		// durable before this sequence number leaves the process.
		l.reserve = os.next + reserveSlack
		l.cfg.OnReserve(l.reserve)
	}
	m := &SeqMsg{Seq: os.next, Env: env}
	os.entries = append(os.entries, outEntry{msg: m, lastSent: l.ctx.Now()})
	os.live++
	os.unanswered = 0 // fresh traffic re-earns the probe budget
	l.sequenced.Inc()
	for os.live > l.cfg.BufferCap {
		l.evictOldest(os)
	}
	m.Low = os.base // the watermark after this send's evictions
	l.ctx.Send(to, stack.Envelope{Proto: stack.ProtoLink, Msg: m})
	l.arm()
}

// evictOldest discards the oldest unacknowledged entry and advances the
// watermark past it.
func (l *Link) evictOldest(os *outStream) {
	for i := range os.entries {
		if os.entries[i].msg != nil {
			os.entries[i].msg = nil
			os.live--
			l.evicted.Inc()
			break
		}
	}
	os.trim()
}

// trim drops settled entries from the front of the ring.
func (os *outStream) trim() {
	i := 0
	for i < len(os.entries) && os.entries[i].msg == nil {
		i++
	}
	os.entries = os.entries[i:]
	os.base += uint64(i)
}

// outTo returns (creating if needed) the outgoing stream to q.
func (l *Link) outTo(q stack.ProcessID) *outStream {
	os, ok := l.out[q]
	if !ok {
		os = &outStream{base: l.cfg.StartSeq, next: l.cfg.StartSeq - 1, rtt: stats.NewEwma(rttAlpha)}
		l.out[q] = os
	}
	return os
}

// inFrom returns (creating if needed) the incoming stream from q.
func (l *Link) inFrom(q stack.ProcessID) *inStream {
	is, ok := l.in[q]
	if !ok {
		is = &inStream{have: make(map[uint64]bool)}
		l.in[q] = is
	}
	return is
}

// receive handles link control traffic (ProtoLink).
func (l *Link) receive(from stack.ProcessID, _ uint64, m stack.Message) {
	switch mm := m.(type) {
	case *SeqMsg:
		l.onSeq(from, mm)
	case AckMsg:
		l.onAck(from, mm)
	case ProbeMsg:
		l.onProbe(from, mm)
	}
}

// onSeq accounts for one sequenced arrival and dispatches its envelope
// upward unless it is a duplicate.
func (l *Link) onSeq(from stack.ProcessID, m *SeqMsg) {
	is := l.inFrom(from)
	l.giveUpBelow(is, m.Low)
	if m.Seq <= is.cum || is.have[m.Seq] {
		l.duplicates.Inc()
		is.ackDirty = true // re-digest so the sender stops resending
		l.arm()
		return
	}
	is.have[m.Seq] = true
	is.compact()
	if len(is.have) > haveCap {
		// Bound receiver memory: declare the oldest gap lost and advance
		// over it. The layers above repair the semantic loss.
		min := uint64(0)
		for s := range is.have {
			if min == 0 || s < min {
				min = s
			}
		}
		l.giveUps.Add(int64(min - is.cum - 1))
		is.cum = min
		delete(is.have, min)
		is.compact()
	}
	is.ackDirty = true
	l.arm()
	l.node.Dispatch(from, m.Env)
}

// giveUpBelow advances the accounted prefix over sequence numbers the sender
// can no longer retransmit.
func (l *Link) giveUpBelow(is *inStream, low uint64) {
	if low == 0 || low-1 <= is.cum {
		return
	}
	for s := is.cum + 1; s < low; s++ {
		if is.have[s] {
			delete(is.have, s)
		} else {
			l.giveUps.Inc()
		}
	}
	is.cum = low - 1
	is.compact()
	is.ackDirty = true
}

// compact folds contiguous received sequence numbers into the prefix.
func (is *inStream) compact() {
	for is.have[is.cum+1] {
		delete(is.have, is.cum+1)
		is.cum++
	}
}

// onAck trims the outgoing stream to the receiver's digest and retransmits
// the gaps it reveals.
func (l *Link) onAck(from stack.ProcessID, m AckMsg) {
	os, ok := l.out[from]
	if !ok {
		return
	}
	os.unanswered = 0 // the peer is alive and digesting
	if !os.probeAt.IsZero() {
		// A digest closes the outstanding probe exchange: one RTT sample.
		os.rtt.Observe(float64(l.ctx.Now().Sub(os.probeAt)))
		os.probeAt = time.Time{}
	}
	// Settle everything the digest covers.
	for i := range os.entries {
		seq := os.base + uint64(i)
		if os.entries[i].msg != nil && seq <= m.Cum {
			os.entries[i].msg = nil
			os.live--
		}
	}
	for _, seq := range m.Have {
		if seq >= os.base {
			if i := int(seq - os.base); i < len(os.entries) && os.entries[i].msg != nil {
				os.entries[i].msg = nil
				os.live--
			}
		}
	}
	os.trim()
	// Retransmit what the receiver is provably missing: buffered, not in
	// the digest, and not (re)sent within the guard window — a digest can
	// never account for copies still in flight when it was emitted.
	now := l.ctx.Now()
	resent := 0
	for i := range os.entries {
		if resent >= burst {
			break
		}
		e := &os.entries[i]
		if e.msg == nil || now.Sub(e.lastSent) < l.interval {
			continue
		}
		e.lastSent = now
		l.retransmitted.Inc()
		l.ctx.Send(from, stack.Envelope{Proto: stack.ProtoLink, Msg: &SeqMsg{Seq: e.msg.Seq, Low: os.base, Env: e.msg.Env}})
		resent++
	}
	if resent > 0 {
		l.tr.Record(trace.Event{At: now, P: l.ctx.ID(), Kind: trace.KindRetransmit, Peer: from, N: resent})
	}
	if os.live > 0 {
		l.arm()
	}
}

// onProbe answers a sender's probe with the current digest, first taking the
// probe's extent and watermark into account.
func (l *Link) onProbe(from stack.ProcessID, m ProbeMsg) {
	is := l.inFrom(from)
	l.giveUpBelow(is, m.Low)
	// The probe reveals the stream extent; anything between our prefix and
	// Max that we do not have is a (possibly tail-loss) gap the digest
	// reports implicitly via Cum.
	l.sendAck(from, is)
}

// sendAck emits the digest for one incoming stream.
func (l *Link) sendAck(to stack.ProcessID, is *inStream) {
	have := make([]uint64, 0, len(is.have))
	for s := range is.have {
		have = append(have, s)
	}
	sort.Slice(have, func(i, j int) bool { return have[i] < have[j] })
	l.acks.Inc()
	is.ackDirty = false
	l.ctx.Send(to, stack.Envelope{Proto: stack.ProtoLink, Msg: AckMsg{Cum: is.cum, Have: have}})
	if len(is.have) > 0 {
		l.arm() // keep digesting until the gaps are repaired
	}
}

// arm schedules the next anti-entropy tick if one is not already pending.
func (l *Link) arm() {
	if l.timerArmed {
		return
	}
	l.timerArmed = true
	l.cancelTick = l.ctx.SetTimer(l.interval, l.tick)
}

// tick runs one anti-entropy round: digest every incoming stream with
// un-acknowledged progress or gaps, probe every outgoing stream with
// unsettled data. Rearms itself only while such state remains, so a
// quiescent link generates no traffic and no events.
func (l *Link) tick() {
	l.timerArmed = false
	pending := false
	// Anti-entropy covers the node's current group only: under dynamic
	// membership a retired peer will never answer another probe nor fill
	// another gap, and digesting it forever would keep the timer alive.
	// Repair of still-draining streams is sender-driven (probe → onProbe →
	// ack), which this gate does not touch.
	group := l.node.Group()
	for _, q := range group {
		if is, ok := l.in[q]; ok && (is.ackDirty || len(is.have) > 0) {
			l.sendAck(q, is)
			if len(is.have) > 0 {
				pending = true
			}
		}
	}
	for _, q := range group {
		if os, ok := l.out[q]; ok && os.live > 0 && os.unanswered < l.maxProbes {
			os.unanswered++
			if os.probeAt.IsZero() {
				os.probeAt = l.ctx.Now() // opens a probe→digest RTT exchange
			}
			l.probes.Inc()
			l.ctx.Send(q, stack.Envelope{Proto: stack.ProtoLink, Msg: ProbeMsg{Max: os.next, Low: os.base}})
			pending = true
		}
	}
	if pending {
		l.arm()
	}
}

var (
	_ stack.Message = (*SeqMsg)(nil)
	_ stack.Message = AckMsg{}
	_ stack.Message = ProbeMsg{}
	_ stack.Sender  = (*Link)(nil)
)
