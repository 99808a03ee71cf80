// Package trace records deterministic lifecycle spans for atomically
// broadcast messages: abroadcast → first diffusion receipt → consensus
// propose → decide → ordered-queue entry → adeliver, plus the recovery
// events (retransmission, payload fetch, re-diffusion, snapshot install,
// restart rehydration) that repair a run after loss.
//
// Every event is stamped with the recording process's clock via the
// existing stack.Context.Now() — on the simulator that is virtual time, so
// a trace is byte-reproducible under a seed and records nothing the
// abcheck walltime analyzer objects to. The recorder is off by default:
// layers hold a possibly-nil *Recorder, and a disabled trace costs one
// pointer test per hook point on the hot path. Record on a nil receiver
// returns immediately without allocating — but its argument is evaluated
// first, and on the wall-clock runtimes the At stamp is a clock reading, so
// a hook tests the recorder before it builds the event: core's hooks all go
// through Engine.record, which stamps At and P only when Enabled; relink's
// one hook reuses an instant its retransmission loop needs anyway.
//
// Traces export as JSONL (one event per line, fixed field order, byte-
// stable across identical runs) and as Chrome trace_event JSON, which
// opens directly in chrome://tracing or Perfetto.
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"

	"abcast/internal/msg"
	"abcast/internal/stack"
)

// Kind classifies a lifecycle event.
type Kind uint8

// The span taxonomy. The first six kinds are the delivery path of
// Algorithm 1, in causal order; the rest are recovery-path events.
const (
	// KindABroadcast: the message enters the system (Engine.ABroadcast).
	KindABroadcast Kind = iota + 1
	// KindReceive: first receipt of the payload at a process — via
	// diffusion, fetch supply, a message-set decision, or a snapshot
	// chunk. Duplicates are not recorded.
	KindReceive
	// KindPropose: the process proposes a batch to consensus instance K
	// (N = batch size; ID is zero — the batch is the subject).
	KindPropose
	// KindDecide: the process learns instance K's decision (N = ids
	// decided).
	KindDecide
	// KindOrdered: an identifier enters the ordered queue at a process,
	// with K the deciding instance.
	KindOrdered
	// KindADeliver: the identifier is adelivered at the process. Across a
	// restart the suffix above the checkpoint is redelivered, so a
	// (message, process) pair may carry more than one ADeliver event.
	KindADeliver
	// KindRetransmit: the reliable link retransmitted unacknowledged
	// envelopes to Peer (N = envelopes; link-level, so ID is zero).
	KindRetransmit
	// KindFetch: the engine requested N missing payloads from Peer.
	KindFetch
	// KindRediffuse: the process re-R-broadcast a stranded unordered
	// message.
	KindRediffuse
	// KindSnapInstall: a snapshot transfer installed N delivered-prefix
	// entries, advancing the process to serial K.
	KindSnapInstall
	// KindRestart: a restarted incarnation rehydrated from its store
	// (K = checkpoint frontier, N = delivered entries restored).
	KindRestart
)

// String returns the stable identifier used in both export formats.
func (k Kind) String() string {
	switch k {
	case KindABroadcast:
		return "abroadcast"
	case KindReceive:
		return "receive"
	case KindPropose:
		return "propose"
	case KindDecide:
		return "decide"
	case KindOrdered:
		return "ordered"
	case KindADeliver:
		return "adeliver"
	case KindRetransmit:
		return "retransmit"
	case KindFetch:
		return "fetch"
	case KindRediffuse:
		return "rediffuse"
	case KindSnapInstall:
		return "snap-install"
	case KindRestart:
		return "restart"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded lifecycle event. Zero-valued fields are meaningful
// ("no subject message", "no counterpart") and are exported as zeros, so
// the wire shape never depends on which fields a kind happens to use.
type Event struct {
	// At is the recording process's clock (virtual time on the simulator).
	At time.Time
	// P is the process the event happened on.
	P stack.ProcessID
	// Kind classifies the event.
	Kind Kind
	// ID is the subject message, when the event concerns one.
	ID msg.ID
	// K is the consensus instance / ordering serial, when applicable.
	K uint64
	// Peer is the counterpart process (fetch target, retransmission
	// destination, snapshot producer), when applicable.
	Peer stack.ProcessID
	// N is the kind-specific count (batch size, envelopes, entries).
	N int
}

// Recorder accumulates events in arrival order. A nil *Recorder is the
// disabled state: Record returns immediately and allocates nothing, so
// layers wire a possibly-nil recorder through unconditionally.
//
// On the simulator all processes share one event loop, so arrival order —
// and therefore every export — is deterministic under the seed. On the
// live runtime processes are goroutines and the mutex makes recording
// safe; arrival order is then whatever the scheduler produced.
type Recorder struct {
	mu  sync.Mutex
	evs []Event
}

// New returns an enabled recorder.
func New() *Recorder { return &Recorder{} }

// Record appends one event. Safe (and free) on a nil recorder.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

// Enabled reports whether events are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.evs)
}

// Events returns a copy of the recorded events, in arrival order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.evs))
	copy(out, r.evs)
	return out
}

// base returns the first event's timestamp; exported timestamps are
// relative to it, so a trace is byte-stable regardless of the runtime's
// epoch (the simulator's virtual zero or the live runtime's wall clock).
func base(evs []Event) time.Time {
	if len(evs) == 0 {
		return time.Time{}
	}
	return evs[0].At
}

// WriteJSONL writes one JSON object per event with a fixed field order:
// t_ns (nanoseconds since the trace's first event), p, kind, id, k, peer,
// n. Identical runs produce identical bytes.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	evs := r.Events()
	b := base(evs)
	for _, ev := range evs {
		_, err := fmt.Fprintf(w,
			"{\"t_ns\":%d,\"p\":%d,\"kind\":%q,\"id\":\"%d:%d\",\"k\":%d,\"peer\":%d,\"n\":%d}\n",
			ev.At.Sub(b).Nanoseconds(), ev.P, ev.Kind.String(),
			ev.ID.Sender, ev.ID.Seq, ev.K, ev.Peer, ev.N)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteChrome writes the trace in Chrome trace_event format (the JSON
// object form), one instant event per recorded event with pid 0 and the
// process id as tid, plus thread-name metadata so chrome://tracing and
// Perfetto label each row "p<i>". Timestamps are microseconds since the
// trace's first event.
func (r *Recorder) WriteChrome(w io.Writer) error {
	evs := r.Events()
	b := base(evs)
	procs := map[stack.ProcessID]bool{}
	for _, ev := range evs {
		procs[ev.P] = true
	}
	maxP := stack.ProcessID(0)
	for p := range procs {
		if p > maxP {
			maxP = p
		}
	}
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	// Thread metadata first, in process order (not map order).
	for p := stack.ProcessID(1); p <= maxP; p++ {
		if !procs[p] {
			continue
		}
		if err := emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"p%d\"}}", p, p); err != nil {
			return err
		}
	}
	for _, ev := range evs {
		us := float64(ev.At.Sub(b).Nanoseconds()) / 1e3
		if err := emit(
			"{\"name\":%q,\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"id\":\"%d:%d\",\"k\":%d,\"peer\":%d,\"n\":%d}}",
			ev.Kind.String(), us, ev.P,
			ev.ID.Sender, ev.ID.Seq, ev.K, ev.Peer, ev.N); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}
