package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// delivery is one adelivery as the harness saw it.
type delivery struct {
	at     int64 // ns since recorder.base
	seq    uint64
	idx    uint32
	sender uint32
}

// recorder collects what one group of processes delivered. logs[p] and
// corrupt[p] have a single writer each — process p's collector — and
// submitAt has one, the load generator; the oracle and the metrics read
// them only after every writer has stopped.
type recorder struct {
	base    time.Time
	in      *inputs
	logs    [][]delivery // index 0 unused
	corrupt []int        // payloads whose checksum failed, per process
	seen    [][]uint64   // per process: bitset of message indices delivered
	// distinct[p] counts the different messages p has adelivered so far; the
	// only recorder state read while the collectors run.
	distinct []atomic.Int64
	submitAt []int64 // per message index: submitted (closed loop) or due (open loop), ns since base
	// footprint is the heap, in bytes, the logs were given at creation; the
	// heap probes subtract it (growth past capHint is not tracked).
	footprint float64
	// done gets one token per message adelivered at the process that
	// submitted it — the closed loop's "reply". Nil on an open loop.
	done chan struct{}
}

// newRecorder sizes the logs for capHint messages so that appends do not
// copy megabytes inside an event loop mid-measurement; they still grow if
// the hint is exceeded.
func newRecorder(in *inputs, n, capHint, clients int) *recorder {
	r := &recorder{
		base:     time.Now(),
		in:       in,
		logs:     make([][]delivery, n+1),
		corrupt:  make([]int, n+1),
		seen:     make([][]uint64, n+1),
		distinct: make([]atomic.Int64, n+1),
		submitAt: make([]int64, 0, capHint),
	}
	r.footprint = float64(capHint*8 + n*(capHint*24+(capHint/64+1)*8))
	for p := 1; p <= n; p++ {
		r.logs[p] = make([]delivery, 0, capHint)
		r.seen[p] = make([]uint64, 0, capHint/64+1)
	}
	if clients > 0 {
		// At most `clients` messages are outstanding, so a send never blocks.
		r.done = make(chan struct{}, clients)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// deliver records one adelivery at process p. Called only by p's collector.
func (r *recorder) deliver(p, sender int, seq uint64, payload []byte) {
	at := r.now()
	idx, ok := payloadIndex(payload)
	if !ok {
		r.corrupt[p]++
		return
	}
	r.logs[p] = append(r.logs[p], delivery{at: at, seq: seq, idx: uint32(idx), sender: uint32(sender)})
	for len(r.seen[p]) <= idx/64 {
		r.seen[p] = append(r.seen[p], 0)
	}
	if bit := uint64(1) << (idx % 64); r.seen[p][idx/64]&bit == 0 {
		r.seen[p][idx/64] |= bit
		r.distinct[p].Add(1)
	}
	if r.done != nil && sender == p {
		r.done <- struct{}{}
	}
}

// waitAll waits until each of procs has adelivered want different messages,
// for at most limit; it reports whether they all did.
func (r *recorder) waitAll(procs []int, want int, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for {
		ok := true
		for _, p := range procs {
			ok = ok && int(r.distinct[p].Load()) >= want
		}
		if ok || time.Now().After(deadline) {
			return ok
		}
		time.Sleep(time.Millisecond)
	}
}

// verdict is the oracle's result for one group.
type verdict struct {
	attempted int
	failed    int    // submitted messages not adelivered at every process
	violation string // non-empty: the run is incorrect
	// at[p][idx] is when p first adelivered message idx (0 = never);
	// index 0 unused.
	at [][]int64
	// seqs[idx] is the sequence number the system gave message idx, for
	// joining the trace to the harness's own timestamps.
	seqs []uint64
}

// check is the correctness oracle. It verifies, over the complete logs:
// every payload intact; every delivered message one the generator submitted,
// from the process it was submitted at; exactly-once delivery per process
// and per (Sender, Seq); and pairwise identical delivery sequences on the
// full common prefix. restartedAt[p] > 0 says p was restarted at that instant
// (ns since base): from then on p may redeliver messages it had already
// delivered — the documented at-least-once rule of Cluster.Restart — but
// only in their original order; the redeliveries are dropped before the
// sequences are compared.
func (r *recorder) check(restartedAt []int64) verdict {
	n := len(r.logs) - 1
	submitted := len(r.submitAt)
	v := verdict{attempted: submitted, at: make([][]int64, n+1), seqs: make([]uint64, submitted)}
	fail := func(format string, args ...any) verdict {
		v.violation = fmt.Sprintf(format, args...)
		return v
	}
	orders := make([][]uint32, n+1)
	for p := 1; p <= n; p++ {
		if r.corrupt[p] > 0 {
			return fail("p%d: %d payloads failed their checksum", p, r.corrupt[p])
		}
		v.at[p] = make([]int64, submitted)
		pos := make([]int, submitted) // 1-based position of idx in p's sequence
		order := make([]uint32, 0, len(r.logs[p]))
		lastRedelivered := 0
		for i, d := range r.logs[p] {
			idx := int(d.idx)
			if idx >= submitted {
				return fail("p%d: delivery %d carries index %d, never submitted", p, i, idx)
			}
			if want := r.in.sender(idx); int(d.sender) != want {
				return fail("p%d: message %d delivered as from p%d, submitted at p%d", p, idx, d.sender, want)
			}
			if v.seqs[idx] == 0 { // the engines number from 1
				v.seqs[idx] = d.seq
			}
			if v.seqs[idx] != d.seq {
				return fail("p%d: message %d has seq %d, seq %d elsewhere", p, idx, d.seq, v.seqs[idx])
			}
			if pos[idx] != 0 {
				restart := int64(0)
				if restartedAt != nil {
					restart = restartedAt[p]
				}
				if restart == 0 || d.at < restart {
					return fail("p%d: message %d delivered twice (positions %d and %d)", p, idx, pos[idx]-1, i)
				}
				if pos[idx] <= lastRedelivered {
					return fail("p%d: redelivery after restart out of order at log position %d", p, i)
				}
				lastRedelivered = pos[idx]
				continue
			}
			order = append(order, d.idx)
			pos[idx] = len(order)
			v.at[p][idx] = d.at
		}
		orders[p] = order
	}
	for p := 1; p <= n; p++ {
		for q := p + 1; q <= n; q++ {
			a, b := orders[p], orders[q]
			for i := 0; i < len(a) && i < len(b); i++ {
				if a[i] != b[i] {
					return fail("total order violated: position %d is message %d at p%d, message %d at p%d", i, a[i], p, b[i], q)
				}
			}
		}
	}
	// (Sender, Seq) exactly once: the index ↔ seq map is consistent across
	// processes (above), so it remains to show no two indices share an id.
	bySender := make([][]uint64, n+1)
	for idx, seq := range v.seqs {
		if seq != 0 {
			s := r.in.sender(idx)
			bySender[s] = append(bySender[s], seq)
		}
	}
	for s, seqs := range bySender {
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for i := 1; i < len(seqs); i++ {
			if seqs[i] == seqs[i-1] {
				return fail("two messages share id %d:%d", s, seqs[i])
			}
		}
	}
	for idx := 0; idx < submitted; idx++ {
		for p := 1; p <= n; p++ {
			if v.at[p][idx] == 0 {
				v.failed++
				break
			}
		}
	}
	return v
}
