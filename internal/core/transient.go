package core

// Transient-fault injection (tests only).
//
// SSABC-style self-stabilization work asks what happens when a process's
// *volatile* protocol state is scrambled by a transient fault — a bit flip,
// a bug, a partial restart — while the process itself keeps running. The
// engine's recovery machinery (decision relay, payload fetch, snapshot
// transfer) was built for processes that fell behind; CorruptVolatile lets
// the property tests in abcast_test prove the same machinery re-converges a
// process whose queues around kNext were wiped outright, provided ordering
// activity continues: the next decision that reaches the victim lands in its
// pending set above the hole, needsSync fires, and the standard
// relay/fetch/snapshot chain rebuilds everything below.

// CorruptVolatile simulates a transient fault at this process: every
// volatile queue adjacent to the consumption frontier kNext is dropped —
// received payloads not yet delivered, the unordered pool, the
// ordered-but-undelivered queue, outstanding proposal bookkeeping, buffered
// decisions, and the consensus layer's settled-instance memory at/after
// kNext (without which relayed decisions would be swallowed as duplicates
// and the hole could never refill). The durable facts survive untouched:
// kNext itself, the delivered set and log, and the sender sequence number
// (reusing sequence numbers would forge duplicate identifiers, which no
// recovery machinery could ever repair).
//
// Sim/test hook only: it is not part of the public API surface and is never
// called by the engine itself.
//
//abcheck:entry test hook; tests invoke it on the owning event loop (simnet.World.Do)
func (e *Engine) CorruptVolatile() {
	// Payloads that were received but not yet delivered vanish with the
	// unordered pool, the ordered queue, the claims and the fetch list; the
	// delivered prefix stays.
	e.msgs.corruptVolatile()

	// Proposal and consumption bookkeeping around kNext.
	clear(e.inFlight)
	clear(e.needed)
	clear(e.pending)

	// The consensus layer's memory of settled instances at/after kNext must
	// go with the queues: its decide-path dedup would otherwise drop the
	// relayed decisions that are the only way to refill pending.
	e.cons.ForgetDecided(e.kNext)

	// An in-progress snapshot transfer is volatile too.
	e.resetTransfer()
}
