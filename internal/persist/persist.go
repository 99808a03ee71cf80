// Package persist is the pluggable crash-recovery store of the atomic
// broadcast engine: a checkpoint of the engine's delivered-prefix state plus
// a tiny write-ahead log for the two monotone counters that must never move
// backwards across a restart.
//
// The split follows the classic recovery recipe. Almost all engine state is
// safe to restore *stale*: an old checkpoint merely makes the restarted
// process redeliver a longer suffix (atomic broadcast across a crash is
// at-least-once; order never changes), so checkpoints are written lazily, on
// a timer, whenever the delivered frontier advanced. Two values are the
// exception — the process's own broadcast sequence number and the relink
// stream reservation. Reusing either after a restart would let a *new*
// message alias an *old* identifier and be silently deduplicated, a Validity
// violation. Those are therefore logged write-ahead: the engine appends a
// WAL record before the value is used, and a checkpoint (which embeds the
// current values) truncates the log.
//
// Two implementations sit behind the Store interface: MemStore keeps
// everything in process memory (restart within the same OS process — the
// simulator, tests, the bench harness) and FileStore persists to a
// directory (restart across OS processes). Both are single-owner: a Store
// belongs to one engine, which calls it from its event loop only, so
// implementations need no locking.
//
// Durability model: FileStore writes through the OS page cache without
// fsync. The failure model is process crash (the paper's crash-stop turned
// crash-recovery), not host power loss; a deployment that needs
// power-loss durability can wrap FileStore with an fsyncing variant behind
// the same interface.
package persist

import (
	"fmt"
	"sort"

	"abcast/internal/msg"
	"abcast/internal/stack"
)

// Entry is one delivered-suffix record: an identifier plus the consensus
// instance that ordered it (the engine's ordRec, made public). Payloads are
// deliberately absent — the checkpoint is bookkeeping, not state transfer;
// a restarted process re-obtains payloads it still needs through the
// fetch/snapshot machinery.
type Entry struct {
	ID msg.ID
	K  uint64
}

// Floor is one per-sender contiguous delivered floor, named by the last
// identifier of the prefix: every identifier of Sender with sequence number
// ≤ Seq has been adelivered here (msg.SeenSet's exported form).
type Floor = msg.ID

// View is one applied membership view: Members is the consensus member set
// effective from instance Eff onward.
type View struct {
	Eff     uint64
	Members []stack.ProcessID
}

// Checkpoint is the engine's durable restart state: the delivered prefix in
// digest form (frontier, suffix entries, per-sender floors and the sparse
// residue above them), the applied view log, and the two monotone counters.
type Checkpoint struct {
	// Frontier is the first consensus instance not fully delivered when the
	// checkpoint was taken; a restarted engine resumes consumption there.
	Frontier uint64
	// Seq is the engine's own broadcast sequence high-water at save time
	// (WAL records may advance it further; see Apply).
	Seq uint64
	// LinkReserve is the relink sequence reservation: every stream sequence
	// number the previous incarnation ever assigned is below it.
	LinkReserve uint64
	// LogBase is the number of delivered-log entries pruned below Entries[0]
	// — the absolute delivered-sequence position the suffix starts at.
	LogBase uint64
	// Entries is the retained delivered suffix, in delivery order.
	Entries []Entry
	// Floors are the per-sender contiguous delivered floors.
	Floors []Floor
	// Residue lists delivered identifiers above their sender's floor
	// (out-of-order remainder, normally tiny).
	Residue []msg.ID
	// Views is the applied membership view log (empty for static groups).
	Views []View
}

// WALKind tags one write-ahead record.
type WALKind uint8

// The two record kinds.
const (
	// WALSeq records a broadcast sequence number the engine is about to
	// use.
	WALSeq WALKind = 1
	// WALLinkReserve records a new relink sequence reservation: the link
	// layer will assign stream sequence numbers up to (excluding) Value.
	WALLinkReserve WALKind = 2
)

// WALRecord is one write-ahead log record.
type WALRecord struct {
	Kind  WALKind
	Value uint64
}

// Store is the pluggable checkpoint/WAL store. All methods are called from
// the owning engine's event loop; implementations need no locking.
type Store interface {
	// SaveCheckpoint atomically replaces the stored checkpoint.
	SaveCheckpoint(cp *Checkpoint) error
	// LoadCheckpoint returns the stored checkpoint, or (nil, nil) when none
	// has been saved.
	LoadCheckpoint() (*Checkpoint, error)
	// AppendWAL appends one record; it must be durable (to the store's
	// durability model) before returning.
	AppendWAL(rec WALRecord) error
	// ReplayWAL invokes fn for every record appended since the last
	// truncation, in order.
	ReplayWAL(fn func(WALRecord) error) error
	// TruncateWAL discards all replayable records (called after a
	// checkpoint, which embeds their effect).
	TruncateWAL() error
	// Close releases the store. A closed store must not be used again.
	Close() error
}

// Apply folds one WAL record into the checkpoint: records only ever advance
// the monotone counters.
func (cp *Checkpoint) Apply(rec WALRecord) {
	switch rec.Kind {
	case WALSeq:
		if rec.Value > cp.Seq {
			cp.Seq = rec.Value
		}
	case WALLinkReserve:
		if rec.Value > cp.LinkReserve {
			cp.LinkReserve = rec.Value
		}
	}
}

// Recover loads the store's checkpoint and folds the WAL into it. It
// returns nil when the store holds neither a checkpoint nor WAL records —
// a fresh start. A store with WAL records but no checkpoint (the process
// crashed before its first checkpoint) yields a zero checkpoint advanced by
// the records, so the sequence counters still never move backwards.
func Recover(s Store) (*Checkpoint, error) {
	cp, err := s.LoadCheckpoint()
	if err != nil {
		return nil, fmt.Errorf("persist: load checkpoint: %w", err)
	}
	walSeen := false
	if cp == nil {
		cp = &Checkpoint{}
	}
	if err := s.ReplayWAL(func(rec WALRecord) error {
		walSeen = true
		cp.Apply(rec)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("persist: replay WAL: %w", err)
	}
	if cp.Frontier == 0 && cp.Seq == 0 && cp.LinkReserve == 0 && !walSeen &&
		len(cp.Entries) == 0 && len(cp.Views) == 0 {
		return nil, nil
	}
	return cp, nil
}

// Clone returns a deep copy (stores hand out copies so callers cannot alias
// retained state).
func (cp *Checkpoint) Clone() *Checkpoint {
	if cp == nil {
		return nil
	}
	out := *cp
	out.Entries = append([]Entry(nil), cp.Entries...)
	out.Floors = append([]Floor(nil), cp.Floors...)
	out.Residue = append([]msg.ID(nil), cp.Residue...)
	out.Views = make([]View, len(cp.Views))
	for i, v := range cp.Views {
		out.Views[i] = View{Eff: v.Eff, Members: append([]stack.ProcessID(nil), v.Members...)}
	}
	return &out
}

// normalize puts a checkpoint into canonical form before encoding: floors
// sorted by sender, residue in canonical identifier order. The engine
// builds checkpoints from map state, so canonicalization is what keeps the
// stored bytes deterministic under a fixed simulation seed.
func (cp *Checkpoint) normalize() {
	sort.Slice(cp.Floors, func(i, j int) bool { return cp.Floors[i].Sender < cp.Floors[j].Sender })
	sort.Slice(cp.Residue, func(i, j int) bool { return cp.Residue[i].Less(cp.Residue[j]) })
}
