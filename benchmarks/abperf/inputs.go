package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"time"
)

// Everything the benchmark feeds the system comes from here, and everything
// here comes from the seed: payload bytes, which process submits which
// message, and the crash instants. The program under test never sees the
// seed's origin or a workload name — only payloads, process numbers and
// (as its own tie-breaking seed) the number returned by runtimeSeed.

// payloadHeader is index (8 bytes) + CRC-32C of index and body (4 bytes).
const payloadHeader = 12

// poolBytes is the size of the random pool payload bodies are cut from.
// Filling every 16 KiB payload from the generator would cost more CPU than
// the system spends ordering it; a seeded offset into a seeded pool keeps
// the bytes a function of the seed at the price of one copy.
const poolBytes = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// inputs is one seeded input stream.
type inputs struct {
	rng      *rand.Rand
	pool     []byte
	size     int   // payload size in bytes, header included
	rotation []int // seeded order of the submitting processes; message i is submitted by rotation[i%len]
}

// newInputs makes the stream for messages of size bytes submitted in turn at
// the given processes.
func newInputs(seed int64, senders []int, size int) *inputs {
	if size < payloadHeader {
		size = payloadHeader
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{rng: rng, pool: make([]byte, poolBytes), size: size}
	rng.Read(in.pool)
	for _, i := range rng.Perm(len(senders)) {
		in.rotation = append(in.rotation, senders[i])
	}
	return in
}

// sender is the process that submits message idx.
func (in *inputs) sender(idx int) int { return in.rotation[idx%len(in.rotation)] }

// payload builds message idx: a fresh buffer the system may retain.
func (in *inputs) payload(idx int) []byte {
	buf := make([]byte, in.size)
	binary.LittleEndian.PutUint64(buf, uint64(idx))
	body := in.size - payloadHeader
	off := in.rng.Intn(len(in.pool) - body + 1)
	copy(buf[payloadHeader:], in.pool[off:off+body])
	binary.LittleEndian.PutUint32(buf[8:], payloadSum(buf))
	return buf
}

// crashJitter is a seeded offset in [0, span) added to a crash instant so
// that episodes do not all hit the same point of the protocol's timers.
func (in *inputs) crashJitter(span time.Duration) time.Duration {
	return time.Duration(in.rng.Int63n(int64(span)))
}

// runtimeSeed is the tie-breaking seed handed to the runtime under test
// (tcpnet.WithSeed, abcast.Options.Seed).
func (in *inputs) runtimeSeed() int64 { return in.rng.Int63() }

func payloadSum(buf []byte) uint32 {
	sum := crc32.Update(0, castagnoli, buf[:8])
	return crc32.Update(sum, castagnoli, buf[payloadHeader:])
}

// payloadIndex returns the message index a delivered payload carries and
// whether its checksum holds.
func payloadIndex(buf []byte) (idx int, ok bool) {
	if len(buf) < payloadHeader {
		return 0, false
	}
	idx = int(binary.LittleEndian.Uint64(buf))
	return idx, binary.LittleEndian.Uint32(buf[8:]) == payloadSum(buf)
}
