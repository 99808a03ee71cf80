package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// drawInputs pulls everything a generator can emit, in a fixed order.
func drawInputs(in *inputs, count int) (senders []int, payloads [][]byte, jitters []time.Duration, seeds []int64) {
	seeds = append(seeds, in.runtimeSeed())
	for i := 0; i < count; i++ {
		senders = append(senders, in.sender(i))
		payloads = append(payloads, in.payload(i))
		if i%100 == 0 {
			jitters = append(jitters, in.crashJitter(crashJitter))
			seeds = append(seeds, in.runtimeSeed())
		}
	}
	return
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, size := range []int{64, 16 << 10} {
		s1, p1, j1, r1 := drawInputs(newInputs(7, allProcs, size), 500)
		s2, p2, j2, r2 := drawInputs(newInputs(7, allProcs, size), 500)
		if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(j1, j2) || !reflect.DeepEqual(r1, r2) {
			t.Fatalf("size %d: two generators with one seed disagree on senders, jitter or runtime seeds", size)
		}
		for i := range p1 {
			if !bytes.Equal(p1[i], p2[i]) {
				t.Fatalf("size %d: payload %d differs between two generators with one seed", size, i)
			}
			if idx, ok := payloadIndex(p1[i]); !ok || idx != i || len(p1[i]) != size {
				t.Fatalf("size %d: payload %d decodes to index %d, intact %v, length %d", size, i, idx, ok, len(p1[i]))
			}
		}
		_, p3, _, r3 := drawInputs(newInputs(8, allProcs, size), 500)
		if bytes.Equal(p1[0][payloadHeader:], p3[0][payloadHeader:]) || r1[0] == r3[0] {
			t.Fatalf("size %d: seeds 7 and 8 generate the same inputs", size)
		}
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	p := newInputs(1, allProcs, 64).payload(3)
	p[40] ^= 1
	if _, ok := payloadIndex(p); ok {
		t.Fatal("a flipped payload bit passes the checksum")
	}
	if _, ok := payloadIndex(p[:5]); ok {
		t.Fatal("a truncated payload passes the checksum")
	}
}

// What reaches the program under test is payloads, process numbers and the
// group specification. Neither the workload's name nor the benchmark's seed
// may: the specification has no field that could carry a name, the seed it
// carries is drawn from the generator, and the generator is built from the
// workload's shape alone.
func TestNoNameOrSeedReachesTheSystem(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(groupSpec{}), reflect.TypeOf(closedWork{})} {
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).Type.Kind() == reflect.String {
				t.Errorf("%s.%s is a string: a workload name could reach the system through it", typ.Name(), typ.Field(i).Name)
			}
		}
	}
	for seed := int64(0); seed < 100; seed++ {
		if got := newInputs(seed, allProcs, 64).runtimeSeed(); got == seed {
			t.Errorf("the runtime under test is handed the benchmark's own seed %d", seed)
		}
	}
	if opts := liveOptions(groupSpec{seed: 42}); opts.Seed != 42 || opts.OnDeliver != nil || opts.MetricsAddr != "" {
		t.Errorf("live options carry more than the group specification: %+v", opts)
	}
}
