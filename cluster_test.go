package abcast

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"abcast/internal/check"
	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/stack"
)

func stacks() []Stack {
	return []Stack{IndirectCT, IndirectMR, ConsensusOnMessages, ConsensusWithURB}
}

// checkHistory hands per-process delivery sequences (index 0 unused) to the
// history oracle, one incarnation each: every process must have delivered
// every message in sent, and nothing else, once each and in one order.
func checkHistory(t *testing.T, seqs [][]Delivery, sent []msg.ID) {
	t.Helper()
	h := check.History{Logs: make([][][]msg.ID, len(seqs)), Broadcast: sent}
	var all []stack.ProcessID
	for p := 1; p < len(seqs); p++ {
		log := make([]msg.ID, len(seqs[p]))
		for i, d := range seqs[p] {
			log[i] = msg.ID{Sender: stack.ProcessID(d.Sender), Seq: d.Seq}
		}
		h.Logs[p] = [][]msg.ID{log}
		all = append(all, stack.ProcessID(p))
	}
	if err := check.Complete(h, all); err != nil {
		t.Fatal(err)
	}
}

// sentBy lists the identifiers of broadcasts from..to of each sender: a
// Cluster numbers each process's broadcasts 1, 2, ...
func sentBy(from, to int, senders ...int) []msg.ID {
	var ids []msg.ID
	for _, p := range senders {
		for seq := from; seq <= to; seq++ {
			ids = append(ids, msg.ID{Sender: stack.ProcessID(p), Seq: uint64(seq)})
		}
	}
	return ids
}

// collect drains exactly count deliveries from process p.
func collect(t *testing.T, c *Cluster, p, count int) []Delivery {
	t.Helper()
	out := make([]Delivery, 0, count)
	for len(out) < count {
		d, ok := c.Next(p, 10*time.Second)
		if !ok {
			t.Fatalf("p%d: timed out after %d/%d deliveries", p, len(out), count)
		}
		out = append(out, d)
	}
	return out
}

func TestClusterTotalOrderLive(t *testing.T) {
	diffusions := []struct {
		name string
		d    Diffusion
	}{{"eager", DiffusionEager}, {"lazy", DiffusionLazy}}
	for _, s := range stacks() {
		t.Run(s.String(), func(t *testing.T) {
			for _, df := range diffusions {
				t.Run(df.name, func(t *testing.T) {
					c, err := New(3, Options{Stack: s, Diffusion: df.d, Latency: 100 * time.Microsecond})
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					const perProc = 5
					for p := 1; p <= 3; p++ {
						for i := 0; i < perProc; i++ {
							if err := c.Broadcast(p, []byte(fmt.Sprintf("m%d-%d", p, i))); err != nil {
								t.Fatal(err)
							}
						}
					}
					total := 3 * perProc
					seqs := make([][]Delivery, 4)
					for p := 1; p <= 3; p++ {
						seqs[p] = collect(t, c, p, total)
					}
					checkHistory(t, seqs, sentBy(1, perProc, 1, 2, 3))
				})
			}
		})
	}
}

func TestClusterPayloadIntegrity(t *testing.T) {
	c, err := New(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := []byte("mutate-me")
	if err := c.Broadcast(1, payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X' // caller reuse must not corrupt the broadcast
	d, ok := c.Next(2, 10*time.Second)
	if !ok {
		t.Fatal("no delivery")
	}
	if string(d.Payload) != "mutate-me" {
		t.Fatalf("payload corrupted: %q", d.Payload)
	}
	if d.Sender != 1 || d.Seq != 1 {
		t.Fatalf("delivery id = %d:%d", d.Sender, d.Seq)
	}
}

// TestClusterNextAfterClose pins the delivery queues' shutdown choice: what
// was adelivered before Close stays readable, and once it is drained Next
// reports false at once instead of sitting out its timeout.
func TestClusterNextAfterClose(t *testing.T) {
	queued := make(chan struct{}, 1)
	c, err := New(3, Options{OnDeliver: func(p int, _ Delivery) {
		if p == 2 {
			queued <- struct{}{} // runs after the delivery is queued
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Broadcast(1, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-queued:
	case <-time.After(10 * time.Second):
		t.Fatal("p2 never delivered")
	}
	c.Close()
	if d, ok := c.Next(2, time.Minute); !ok || string(d.Payload) != "kept" {
		t.Fatalf("delivery queued before Close lost: %q, %v", d.Payload, ok)
	}
	start := time.Now()
	if _, ok := c.Next(2, time.Minute); ok {
		t.Fatal("delivery out of a closed, drained queue")
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("Next on a closed cluster blocked for %v", waited)
	}
}

func TestClusterCrashTolerance(t *testing.T) {
	c, err := New(3, Options{Stack: IndirectCT})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Broadcast(1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3} {
		if d, ok := c.Next(p, 10*time.Second); !ok || string(d.Payload) != "before" {
			t.Fatalf("p%d missing pre-crash delivery", p)
		}
	}
	c.Crash(2)
	if err := c.Broadcast(3, []byte("after")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3} {
		if d, ok := c.Next(p, 15*time.Second); !ok || string(d.Payload) != "after" {
			t.Fatalf("p%d did not deliver post-crash broadcast", p)
		}
	}
}

func TestClusterOnDeliverCallback(t *testing.T) {
	var mu sync.Mutex
	got := map[int]int{}
	c, err := New(3, Options{OnDeliver: func(p int, d Delivery) {
		mu.Lock()
		got[p]++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Broadcast(2, []byte("cb")); err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 3; p++ {
		collect(t, c, p, 1)
	}
	mu.Lock()
	defer mu.Unlock()
	for p := 1; p <= 3; p++ {
		if got[p] != 1 {
			t.Fatalf("OnDeliver fired %d times at p%d", got[p], p)
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(0, Options{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := New(3, Options{Stack: Stack(42)}); err == nil {
		t.Error("bogus stack accepted")
	}
	c, err := New(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Broadcast(2, nil); err == nil {
		t.Error("out-of-range process accepted")
	}
	if _, ok := c.Next(9, time.Millisecond); ok {
		t.Error("Next on bogus process succeeded")
	}
}

func TestClusterSingleProcess(t *testing.T) {
	c, err := New(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Broadcast(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ds := collect(t, c, 1, 3)
	for i, d := range ds {
		if d.Seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d", i, d.Seq)
		}
	}
}

func TestNextTimeout(t *testing.T) {
	c, err := New(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, ok := c.Next(1, 50*time.Millisecond); ok {
		t.Fatal("delivery out of nowhere")
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("Next returned before its timeout")
	}
}

// TestNextWithDeliveryWaitingAllocatesNothing: a waiting delivery is taken
// with one lock — no timer is made for a wait that does not happen.
func TestNextWithDeliveryWaitingAllocatesNothing(t *testing.T) {
	c, err := New(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const runs = 100
	for i := 0; i <= runs; i++ { // AllocsPerRun makes one warm-up call
		if err := c.Broadcast(1, []byte("n")); err != nil {
			t.Fatal(err)
		}
	}
	for {
		st, ok := c.Stats(1, 5*time.Second)
		if !ok {
			t.Fatal("Stats timed out")
		}
		if st.Delivered == runs+1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	missed := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, ok := c.Next(1, 5*time.Second); !ok {
			missed++
		}
	})
	if missed != 0 || allocs != 0 {
		t.Fatalf("Next with a delivery waiting: %v allocs per call, %d calls came back empty", allocs, missed)
	}
}

// TestNextWaitingAllocatesNothing: a Next that has to wait borrows a timer
// instead of making one (the parent made one per call).
func TestNextWaitingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops timers put back, so Next makes some")
	}
	c, err := New(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	delivered := 0
	allocs := testing.AllocsPerRun(50, func() {
		if _, ok := c.Next(1, time.Millisecond); ok {
			delivered++
		}
	})
	if delivered != 0 || allocs != 0 {
		t.Fatalf("Next on an empty queue: %v allocs per call, %d deliveries out of nowhere", allocs, delivered)
	}
}

// TestNextTimersRace: consumers waiting out short deadlines and woken by
// deliveries reuse the timers Next pools — four consumers, two of them on
// p1, hand them back and forth. A timer put back still running, or with a
// stale expiry, would end a later wait early: no wait may end before
// its deadline, p1's two consumers together must see every delivery once,
// and p2 and p3 the same sequence. Meant for -race.
func TestNextTimersRace(t *testing.T) {
	const n, count = 3, 300
	c, err := New(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		got = make([][]Delivery, n+1)
	)
	consume := func(p int) {
		defer wg.Done()
		for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
			mu.Lock()
			done := len(got[p]) == count
			mu.Unlock()
			if done {
				return
			}
			start := time.Now()
			d, ok := c.Next(p, 200*time.Microsecond)
			if !ok {
				if waited := time.Since(start); waited < 200*time.Microsecond {
					t.Errorf("p%d: Next gave up after %v, before its deadline", p, waited)
					return
				}
				continue
			}
			mu.Lock()
			got[p] = append(got[p], d)
			mu.Unlock()
		}
	}
	for _, p := range []int{1, 1, 2, 3} {
		wg.Add(1)
		go consume(p)
	}
	for i := 0; i < count; i++ {
		if err := c.Broadcast(1+i%n, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			time.Sleep(time.Millisecond) // let the consumers run dry and wait
		}
	}
	wg.Wait()
	seen := map[[2]uint64]bool{}
	for _, d := range got[1] {
		seen[[2]uint64{uint64(d.Sender), d.Seq}] = true
	}
	if len(got[1]) != count || len(seen) != count {
		t.Fatalf("p1's consumers took %d deliveries, %d distinct, want %d", len(got[1]), len(seen), count)
	}
	if len(got[2]) != count || len(got[3]) != count {
		t.Fatalf("p2 consumed %d, p3 %d of %d deliveries", len(got[2]), len(got[3]), count)
	}
	for i, d := range got[3] {
		if w := got[2][i]; d.Sender != w.Sender || d.Seq != w.Seq || string(d.Payload) != string(w.Payload) {
			t.Fatalf("p3 delivery %d = %+v, p2's = %+v", i, d, w)
		}
	}
}

func TestClusterStats(t *testing.T) {
	c, err := New(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Broadcast(1, []byte("s")); err != nil {
		t.Fatal(err)
	}
	collect(t, c, 2, 1)
	st, ok := c.Stats(2, 5*time.Second)
	if !ok {
		t.Fatal("Stats timed out")
	}
	// Received counts payloads held, and the default configuration holds
	// none past delivery.
	if st.Delivered != 1 || st.Received != 0 || st.Instances == 0 {
		t.Fatalf("Stats = %+v", st)
	}
	if _, ok := c.Stats(99, time.Millisecond); ok {
		t.Fatal("Stats accepted bogus process")
	}
	c.Crash(3)
	if _, ok := c.Stats(3, 100*time.Millisecond); ok {
		t.Fatal("Stats of crashed process succeeded")
	}
}

// TestBroadcastOnCrashedProcess is the regression test for the silent-drop
// bug: Broadcast on a crashed process used to enqueue a closure that never
// ran and report success; it must fail instead. Stats likewise must fail
// fast rather than waiting out its timeout.
func TestBroadcastOnCrashedProcess(t *testing.T) {
	c, err := New(3, Options{Stack: IndirectCT})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Broadcast(2, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 3; p++ {
		collect(t, c, p, 1)
	}
	c.Crash(2)
	if err := c.Broadcast(2, []byte("lost")); err == nil {
		t.Fatal("Broadcast from a crashed process reported success")
	}
	start := time.Now()
	if _, ok := c.Stats(2, 10*time.Second); ok {
		t.Fatal("Stats of a crashed process succeeded")
	}
	if time.Since(start) > time.Second {
		t.Fatal("Stats of a crashed process waited for the timeout instead of failing fast")
	}
	// The survivors are unaffected.
	if err := c.Broadcast(1, []byte("post")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3} {
		if d, ok := c.Next(p, 15*time.Second); !ok || string(d.Payload) != "post" {
			t.Fatalf("p%d missing post-crash delivery", p)
		}
	}
}

// TestClusterPipelinedTotalOrder runs the public API with the pipeline knob
// on: order and payload integrity must be as with the serial default.
func TestClusterPipelinedTotalOrder(t *testing.T) {
	c, err := New(3, Options{
		Stack:    IndirectCT,
		Pipeline: 4,
		MaxBatch: 2,
		Latency:  100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const perProc = 8
	for p := 1; p <= 3; p++ {
		for i := 0; i < perProc; i++ {
			if err := c.Broadcast(p, []byte(fmt.Sprintf("m%d-%d", p, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := 3 * perProc
	seqs := make([][]Delivery, 4)
	for p := 1; p <= 3; p++ {
		seqs[p] = collect(t, c, p, total)
	}
	checkHistory(t, seqs, sentBy(1, perProc, 1, 2, 3))
}

// TestClusterAdaptiveTotalOrder: the adaptive control plane on the live
// (goroutine) runtime — a burst far above the serial ceiling must still be
// delivered everywhere in one total order while the controller retargets
// width and batch underneath, and Stats must expose the applied knobs.
func TestClusterAdaptiveTotalOrder(t *testing.T) {
	c, err := New(3, Options{
		Stack:    IndirectCT,
		Adaptive: true,
		Latency:  200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const perProc = 40
	for i := 0; i < perProc; i++ {
		for p := 1; p <= 3; p++ {
			if err := c.Broadcast(p, []byte(fmt.Sprintf("m%d-%d", p, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := 3 * perProc
	seqs := make([][]Delivery, 4)
	for p := 1; p <= 3; p++ {
		seqs[p] = collect(t, c, p, total)
	}
	checkHistory(t, seqs, sentBy(1, perProc, 1, 2, 3))
	st, ok := c.Stats(1, 5*time.Second)
	if !ok {
		t.Fatal("stats unavailable")
	}
	if st.Window < 1 || st.MaxBatch < 1 {
		t.Fatalf("adaptive knobs not surfaced: %+v", st)
	}
}

func TestStackStrings(t *testing.T) {
	for _, s := range append(stacks(), FaultyConsensusOnIDs) {
		if s.String() == "" || s.String()[0] == 'S' {
			t.Fatalf("missing String for %d", int(s))
		}
	}
}

// TestClusterWANTopology runs the live cluster on the 3-site WAN topology:
// deliveries must still be totally ordered, and a delivery cannot beat one
// inter-site crossing of wall-clock time (the topology's slow links are
// real sleeps on the live runtime).
func TestClusterWANTopology(t *testing.T) {
	// Scale the WAN profile down 10x so the test stays fast while keeping
	// the inter-site asymmetry.
	topo := netmodel.WAN3Sites().Topology
	for i := range topo.SiteLink {
		for j := range topo.SiteLink[i] {
			topo.SiteLink[i][j].Latency /= 10
			topo.SiteLink[i][j].Jitter /= 10
		}
	}
	c, err := New(3, Options{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Broadcast(1, []byte("geo")); err != nil {
		t.Fatal(err)
	}
	minCrossing := topo.SiteLink[0][1].Latency // the fastest inter-site link
	orders := make([][]Delivery, 4)
	for p := 1; p <= 3; p++ {
		d, ok := c.Next(p, 30*time.Second)
		if !ok {
			t.Fatalf("p%d: no delivery on the WAN topology", p)
		}
		if d.Sender != 1 || string(d.Payload) != "geo" {
			t.Fatalf("p%d delivered %+v", p, d)
		}
		orders[p] = []Delivery{d}
	}
	if elapsed := time.Since(start); elapsed < minCrossing {
		t.Fatalf("WAN delivery completed in %v, below one inter-site crossing %v: topology latencies not applied",
			elapsed, minCrossing)
	}
	// A second round still totally ordered across sites.
	for p := 1; p <= 3; p++ {
		if err := c.Broadcast(p, []byte(fmt.Sprintf("r2-%d", p))); err != nil {
			t.Fatal(err)
		}
	}
	for p := 1; p <= 3; p++ {
		orders[p] = append(orders[p], collect(t, c, p, 3)...)
	}
	checkHistory(t, orders, append(sentBy(1, 2, 1), sentBy(1, 1, 2, 3)...))
}

// collectDistinct drains deliveries from p until count messages not yet in
// seen have arrived, deduplicating by (Sender, Seq) — the consumer contract
// across a restart is at-least-once, and the caller keeps seen across calls
// because a restarted process redelivers the suffix above its checkpoint.
// Returns the new messages in first-delivery order.
func collectDistinct(t *testing.T, c *Cluster, p, count int, seen map[[2]uint64]bool) []Delivery {
	t.Helper()
	out := make([]Delivery, 0, count)
	deadline := time.Now().Add(60 * time.Second)
	for len(out) < count {
		d, ok := c.Next(p, time.Until(deadline))
		if !ok {
			t.Fatalf("p%d: timed out after %d/%d distinct deliveries", p, len(out), count)
		}
		k := [2]uint64{uint64(d.Sender), d.Seq}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	return out
}

// testClusterRestart drives the public crash-recovery surface end to end:
// traffic before the crash, traffic while p3 is down, a restart that
// rehydrates from the store, and — the aliasing check — a post-restart
// broadcast from the restarted process that must carry a fresh sequence
// number and deliver everywhere. Every process's deduplicated delivery
// sequence must be the same total order.
func testClusterRestart(t *testing.T, po *PersistOptions) {
	c, err := New(3, Options{Stack: IndirectCT, Persist: po, Latency: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Restart(1); err == nil {
		t.Fatal("Restart of a running process succeeded")
	}

	// Phase 1: three broadcasts from every process, including the future
	// crash victim (so its WAL records sequence numbers 1..3).
	for i := 0; i < 3; i++ {
		for p := 1; p <= 3; p++ {
			if err := c.Broadcast(p, []byte(fmt.Sprintf("a%d-%d", p, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	seqs := make([][]Delivery, 4)
	seen := make([]map[[2]uint64]bool, 4)
	for p := 1; p <= 3; p++ {
		seen[p] = map[[2]uint64]bool{}
		seqs[p] = collectDistinct(t, c, p, 9, seen[p])
	}
	// Let a checkpoint land so the restart exercises rehydration, not just
	// a from-scratch catch-up.
	time.Sleep(6 * po.Interval)

	c.Crash(3)
	// Phase 2: the survivors keep ordering while p3 is down.
	for i := 0; i < 2; i++ {
		for _, p := range []int{1, 2} {
			if err := c.Broadcast(p, []byte(fmt.Sprintf("b%d-%d", p, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range []int{1, 2} {
		seqs[p] = append(seqs[p], collectDistinct(t, c, p, 4, seen[p])...)
	}

	if err := c.Restart(3); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	// Phase 3: the restarted incarnation broadcasts; its sequence number
	// must not alias any pre-crash identifier (the WAL's job).
	if err := c.Broadcast(3, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		seqs[p] = append(seqs[p], collectDistinct(t, c, p, 1, seen[p])...)
	}
	// The restarted process consumed phase 1 before the crash; what remains
	// is the tail it missed (phase 2) plus the fresh broadcast — suffix
	// redeliveries below its checkpoint boundary dedupe away via seen.
	// Appended to its pre-crash prefix, its sequence is the same 14-message
	// total order as everyone else's.
	seqs[3] = append(seqs[3], collectDistinct(t, c, 3, 5, seen[3])...)
	checkHistory(t, seqs, slices.Concat(sentBy(1, 3, 1, 2, 3), sentBy(4, 5, 1, 2), sentBy(4, 4, 3)))
	last := seqs[1][len(seqs[1])-1]
	if last.Sender != 3 || last.Seq != 4 || string(last.Payload) != "fresh" {
		t.Fatalf("post-restart broadcast = %d:%d %q, want 3:4 \"fresh\" (sequence aliased?)",
			last.Sender, last.Seq, last.Payload)
	}
}

func TestClusterRestartMem(t *testing.T) {
	testClusterRestart(t, &PersistOptions{Interval: 50 * time.Millisecond})
}

func TestClusterRestartFile(t *testing.T) {
	testClusterRestart(t, &PersistOptions{Dir: t.TempDir(), Interval: 50 * time.Millisecond})
}

// TestClusterRestartValidation: Restart requires Options.Persist, an
// in-range process, and a crashed target.
// openFiles counts this process's open file descriptors. Callers hold the
// collector off while they compare counts: a finalizer closing an
// unreachable *os.File would hide exactly the leak they look for.
func openFiles(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(ents)
}

// TestClusterRestartClosesStoreHandles: every Restart opens a fresh FileStore
// handle for the new incarnation, so it must close the one it replaces — and
// the new one when the incarnation cannot be wired.
func TestClusterRestartClosesStoreHandles(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dir := t.TempDir()
	openFiles(t) // the first os.Open starts the runtime poller, which holds descriptors of its own
	closed := openFiles(t)
	c, err := New(3, Options{Persist: &PersistOptions{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	running := openFiles(t)
	for i := 0; i < 20; i++ {
		c.Crash(2)
		if err := c.Restart(2); err != nil {
			t.Fatal(err)
		}
	}
	if got := openFiles(t); got != running {
		t.Fatalf("20 restarts took the open files from %d to %d", running, got)
	}
	c.Crash(2)
	if err := os.WriteFile(filepath.Join(dir, "p2", "checkpoint.bin"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(2); err == nil {
		t.Fatal("Restart from an undecodable checkpoint succeeded")
	}
	if got := openFiles(t); got != running {
		t.Fatalf("a failed restart took the open files from %d to %d", running, got)
	}
	c.Close()
	if got := openFiles(t); got != closed {
		t.Fatalf("Close left %d files open, want %d", got, closed)
	}
}

// TestClusterNewFailureClosesStores: a New that fails part-way (p2's store
// directory cannot be created) closes the stores it had already opened.
func TestClusterNewFailureClosesStores(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p2"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	openFiles(t)
	before := openFiles(t)
	if _, err := New(3, Options{Persist: &PersistOptions{Dir: dir}}); err == nil {
		t.Fatal("New succeeded with p2's store path occupied by a file")
	}
	if got := openFiles(t); got != before {
		t.Fatalf("failed New took the open files from %d to %d", before, got)
	}
}

func TestClusterRestartValidation(t *testing.T) {
	c, err := New(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Crash(2)
	if err := c.Restart(2); err == nil {
		t.Error("Restart accepted without Options.Persist")
	}
	d, err := New(2, Options{Persist: &PersistOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Restart(9); err == nil {
		t.Error("Restart accepted an out-of-range process")
	}
	if err := d.Restart(1); err == nil {
		t.Error("Restart accepted a running process")
	}
}

// TestSameSitePeers pins the Cluster's PreferPeers auto-wiring: on a
// Topology setup each process prefers its co-located peers for repair
// traffic; a uniform network (or a process alone at its site) wires none.
func TestSameSitePeers(t *testing.T) {
	if got := sameSitePeers(nil, 1, 4); got != nil {
		t.Fatalf("uniform network wired PreferPeers %v", got)
	}
	topo := netmodel.WAN3Sites().Topology // round-robin sites
	// n=6: site 0 = {1,4}, site 1 = {2,5}, site 2 = {3,6}.
	if got := fmt.Sprint(sameSitePeers(topo, 1, 6)); got != "[4]" {
		t.Fatalf("sameSitePeers(p1, n=6) = %v, want [4]", got)
	}
	if got := fmt.Sprint(sameSitePeers(topo, 5, 6)); got != "[2]" {
		t.Fatalf("sameSitePeers(p5, n=6) = %v, want [2]", got)
	}
	// n=3: every process is alone at its site — no preference.
	if got := sameSitePeers(topo, 2, 3); got != nil {
		t.Fatalf("sameSitePeers(p2, n=3) = %v, want none", got)
	}
}

// waitMembers polls Stats(p) until its applied member set equals want.
func waitMembers(t *testing.T, c *Cluster, p int, want []int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, ok := c.Stats(p, time.Second)
		if ok && fmt.Sprint(st.Members) == fmt.Sprint(want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("p%d: members = %v (ok=%v), want %v", p, st.Members, ok, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterDynamicMembership drives the public dynamic-membership surface
// on the live runtime: a 4-process cluster starts with group {1,2,3},
// process 4 joins mid-stream (and must deliver the complete pre-join
// history, in the same total order, through the recovery machinery), then
// process 2 leaves and the remaining members keep ordering.
func TestClusterDynamicMembership(t *testing.T) {
	c, err := New(4, Options{
		Stack:      IndirectCT,
		Membership: []int{1, 2, 3},
		Recovery:   true,
		Snapshot:   true,
		Latency:    100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const pre = 4
	for i := 0; i < pre; i++ {
		if err := c.Broadcast(1, []byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seqs := make([][]Delivery, 5)
	for p := 1; p <= 3; p++ {
		seqs[p] = collect(t, c, p, pre)
	}

	if err := c.Join(4); err != nil {
		t.Fatalf("Join: %v", err)
	}
	waitMembers(t, c, 1, []int{1, 2, 3, 4})

	const post = 4
	for i := 0; i < post; i++ {
		if err := c.Broadcast(3, []byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for p := 1; p <= 3; p++ {
		seqs[p] = append(seqs[p], collect(t, c, p, post)...)
	}
	// The joiner reconstructs the entire history: pre-join traffic it never
	// saw diffused plus the post-join tail, in the members' order. p1
	// sponsored the join, so its change took p1's fifth sequence number.
	seqs[4] = collect(t, c, 4, pre+post)
	checkHistory(t, seqs, append(sentBy(1, pre, 1), sentBy(1, post, 3)...))

	if err := c.Leave(2); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	waitMembers(t, c, 1, []int{1, 3, 4})
	if err := c.Broadcast(1, []byte("final")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 4} {
		if d, ok := c.Next(p, 15*time.Second); !ok || string(d.Payload) != "final" {
			t.Fatalf("p%d missing post-leave delivery", p)
		}
	}
}

// TestClusterMembershipValidation: Join/Leave require Options.Membership
// and in-range processes; a bogus initial membership is rejected.
func TestClusterMembershipValidation(t *testing.T) {
	c, err := New(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Join(2); err == nil {
		t.Error("Join accepted without Options.Membership")
	}
	if err := c.Leave(2); err == nil {
		t.Error("Leave accepted without Options.Membership")
	}
	if _, err := New(3, Options{Membership: []int{}}); err == nil {
		t.Error("empty Membership accepted")
	}
	if _, err := New(3, Options{Membership: []int{1, 4}}); err == nil {
		t.Error("out-of-range member accepted")
	}
	if _, err := New(3, Options{Membership: []int{1, 1}}); err == nil {
		t.Error("duplicate member accepted")
	}
	d, err := New(3, Options{Membership: []int{1, 2}, Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Join(9); err == nil {
		t.Error("Join accepted an out-of-range process")
	}
}
