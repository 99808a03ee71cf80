package core

// Tests of the pipelined ordering path (Config.Pipeline): the engine may
// run up to W consensus instances concurrently with disjoint identifier
// batches, while decisions are consumed — and messages delivered — in
// serial instance order. Safety must therefore be indistinguishable from
// the serial engine's; these tests drive the pipeline hard (small MaxBatch
// forces many concurrent instances) and re-check every atomic broadcast
// property, plus the pipeline-specific invariants: the window bound and the
// re-proposal of identifiers that another process's batch failed to order.

import (
	"fmt"
	"testing"
	"time"

	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// burst schedules per-process traffic bursts dense enough to keep several
// instances in flight, and returns the identifiers they will be given.
func burst(g *group, n, perProc int, spacing time.Duration) []msg.ID {
	var want []msg.ID
	for i := 1; i <= n; i++ {
		for s := 1; s <= perProc; s++ {
			g.Broadcast(stack.ProcessID(i),
				time.Duration(s)*spacing+time.Duration(i)*30*time.Microsecond,
				fmt.Sprintf("m-%d-%d", i, s))
			want = append(want, msg.ID{Sender: stack.ProcessID(i), Seq: uint64(s)})
		}
	}
	return want
}

// TestPipelinedBroadcastAllVariants drives every variant (including the
// faulty one, correct in failure-free runs) with a window of 4 and a small
// batch cap, and checks all atomic broadcast properties plus that the
// pipeline actually engaged.
func TestPipelinedBroadcastAllVariants(t *testing.T) {
	for _, v := range allVariants() {
		t.Run(v.String(), func(t *testing.T) {
			const n = 3
			g := newGroup(t, n, v, netmodel.Setup1(), 31, pipelined(4, 2))
			burst(g, n, 12, 2*time.Millisecond)
			g.Run(30 * time.Second)
			all := procs(1, 2, 3)
			g.complete(all)
			engaged := false
			for _, p := range all {
				st := g.engines[p].Stats()
				if st.MaxInFlight > 4 {
					t.Fatalf("p%d exceeded the window: MaxInFlight=%d > 4", p, st.MaxInFlight)
				}
				if st.MaxInFlight > 1 {
					engaged = true
				}
			}
			if !engaged {
				t.Fatal("no process ever had more than one instance in flight; the pipeline never engaged")
			}
		})
	}
}

// TestPipelineWindowBound checks that MaxInFlight never exceeds the
// configured window, for several windows, under load that would happily use
// more.
func TestPipelineWindowBound(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			g := newGroup(t, 3, VariantIndirectCT, netmodel.Setup1(), 37, pipelined(w, 1))
			burst(g, 3, 10, time.Millisecond)
			g.Run(20 * time.Second)
			for p := 1; p <= 3; p++ {
				st := g.engines[p].Stats()
				if st.MaxInFlight > w {
					t.Fatalf("p%d: MaxInFlight=%d exceeds window %d", p, st.MaxInFlight, w)
				}
				if st.Delivered != 30 {
					t.Fatalf("p%d delivered %d/30", p, st.Delivered)
				}
			}
		})
	}
}

// TestPipelineRecyclesForeignOrderedIDs is the re-proposal path: with a
// batch cap of 1 and concurrent senders, processes routinely claim an
// identifier for instance k+j that some other process's batch gets decided
// first (in instance k), and identifiers lose their instance to a
// competing proposal; both must be resolved by recycling, with nothing
// delivered twice and nothing lost.
func TestPipelineRecyclesForeignOrderedIDs(t *testing.T) {
	const n = 3
	g := newGroup(t, n, VariantIndirectCT, netmodel.Setup1(), 41, pipelined(3, 1))
	// Everyone broadcasts simultaneously, repeatedly: maximal proposal
	// overlap across processes.
	for s := 1; s <= 8; s++ {
		for i := 1; i <= n; i++ {
			g.Broadcast(stack.ProcessID(i), time.Duration(s)*4*time.Millisecond, "x")
		}
	}
	g.Run(30 * time.Second)
	g.complete(procs(1, 2, 3))
	for p := 1; p <= n; p++ {
		if st := g.engines[p].Stats(); st.Unordered != 0 || st.OrderedQ != 0 || st.InFlight != 0 {
			t.Fatalf("p%d left pipeline residue: %+v", p, st)
		}
	}
}

// TestPipelinedCrashSurvivors is TestCrashSurvivors with the pipeline on:
// a mid-run crash must not cost the survivors liveness or order.
func TestPipelinedCrashSurvivors(t *testing.T) {
	for _, v := range correctVariants() {
		t.Run(v.String(), func(t *testing.T) {
			n := 3
			if v == VariantIndirectMR {
				n = 4 // f < n/3
			}
			g := newGroup(t, n, v, netmodel.Setup1(), 43, pipelined(4, 2))
			crashed := stack.ProcessID(2)
			var alive []stack.ProcessID
			for i := 1; i <= n; i++ {
				if stack.ProcessID(i) != crashed {
					alive = append(alive, stack.ProcessID(i))
				}
			}
			for i := 1; i <= n; i++ {
				for s := 0; s < 4; s++ {
					g.Broadcast(stack.ProcessID(i), time.Duration(2+s*3)*time.Millisecond,
						fmt.Sprintf("pre-%d-%d", i, s))
				}
			}
			g.w.After(1, 100*time.Millisecond, func() {
				g.w.Crash(crashed, simnet.DropInFlight)
			})
			for _, p := range alive {
				for s := 0; s < 6; s++ {
					g.Broadcast(p, 300*time.Millisecond+time.Duration(s)*10*time.Millisecond,
						fmt.Sprintf("post-%d-%d", p, s))
				}
			}
			g.Run(30 * time.Second)
			g.complete(alive)
		})
	}
}

// TestPipelinedMatchesSerialOrderProperties cross-checks that a pipelined
// cluster and a serial cluster, fed the same schedule, each satisfy the
// safety properties (their orders may legitimately differ — total order is
// per-cluster).
func TestPipelinedMatchesSerialOrderProperties(t *testing.T) {
	for _, w := range []int{1, 4} {
		g := newGroup(t, 3, VariantIndirectCT, netmodel.Setup1(), 47, pipelined(w, 3))
		burst(g, 3, 10, 3*time.Millisecond)
		g.Run(20 * time.Second)
		g.complete(procs(1, 2, 3))
	}
}

// TestPipelineValidation rejects nonsense windows and keeps the serial
// default.
func TestPipelineValidation(t *testing.T) {
	w := simnet.NewWorld(1, netmodel.Instant(), 1)
	if _, err := New(w.Node(1), Config{
		Variant:  VariantIndirectCT,
		Deliver:  func(*msg.App) {},
		Pipeline: -1,
	}); err == nil {
		t.Fatal("negative pipeline window accepted")
	}
	eng, err := New(w.Node(1), Config{
		Variant: VariantIndirectCT,
		Deliver: func(*msg.App) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.window != 1 {
		t.Fatalf("default window = %d, want 1", eng.window)
	}
}

// TestPipelineBeaconPiggybackReducesMessages pins the message-count win of
// piggybacking participation beacons on algorithm traffic: under pipelined
// load, most Open announcements must ride for free, and the standalone
// beacon count must stay strictly below the naive scheme's cost (which paid
// one standalone message per announcement, i.e. standalone == announced).
func TestPipelineBeaconPiggybackReducesMessages(t *testing.T) {
	g := newGroup(t, 3, VariantIndirectCT, netmodel.Setup1(), 53, pipelined(4, 2))
	burst(g, 3, 12, 2*time.Millisecond)
	g.Run(30 * time.Second)
	all := procs(1, 2, 3)
	g.complete(all)

	announced, piggybacked, standalone := 0, 0, 0
	for _, p := range all {
		a, pb, sa := g.engines[p].cons.OpenTraffic()
		announced += a
		piggybacked += pb
		standalone += sa
	}
	t.Logf("beacons: announced=%d piggybacked=%d standalone=%d", announced, piggybacked, standalone)
	if announced == 0 {
		t.Fatal("no Open announcements at all; the pipeline never opened an instance")
	}
	if piggybacked == 0 {
		t.Fatal("no announcement ever piggybacked on algorithm traffic")
	}
	if standalone >= announced {
		t.Fatalf("standalone beacons (%d) not reduced below the naive per-announcement cost (%d)",
			standalone, announced)
	}
}
