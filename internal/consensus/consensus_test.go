package consensus

import (
	"fmt"
	"testing"
	"time"

	"abcast/internal/fd"
	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// tv is a trivial test value.
type tv string

func (t tv) WireSize() int { return len(t) }
func (t tv) Key() string   { return string(t) }

// harness wires one consensus service per simulated process.
type harness struct {
	w    *simnet.World
	fds  []*fd.Scripted // index 0 unused
	svcs []*Service     // index 0 unused
	// decisions[p][k] = decided value
	decisions []map[uint64]Value
	// decideCount[p][k] = number of upcalls (must be exactly 1)
	decideCount []map[uint64]int
}

// newHarness builds an n-process system with the given algorithm flavour.
// rcv may be nil for non-indirect configurations. Optional mutators adjust
// each process's Config before construction (e.g. to install a view
// resolver).
func newHarness(t *testing.T, n int, algo Algo, indirect bool, rcv func(p stack.ProcessID, v Value) bool, mutate ...func(*Config)) *harness {
	t.Helper()
	h := &harness{
		w:           simnet.NewWorld(n, netmodel.Setup1(), 42),
		fds:         make([]*fd.Scripted, n+1),
		svcs:        make([]*Service, n+1),
		decisions:   make([]map[uint64]Value, n+1),
		decideCount: make([]map[uint64]int, n+1),
	}
	for i := 1; i <= n; i++ {
		i := i
		h.fds[i] = fd.NewScripted()
		h.decisions[i] = make(map[uint64]Value)
		h.decideCount[i] = make(map[uint64]int)
		var rcvFn Rcv
		if rcv != nil {
			rcvFn = func(v Value) bool { return rcv(stack.ProcessID(i), v) }
		}
		cfg := Config{
			Algo:     algo,
			Indirect: indirect,
			Rcv:      rcvFn,
			Detector: h.fds[i],
			Decide: func(k uint64, v Value) {
				h.decisions[i][k] = v
				h.decideCount[i][k]++
			},
		}
		for _, m := range mutate {
			m(&cfg)
		}
		svc, err := NewService(h.w.Node(stack.ProcessID(i)), cfg)
		if err != nil {
			t.Fatalf("NewService(p%d): %v", i, err)
		}
		h.svcs[i] = svc
	}
	return h
}

// propose schedules process p to propose v for instance k after d.
func (h *harness) propose(p stack.ProcessID, d time.Duration, k uint64, v Value) {
	h.w.After(p, d, func() { h.svcs[p].Propose(k, v) })
}

// checkAgreement verifies that every process in alive decided instance k on
// the same value, exactly once, and that the value is one of proposals.
func (h *harness) checkAgreement(t *testing.T, k uint64, alive []stack.ProcessID, proposals []Value) Value {
	t.Helper()
	var decided Value
	for _, p := range alive {
		v, ok := h.decisions[p][k]
		if !ok {
			t.Fatalf("p%d never decided instance %d", p, k)
		}
		if c := h.decideCount[p][k]; c != 1 {
			t.Fatalf("p%d decided instance %d %d times", p, k, c)
		}
		if decided == nil {
			decided = v
		} else if decided.Key() != v.Key() {
			t.Fatalf("agreement violated at instance %d: %q vs %q", k, decided.Key(), v.Key())
		}
	}
	if len(proposals) > 0 {
		valid := false
		for _, pv := range proposals {
			if pv.Key() == decided.Key() {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("validity violated: decided %q not among proposals", decided.Key())
		}
	}
	return decided
}

func allProcs(n int) []stack.ProcessID {
	out := make([]stack.ProcessID, n)
	for i := range out {
		out[i] = stack.ProcessID(i + 1)
	}
	return out
}

func algoFlavours() []struct {
	name     string
	algo     Algo
	indirect bool
} {
	return []struct {
		name     string
		algo     Algo
		indirect bool
	}{
		{"CT", CT, false},
		{"MR", MR, false},
		{"CT-indirect", CT, true},
		{"MR-indirect", MR, true},
	}
}

// rcvAlways is an rcv predicate that always holds (all messages received).
func rcvAlways(stack.ProcessID, Value) bool { return true }

func TestFailureFreeDecision(t *testing.T) {
	for _, fl := range algoFlavours() {
		for _, n := range []int{3, 4, 5, 7} {
			t.Run(fmt.Sprintf("%s/n=%d", fl.name, n), func(t *testing.T) {
				h := newHarness(t, n, fl.algo, fl.indirect, rcvAlways)
				var proposals []Value
				for i := 1; i <= n; i++ {
					v := tv(fmt.Sprintf("v%d", i))
					proposals = append(proposals, v)
					h.propose(stack.ProcessID(i), time.Duration(i)*time.Millisecond, 1, v)
				}
				h.w.RunFor(5 * time.Second)
				h.checkAgreement(t, 1, allProcs(n), proposals)
			})
		}
	}
}

func TestManySequentialInstances(t *testing.T) {
	for _, fl := range algoFlavours() {
		t.Run(fl.name, func(t *testing.T) {
			const n, instances = 3, 20
			h := newHarness(t, n, fl.algo, fl.indirect, rcvAlways)
			for k := uint64(1); k <= instances; k++ {
				for i := 1; i <= n; i++ {
					v := tv(fmt.Sprintf("k%d-v%d", k, i))
					h.propose(stack.ProcessID(i), time.Duration(k)*10*time.Millisecond, k, v)
				}
			}
			h.w.RunFor(30 * time.Second)
			for k := uint64(1); k <= instances; k++ {
				h.checkAgreement(t, k, allProcs(n), nil)
			}
		})
	}
}

// TestCoordinatorCrash crashes the round-1 coordinator (process 2, since
// coord(1) = (1 mod n) + 1) before it can act; the surviving processes must
// still decide once their detectors suspect it.
func TestCoordinatorCrash(t *testing.T) {
	for _, fl := range algoFlavours() {
		t.Run(fl.name, func(t *testing.T) {
			n := 3
			if fl.algo == MR && fl.indirect {
				// The indirect MR algorithm only tolerates f < n/3
				// (the paper's resilience result); n=4 tolerates one
				// crash.
				n = 4
			}
			h := newHarness(t, n, fl.algo, fl.indirect, rcvAlways)
			crashed := stack.ProcessID(2)
			h.w.Crash(crashed, simnet.DropInFlight)
			var proposals []Value
			var alive []stack.ProcessID
			for i := 1; i <= n; i++ {
				v := tv(fmt.Sprintf("v%d", i))
				proposals = append(proposals, v)
				h.propose(stack.ProcessID(i), time.Millisecond, 1, v)
				if stack.ProcessID(i) != crashed {
					alive = append(alive, stack.ProcessID(i))
				}
			}
			// Survivors suspect the crashed coordinator after a while.
			for _, p := range alive {
				p := p
				h.w.After(p, 50*time.Millisecond, func() {
					h.fds[p].SetSuspected(crashed, true)
				})
			}
			h.w.RunFor(5 * time.Second)
			h.checkAgreement(t, 1, alive, proposals)
		})
	}
}

// TestCrashMidInstance crashes a coordinator after it has already sent some
// round traffic; agreement must hold among survivors.
func TestCrashMidInstance(t *testing.T) {
	for _, fl := range algoFlavours() {
		t.Run(fl.name, func(t *testing.T) {
			const n = 5
			h := newHarness(t, n, fl.algo, fl.indirect, rcvAlways)
			crashed := stack.ProcessID(2) // round-1 coordinator
			for i := 1; i <= n; i++ {
				h.propose(stack.ProcessID(i), time.Millisecond, 1, tv(fmt.Sprintf("v%d", i)))
			}
			// Let round 1 partially complete, then crash the coordinator
			// dropping whatever it still has in flight.
			h.w.After(1, 2*time.Millisecond, func() {
				h.w.Crash(crashed, simnet.DropInFlight)
			})
			for _, p := range []stack.ProcessID{1, 3, 4, 5} {
				p := p
				h.w.After(p, 60*time.Millisecond, func() {
					h.fds[p].SetSuspected(crashed, true)
				})
			}
			h.w.RunFor(10 * time.Second)
			h.checkAgreement(t, 1, []stack.ProcessID{1, 3, 4, 5}, nil)
		})
	}
}

// TestWrongSuspicionsStillTerminate floods the detectors with transient
// wrong suspicions; ◇S only promises *eventual* accuracy, and the
// algorithms must converge once suspicions quiesce.
func TestWrongSuspicionsStillTerminate(t *testing.T) {
	for _, fl := range algoFlavours() {
		t.Run(fl.name, func(t *testing.T) {
			const n = 3
			h := newHarness(t, n, fl.algo, fl.indirect, rcvAlways)
			for i := 1; i <= n; i++ {
				h.propose(stack.ProcessID(i), time.Millisecond, 1, tv(fmt.Sprintf("v%d", i)))
			}
			// Every process briefly suspects everyone, twice.
			for i := 1; i <= n; i++ {
				p := stack.ProcessID(i)
				for rep := 0; rep < 2; rep++ {
					base := time.Duration(rep)*3*time.Millisecond + 500*time.Microsecond
					for j := 1; j <= n; j++ {
						q := stack.ProcessID(j)
						if q == p {
							continue
						}
						h.w.After(p, base, func() { h.fds[p].SetSuspected(q, true) })
						h.w.After(p, base+time.Millisecond, func() { h.fds[p].SetSuspected(q, false) })
					}
				}
			}
			h.w.RunFor(10 * time.Second)
			h.checkAgreement(t, 1, allProcs(n), nil)
		})
	}
}

// TestIndirectRefusesUnreceivedValue checks the core indirect-consensus
// behaviour: a process that does not hold msgs(v) must not help decide v.
// Process 1 proposes "hot" but only process 1 holds its messages; the
// decision must not be "hot" unless rcv eventually holds elsewhere — here it
// never does, so the decision must be some other proposal.
func TestIndirectRefusesUnreceivedValue(t *testing.T) {
	for _, algo := range []Algo{CT, MR} {
		t.Run(algo.String(), func(t *testing.T) {
			const n = 3
			rcv := func(p stack.ProcessID, v Value) bool {
				if v.Key() == "hot" {
					return p == 1 // only the proposer holds msgs("hot")
				}
				return true
			}
			h := newHarness(t, n, algo, true, rcv)
			h.propose(1, time.Millisecond, 1, tv("hot"))
			h.propose(2, time.Millisecond, 1, tv("cold2"))
			h.propose(3, time.Millisecond, 1, tv("cold3"))
			h.w.RunFor(10 * time.Second)
			v := h.checkAgreement(t, 1, allProcs(n), nil)
			if v.Key() == "hot" {
				t.Fatalf("decided %q although only one (potentially faulty) process held its messages", v.Key())
			}
		})
	}
}

// TestIndirectDecidesOnceRcvHolds is the liveness side of Hypothesis A: a
// value initially held by nobody becomes received everywhere, after which
// the indirect algorithms must terminate on it.
func TestIndirectDecidesOnceRcvHolds(t *testing.T) {
	for _, algo := range []Algo{CT, MR} {
		t.Run(algo.String(), func(t *testing.T) {
			const n = 3
			have := make(map[stack.ProcessID]bool)
			rcv := func(p stack.ProcessID, v Value) bool { return have[p] }
			h := newHarness(t, n, algo, true, rcv)
			// Everyone proposes the same value; rcv holds for nobody at
			// first, then becomes true everywhere (as reliable broadcast
			// would make it).
			for i := 1; i <= n; i++ {
				h.propose(stack.ProcessID(i), time.Millisecond, 1, tv("vv"))
			}
			for i := 1; i <= n; i++ {
				p := stack.ProcessID(i)
				h.w.After(p, 40*time.Millisecond, func() { have[p] = true })
			}
			// Detectors eventually suspect nobody, but rounds must churn
			// until rcv holds; give the rotation a nudge so blocked
			// rounds can move past coordinators whose proposals are
			// refused.
			h.w.RunFor(20 * time.Second)
			h.checkAgreement(t, 1, allProcs(n), []Value{tv("vv")})
		})
	}
}

// TestMRIndirectResilienceBoundary pins down the paper's Section 3.3
// result: the indirect MR algorithm requires ⌈(2n+1)/3⌉ correct processes.
// At n=3 a single crash (f=1 ≥ n/3) makes the Phase 2 quorum of 3
// unreachable, so the survivors must NOT decide; the original MR algorithm
// in the same scenario does decide. CT-indirect also decides (its
// resilience is unaffected by the adaptation).
func TestMRIndirectResilienceBoundary(t *testing.T) {
	run := func(algo Algo, indirect bool) bool {
		const n = 3
		h := newHarness(t, n, algo, indirect, rcvAlways)
		crashed := stack.ProcessID(2)
		h.w.Crash(crashed, simnet.DropInFlight)
		for i := 1; i <= n; i++ {
			h.propose(stack.ProcessID(i), time.Millisecond, 1, tv(fmt.Sprintf("v%d", i)))
		}
		for _, p := range []stack.ProcessID{1, 3} {
			p := p
			h.w.After(p, 50*time.Millisecond, func() {
				h.fds[p].SetSuspected(crashed, true)
			})
		}
		h.w.RunFor(5 * time.Second)
		_, ok1 := h.decisions[1][1]
		_, ok3 := h.decisions[3][1]
		return ok1 && ok3
	}
	if run(MR, true) {
		t.Error("indirect MR decided at n=3 with one crash; it must block (f < n/3)")
	}
	if !run(MR, false) {
		t.Error("original MR failed to decide at n=3 with one crash (f < n/2 should suffice)")
	}
	if !run(CT, true) {
		t.Error("indirect CT failed to decide at n=3 with one crash (resilience should be unaffected)")
	}
}

func TestQuorumHelpers(t *testing.T) {
	cases := []struct {
		n, maj, tt, third int
	}{
		{3, 2, 3, 2},
		{4, 3, 3, 2},
		{5, 3, 4, 2},
		{6, 4, 5, 3},
		{7, 4, 5, 3},
		{9, 5, 7, 4},
		{10, 6, 7, 4},
	}
	for _, c := range cases {
		if got := Majority(c.n); got != c.maj {
			t.Errorf("Majority(%d) = %d, want %d", c.n, got, c.maj)
		}
		if got := TwoThirds(c.n); got != c.tt {
			t.Errorf("TwoThirds(%d) = %d, want %d", c.n, got, c.tt)
		}
		if got := ThirdPlus(c.n); got != c.third {
			t.Errorf("ThirdPlus(%d) = %d, want %d", c.n, got, c.third)
		}
	}
	// Figure 2's arithmetic: at n=7, f=2 the indirect MR quorum is n−f = 5,
	// and two such quorums share at least n−2f = 3 = f+1 processes — one of
	// them correct and holding msgs(v). A third crash would leave 1 < f+1.
	n, f := 7, MaxFaulty(MR, true, 7)
	if f != 2 || TwoThirds(n) != n-f || n-2*f != f+1 || n-2*(f+1) >= (f+1)+1 {
		t.Errorf("Figure 2 (n=7): f=%d, quorum %d, overlap %d", f, TwoThirds(n), n-2*f)
	}
}

func TestMaxFaulty(t *testing.T) {
	cases := []struct {
		algo     Algo
		indirect bool
		n, want  int
	}{
		{CT, false, 3, 1},
		{CT, true, 3, 1},
		{MR, false, 3, 1},
		{MR, true, 3, 0}, // f < n/3: no crash tolerated at n=3
		{MR, true, 4, 1},
		{MR, true, 7, 2},
		{CT, true, 7, 3},
	}
	for _, c := range cases {
		if got := MaxFaulty(c.algo, c.indirect, c.n); got != c.want {
			t.Errorf("MaxFaulty(%v, indirect=%v, n=%d) = %d, want %d",
				c.algo, c.indirect, c.n, got, c.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	w := simnet.NewWorld(1, netmodel.Instant(), 1)
	if _, err := NewService(w.Node(1), Config{Algo: CT}); err == nil {
		t.Error("nil detector accepted")
	}
	if _, err := NewService(w.Node(1), Config{Algo: CT, Indirect: true, Detector: fd.NewScripted()}); err == nil {
		t.Error("indirect without rcv accepted")
	}
	if _, err := NewService(w.Node(1), Config{Algo: Algo(99), Detector: fd.NewScripted()}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestCoordRotation(t *testing.T) {
	// Over the full group 1..n, coord(r) = (r mod n) + 1 as in the paper's
	// pseudo-code.
	coord := func(r, n int) stack.ProcessID {
		w := simnet.NewWorld(n, netmodel.Instant(), 1)
		return (&instance{members: w.Node(1).Group()}).coordOf(r)
	}
	if c := coord(1, 3); c != 2 {
		t.Fatalf("coord(1,3) = %d, want 2", c)
	}
	if c := coord(3, 3); c != 1 {
		t.Fatalf("coord(3,3) = %d, want 1", c)
	}
	seen := map[stack.ProcessID]bool{}
	for r := 1; r <= 5; r++ {
		seen[coord(r, 5)] = true
	}
	if len(seen) != 5 {
		t.Fatalf("coordinator rotation covered %d of 5 processes", len(seen))
	}
}
