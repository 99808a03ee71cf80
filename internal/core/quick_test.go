package core

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/rbcast"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

// TestSafetyPropertiesQuick is a property-based test: for random seeds,
// jitters, traffic patterns and crash times, the indirect-CT stack must
// preserve prefix order, integrity, and survivor agreement.
func TestSafetyPropertiesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized simulation sweep")
	}
	property := func(seed16 uint16, crashAt8, traffic8 uint8) bool {
		seed := int64(seed16) + 1
		params := netmodel.Setup1()
		params.Jitter = time.Duration(seed%5) * 20 * time.Microsecond
		c := newClusterQuick(3, VariantIndirectCT, params, seed)
		msgs := int(traffic8)%12 + 4
		for s := 0; s < msgs; s++ {
			p := stack.ProcessID(s%3 + 1)
			at := time.Duration((int(seed)*31+s*47)%300) * time.Millisecond
			c.abcastQuick(p, at, fmt.Sprintf("m%d", s))
		}
		crashAt := time.Duration(crashAt8) * 2 * time.Millisecond
		c.w.After(1, crashAt, func() { c.w.Crash(3, simnet.DropInFlight) })
		runChecked(t, c.w, c.engines, 15*time.Second)

		// Prefix property between the two survivors.
		a, b := c.delivered[1], c.delivered[2]
		short := a
		if len(b) < len(a) {
			short = b
		}
		for i := range short {
			if a[i] != b[i] {
				return false
			}
		}
		// Agreement at quiescence.
		if len(a) != len(b) {
			return false
		}
		// Integrity.
		for _, p := range []stack.ProcessID{1, 2} {
			seen := map[msg.ID]bool{}
			for _, id := range c.delivered[p] {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSafetyPropertiesQuickPipelined extends the property sweep with a
// random pipeline window and batch cap: whatever (W, MaxBatch, seed, crash
// time) the generator picks, prefix order, integrity and survivor agreement
// must hold.
func TestSafetyPropertiesQuickPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized simulation sweep")
	}
	property := func(seed16 uint16, crashAt8, traffic8, w8, batch8 uint8) bool {
		seed := int64(seed16) + 1
		w := int(w8)%4 + 1          // W in 1..4
		maxBatch := int(batch8) % 4 // 0 = unbounded, else 1..3
		params := netmodel.Setup1()
		params.Jitter = time.Duration(seed%5) * 20 * time.Microsecond
		c := newClusterQuick(3, VariantIndirectCT, params, seed, func(cfg *Config) {
			cfg.Pipeline = w
			cfg.MaxBatch = maxBatch
		})
		msgs := int(traffic8)%12 + 4
		for s := 0; s < msgs; s++ {
			p := stack.ProcessID(s%3 + 1)
			at := time.Duration((int(seed)*31+s*47)%300) * time.Millisecond
			c.abcastQuick(p, at, fmt.Sprintf("m%d", s))
		}
		crashAt := time.Duration(crashAt8) * 2 * time.Millisecond
		c.w.After(1, crashAt, func() { c.w.Crash(3, simnet.DropInFlight) })
		runChecked(t, c.w, c.engines, 15*time.Second)

		a, b := c.delivered[1], c.delivered[2]
		short := a
		if len(b) < len(a) {
			short = b
		}
		for i := range short {
			if a[i] != b[i] {
				return false
			}
		}
		if len(a) != len(b) {
			return false
		}
		for _, p := range []stack.ProcessID{1, 2} {
			seen := map[msg.ID]bool{}
			for _, id := range c.delivered[p] {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// quickCluster is a pared-down harness for property tests (no *testing.T in
// the construction path so it can run under quick.Check).
type quickCluster struct {
	w         *simnet.World
	engines   []*Engine
	delivered [][]msg.ID
}

func newClusterQuick(n int, variant Variant, params netmodel.Params, seed int64, mutate ...func(*Config)) *quickCluster {
	c := &quickCluster{
		w:         simnet.NewWorld(n, params, seed),
		engines:   make([]*Engine, n+1),
		delivered: make([][]msg.ID, n+1),
	}
	for i := 1; i <= n; i++ {
		i := i
		node := c.w.Node(stack.ProcessID(i))
		cfg := Config{
			Variant: variant,
			RB:      rbcast.KindEager,
			Deliver: func(app *msg.App) {
				c.delivered[i] = append(c.delivered[i], app.ID)
			},
		}
		for _, m := range mutate {
			m(&cfg)
		}
		eng, err := New(node, cfg)
		if err != nil {
			panic(err) // construction is deterministic; a failure is a bug
		}
		c.engines[i] = eng
	}
	return c
}

func (c *quickCluster) abcastQuick(p stack.ProcessID, d time.Duration, payload string) {
	c.w.After(p, d, func() { c.engines[p].ABroadcast([]byte(payload)) })
}

// SoakLongRun pushes sustained traffic with periodic payload size changes
// for many virtual minutes; guards against slow state leaks and ordering
// drift in long executions.
func TestSoakLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	c := newCluster(t, 3, VariantIndirectCT, rbcast.KindEager, netmodel.Setup1(), 99)
	const total = 2000
	for s := 0; s < total; s++ {
		p := stack.ProcessID(s%3 + 1)
		at := time.Duration(s) * 2 * time.Millisecond // ~500 msg/s for 4s
		size := (s % 5) * 400
		c.abcast(p, at, string(make([]byte, size)))
	}
	runChecked(t, c.w, c.engines, 60*time.Second)
	for p := 1; p <= 3; p++ {
		st := c.engines[p].Stats()
		if st.Delivered != total {
			t.Fatalf("p%d delivered %d/%d", p, st.Delivered, total)
		}
		if st.Unordered != 0 || st.OrderedQ != 0 {
			t.Fatalf("p%d left residue: %+v", p, st)
		}
		if count := c.engines[p].cons.InstanceCount(); count > 3 {
			t.Fatalf("p%d retains %d instances after soak", p, count)
		}
	}
	c.checkTotalOrder(t, procs(1, 2, 3))
	c.checkIntegrity(t, procs(1, 2, 3))
}
