package abcast

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"abcast/internal/metrics"
	"abcast/internal/netmodel"
	"abcast/internal/simnet"
	"abcast/internal/stack"
	"abcast/internal/tcpnet"
	"abcast/internal/trace"
)

func TestClusterTraceAndMetrics(t *testing.T) {
	c, err := New(3, Options{Trace: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const msgs = 5
	for i := 0; i < msgs; i++ {
		if err := c.Broadcast(1, []byte("observe")); err != nil {
			t.Fatal(err)
		}
	}
	for p := 1; p <= 3; p++ {
		collect(t, c, p, msgs)
	}

	var jsonl bytes.Buffer
	if err := c.WriteTrace(&jsonl, "jsonl"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"kind":"adeliver"`) {
		t.Fatalf("JSONL trace holds no adeliver events:\n%.400s", jsonl.String())
	}
	var chrome bytes.Buffer
	if err := c.WriteTrace(&chrome, "chrome"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"traceEvents"`) {
		t.Fatal("chrome trace missing traceEvents array")
	}
	if err := c.WriteTrace(io.Discard, "xml"); err == nil {
		t.Fatal("unknown trace format accepted")
	}
	adelivers := 0
	for _, ev := range c.TraceEvents() {
		if ev.Kind == trace.KindADeliver && ev.P == 2 {
			adelivers++
		}
	}
	if adelivers < msgs {
		t.Fatalf("p2 recorded %d adeliver events, want ≥ %d", adelivers, msgs)
	}

	for p := 1; p <= 3; p++ {
		snap, err := c.MetricsSnapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		if snap["core.delivered"] < msgs {
			t.Fatalf("p%d core.delivered = %d, want ≥ %d", p, snap["core.delivered"], msgs)
		}
	}
	snap, err := c.MetricsSnapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if snap["core.broadcasts"] != msgs {
		t.Fatalf("p1 core.broadcasts = %d, want %d", snap["core.broadcasts"], msgs)
	}
	if _, err := c.MetricsSnapshot(9); err == nil {
		t.Fatal("out-of-range process accepted")
	}
}

func TestClusterObservabilityDisabledByDefault(t *testing.T) {
	c, err := New(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteTrace(io.Discard, "jsonl"); err == nil {
		t.Fatal("WriteTrace succeeded without Options.Trace")
	}
	if evs := c.TraceEvents(); evs != nil {
		t.Fatalf("TraceEvents = %d events without Options.Trace", len(evs))
	}
	if _, err := c.MetricsSnapshot(1); err == nil {
		t.Fatal("MetricsSnapshot succeeded without Options.Metrics")
	}
	if addr := c.MetricsAddr(); addr != "" {
		t.Fatalf("MetricsAddr = %q without Options.MetricsAddr", addr)
	}
}

func TestClusterMetricsHTTP(t *testing.T) {
	c, err := New(2, Options{MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Broadcast(1, []byte("served")); err != nil {
		t.Fatal(err)
	}
	collect(t, c, 1, 1) // both counters are asserted below: wait for both deliveries
	collect(t, c, 2, 1)
	base := "http://" + c.MetricsAddr()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"p1.core.delivered 1", "p2.core.delivered 1", "p1.fd.heartbeats_sent"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
	// MetricsAddr implies Metrics: the in-process view works too.
	if _, err := c.MetricsSnapshot(1); err != nil {
		t.Fatal(err)
	}
}

// TestClusterStatsTimeoutDoesNotLeak pins the Stats timeout contract: a
// snapshot that cannot be answered in time returns ok=false without leaking
// a goroutine — the result channel is buffered, so the late closure's send
// never blocks (see Stats).
func TestClusterStatsTimeoutDoesNotLeak(t *testing.T) {
	c, err := New(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := runtime.NumGoroutine()
	release := make(chan struct{})
	blocked := make(chan struct{})
	c.net.Do(stack.ProcessID(1), func() {
		close(blocked)
		<-release
	})
	<-blocked
	const attempts = 50
	for i := 0; i < attempts; i++ {
		if _, ok := c.Stats(1, time.Millisecond); ok {
			t.Fatal("Stats succeeded against a blocked event loop")
		}
	}
	close(release)
	if _, ok := c.Stats(1, 10*time.Second); !ok {
		t.Fatal("Stats failed after the event loop was unblocked")
	}
	// The timed-out closures have all run by now (the loop is drained in
	// order); give the runtime a moment and check nothing stuck around.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+5 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after %d timed-out Stats calls",
		before, runtime.NumGoroutine(), attempts)
}

// TestClusterStatsSurfacesPersistCounters checks the persistence counters
// reach the public Stats view.
func TestClusterStatsSurfacesPersistCounters(t *testing.T) {
	c, err := New(3, Options{Persist: &PersistOptions{Interval: 5 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Broadcast(1, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	collect(t, c, 1, 1)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := c.Stats(1, time.Second)
		if ok && st.Checkpoints >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("Stats.Checkpoints never reached 1 despite a 5ms checkpoint interval")
}

// TestMetricsCatalogDocumented is the metric-name drift gate, the
// counterpart of CI's knob-matrix check: every metric a fully-featured
// process registers — plus the simulator's traffic counters and a tcpnet
// peer's per-connection gauges, `p<q>` standing for the peer they point at —
// must appear backticked in docs/OPERATIONS.md, so the doc's catalog cannot
// silently fall behind the code.
func TestMetricsCatalogDocumented(t *testing.T) {
	c, err := New(3, Options{
		Metrics:  true,
		Snapshot: true,
		Persist:  &PersistOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	names := c.regs[1].Names()
	if len(names) == 0 {
		t.Fatal("fully-featured process registered no metrics")
	}
	simReg := metrics.New()
	simnet.NewWorld(2, netmodel.Setup1(), 1).SetMetrics(simReg)
	names = append(names, simReg.Names()...)
	peer, err := tcpnet.Listen(1, 2, "127.0.0.1:0", tcpnet.WithMetrics(metrics.New()))
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := peer.Start(map[stack.ProcessID]string{2: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	for _, n := range peer.Metrics().Names() {
		names = append(names, strings.TrimSuffix(n, "p2")+"p<q>")
	}

	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for _, n := range names {
		if !strings.Contains(string(doc), "`"+n+"`") {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("metric names missing from docs/OPERATIONS.md: %v", missing)
	}
}
