package metrics

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

func TestNilRegistryHandlesWork(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("standalone counter = %d, want 3", c.Value())
	}
	g := r.Gauge("y")
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("standalone gauge = %d, want 7", g.Value())
	}
	if r.Names() != nil || r.Snapshot() != nil {
		t.Fatal("nil registry should report no catalog")
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge")
	}
}

func TestCounterUpdateDoesNotAllocate(t *testing.T) {
	c := New().Counter("hot")
	allocs := testing.AllocsPerRun(100, func() { c.Inc() })
	if allocs != 0 {
		t.Fatalf("Counter.Inc allocates %v per call", allocs)
	}
}

func TestRegistryDedupAndCatalog(t *testing.T) {
	r := New()
	a := r.Counter("core.delivered")
	b := r.Counter("core.delivered")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Add(4)
	r.Gauge("core.window").Set(2)
	want := []string{"core.delivered", "core.window"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	snap := r.Snapshot()
	if snap["core.delivered"] != 4 || snap["core.window"] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestWriteTextSortedAndStable(t *testing.T) {
	r := New()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("c").Set(3)
	var x, y bytes.Buffer
	if err := r.WriteText(&x); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != "a 1\nb 2\nc 3\n" {
		t.Fatalf("WriteText = %q", x.String())
	}
	if x.String() != y.String() {
		t.Fatal("WriteText not stable across calls")
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := New()
	r.Counter("core.delivered").Add(9)
	s, err := Serve("127.0.0.1:0", map[string]*Registry{"p1": r})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "p1.core.delivered 9\n") {
		t.Fatalf("/metrics body = %q", body)
	}
	resp, err = http.Get("http://" + s.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", resp.StatusCode)
	}
}
