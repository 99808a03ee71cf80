// Package metrics is a small deterministic metrics registry: named
// counters, gauges and bounded histograms that the protocol layers (core,
// consensus, relink, fd, persist, simnet) register into, forming one
// catalog instead of scattered per-layer counter fields.
//
// Handles are always usable: asking a nil *Registry for a metric returns a
// standalone handle, so layers hold non-nil handles unconditionally and
// their Stats views read the same cells whether or not a registry collects
// them. Updates are a single atomic add — they never allocate, schedule,
// or read clocks, so enabling metrics cannot perturb the simulator's
// schedule and a run's figures stay byte-identical either way.
//
// Values are atomics so the live runtime's HTTP exporter (Serve: an
// expvar-style /metrics plus net/http/pprof) can read them while the
// event loops run.
package metrics

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric cell.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d. Safe on a nil counter.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value metric cell.
type Gauge struct{ v atomic.Int64 }

// Set stores the current value. Safe on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by d. Safe on a nil gauge.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into a fixed set of upper-bound buckets
// (plus an overflow bucket), tracking count and sum exactly. Bounds are
// inclusive upper edges in ascending order.
type Histogram struct {
	mu     sync.Mutex
	bounds []int64
	counts []int64 // len(bounds)+1; last = overflow
	count  int64
	sum    int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one observation. Safe on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count  int64
	Sum    int64
	Bounds []int64 // ascending upper edges
	Counts []int64 // len(Bounds)+1; last = overflow
}

// Snapshot returns a copy of the histogram's state (zero on nil).
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{
		Count:  h.count,
		Sum:    h.sum,
		Bounds: append([]int64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
	}
	return s
}

// Registry holds the named metrics of one process. The zero value is not
// used directly — call New — but a nil *Registry is the disabled state:
// every lookup returns a standalone handle that works and is simply not
// collected anywhere.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, registering it on first use. On a
// nil registry it returns a fresh standalone counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use. On a nil
// registry it returns a fresh standalone gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it with the given
// bucket bounds on first use (later callers share the first bounds). On a
// nil registry it returns a fresh standalone histogram.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Names returns the sorted catalog of registered metric names (histograms
// appear under their base name).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns every cell's current value: counters and gauges under
// their name, histograms expanded to <name>.count, <name>.sum and one
// <name>.le_<bound> (or .le_inf) cell per bucket.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()
	out := make(map[string]int64)
	for n, c := range counters {
		out[n] = c.Value()
	}
	for n, g := range gauges {
		out[n] = g.Value()
	}
	for n, h := range hists {
		s := h.Snapshot()
		out[n+".count"] = s.Count
		out[n+".sum"] = s.Sum
		for i, b := range s.Bounds {
			out[fmt.Sprintf("%s.le_%d", n, b)] = s.Counts[i]
		}
		out[n+".le_inf"] = s.Counts[len(s.Counts)-1]
	}
	return out
}

// WriteText renders the snapshot as expvar-style "name value" lines in
// sorted name order.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", n, snap[n]); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the given registries as plain text: each metric line is
// prefixed with its registry's name ("<reg>.<metric> <value>"), registries
// in sorted name order.
func Handler(regs map[string]*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		names := make([]string, 0, len(regs))
		for n := range regs {
			names = append(names, n)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, n := range names {
			snap := regs[n].Snapshot()
			keys := make([]string, 0, len(snap))
			for k := range snap {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, "%s.%s %d\n", n, k, snap[k])
			}
		}
		io.WriteString(w, sb.String())
	})
}

// Server is a running metrics/profiling HTTP endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server on addr exposing /metrics (the registries,
// via Handler) and the standard net/http/pprof endpoints under
// /debug/pprof/. It returns once the listener is bound; use Addr for the
// actual address (useful with ":0") and Close to shut it down.
func Serve(addr string, regs map[string]*Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(regs))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
