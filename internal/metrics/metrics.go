// Package metrics is a small deterministic metrics registry: named
// counters and gauges that the protocol layers (core,
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

// Registry holds the named metrics of one process. The zero value is not
// used directly — call New — but a nil *Registry is the disabled state:
// every lookup returns a standalone handle that works and is simply not
// collected anywhere.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
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

// Names returns the sorted catalog of registered metric names.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns every cell's current value under its name.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for n, c := range r.counters {
		out[n] = c.Value()
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
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
