// Command abench regenerates the paper's evaluation figures on the
// simulated test beds.
//
// Usage:
//
//	abench -list                    # list available figures
//	abench -fig 3a                  # regenerate one figure
//	abench -fig p1,g1               # regenerate several figures
//	abench -fig all                 # regenerate everything (slow)
//	abench -fig 1b -scale 0.2       # quick low-resolution run
//	abench -fig p1 -json            # machine-readable results on stdout
//	abench -fig 7a -topo wan3       # re-run a figure on the 3-site WAN
//	abench -fig g1 -partition 0.4s:1.1s:3   # cut p3 off for 0.7 s
//	abench -fig g2 -partition 0.4s:1.1s:3:drop -recover  # black-hole cut, recovery on
//
// Output is one table per figure: rows are x-axis values, columns the mean
// atomic broadcast latency of each stack (delivered msg/s for
// throughput-metric figures such as the pipeline ablation p1 or the WAN
// partition figure g2). A '*' marks saturated points where some messages
// were still undelivered at the measurement horizon.
//
// With -json, the same sweep is emitted instead as an indented JSON array
// (one object per figure, every Result counter included), suitable for
// archiving as BENCH_<rev>.json and diffing across revisions.
//
// -topo re-runs any figure on a named network model (setup1, setup2,
// pipeline, wan3) instead of the figure's own; -partition from:until:procs
// injects a partition episode (delay semantics; append ":drop" for
// black-hole semantics) cutting the comma-separated process list off
// between the two virtual instants; -recover enables the recovery subsystem
// (retransmission + anti-entropy + decide-relay + payload fetch) on every
// process, which makes drop-mode episodes survivable — figure g3 is the
// built-in comparison; -snapshot additionally enables snapshot state
// transfer (implying -recover), which extends catch-up beyond the
// decide-relay's bounded decision log to arbitrarily deep lags — figure g4
// is the built-in comparison; -adaptive enables the adaptive control plane
// (backlog-driven pipeline width and MaxBatch, RTT-driven anti-entropy
// cadence) on every process — figure p2 is the built-in comparison of the
// controller against hand-picked static widths under ramped load.
//
// Observability: -trace <file> runs every selected figure with lifecycle
// tracing on and writes the recordings — JSONL by default (byte-identical
// across identical runs), Chrome trace_event when the file name ends in
// .json (open in chrome://tracing or Perfetto); traced runs also report the
// per-stage latency decomposition (figure o1 is the built-in traced sweep).
// -cpuprofile and -memprofile write standard pprof profiles of the abench
// process itself for `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"abcast/internal/bench"
	"abcast/internal/core"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "abench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("abench", flag.ContinueOnError)
	var (
		fig       = fs.String("fig", "", "figure id(s) to regenerate (e.g. 1a or p1,g1) or 'all'")
		scale     = fs.Float64("scale", 1.0, "workload scale in (0,1]: smaller = faster, noisier")
		seed      = fs.Int64("seed", 1, "deterministic simulation seed")
		list      = fs.Bool("list", false, "list available figures")
		jsonOut   = fs.Bool("json", false, "emit machine-readable JSON instead of tables")
		topo      = fs.String("topo", "", "network model override: setup1, setup2, pipeline, wan3")
		partition = fs.String("partition", "", "partition episode override: from:until:p,q[,...][:drop] (e.g. 0.4s:1.1s:3)")
		recovery  = fs.Bool("recover", false, "enable the recovery subsystem (retransmission, decide-relay, payload fetch) on every figure")
		snapshot  = fs.Bool("snapshot", false, "enable snapshot state transfer for deep catch-up on every figure (implies -recover)")
		adaptive  = fs.Bool("adaptive", false, "enable the adaptive control plane (backlog-driven pipeline width and MaxBatch, RTT-driven anti-entropy cadence) on every figure")
		traceOut  = fs.String("trace", "", "trace every selected figure's runs and write the lifecycle events to this file (.json suffix → Chrome trace_event for chrome://tracing, anything else → JSONL)")
		cpuOut    = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
		memOut    = fs.String("memprofile", "", "write an allocation profile taken at exit to this file (inspect with go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuOut != "" {
		f, err := os.Create(*cpuOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memOut != "" {
		defer func() {
			f, err := os.Create(*memOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "abench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows what's retained
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "abench:", err)
			}
		}()
	}
	if *list {
		for _, id := range bench.FigureIDs() {
			fmt.Fprintf(out, "%-4s %s\n", id, bench.Figures()[id].Describe())
		}
		return nil
	}
	if *fig == "" {
		fs.Usage()
		return fmt.Errorf("missing -fig (or -list)")
	}
	override, err := buildOverride(*topo, *partition, *recovery, *snapshot, *adaptive, *traceOut != "")
	if err != nil {
		return err
	}
	var ids []string
	for _, id := range strings.Split(*fig, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if strings.EqualFold(*fig, "all") {
		ids = bench.FigureIDs()
	}
	figs := bench.Figures()
	specs := make([]bench.FigureSpec, 0, len(ids))
	for _, id := range ids {
		spec, ok := figs[id]
		if !ok {
			return fmt.Errorf("unknown figure %q (use -list)", id)
		}
		if override != nil {
			spec = spec.WithOverride(override)
		}
		specs = append(specs, spec)
	}
	if *traceOut == "" {
		if *jsonOut {
			return bench.RunSpecsJSON(out, specs, *scale, *seed)
		}
		for _, spec := range specs {
			if err := bench.RunSpecAndPrint(out, spec, *scale, *seed); err != nil {
				return err
			}
		}
		return nil
	}
	// Traced path: keep the full figures so their recordings can be
	// exported after the normal table/JSON output.
	figsRun, err := bench.RunSpecs(specs, *scale, *seed)
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := bench.WriteJSON(out, figsRun, *scale, *seed); err != nil {
			return err
		}
	} else {
		for _, f := range figsRun {
			f.Print(out)
		}
	}
	format := "jsonl"
	if strings.HasSuffix(*traceOut, ".json") {
		format = "chrome"
	}
	tf, err := os.Create(*traceOut)
	if err != nil {
		return err
	}
	defer tf.Close()
	return bench.WriteTraces(tf, figsRun, format)
}

// buildOverride turns the -topo, -partition, -recover, -snapshot,
// -adaptive and -trace flags into an experiment post-processor (nil when
// no flag is set).
func buildOverride(topo, partition string, recovery, snapshot, adaptive, traced bool) (func(*bench.Experiment), error) {
	var steps []func(*bench.Experiment)
	if traced {
		steps = append(steps, func(e *bench.Experiment) { e.Trace = true })
	}
	if recovery {
		steps = append(steps, func(e *bench.Experiment) {
			if e.Stack.Recover == nil { // keep a figure's own recovery tuning
				e.Stack.Recover = &core.RecoverConfig{}
			}
		})
	}
	if snapshot {
		steps = append(steps, func(e *bench.Experiment) { e.Stack.Snapshot = true })
	}
	if adaptive {
		steps = append(steps, func(e *bench.Experiment) { e.Stack.Adaptive = true })
	}
	if topo != "" {
		params, err := bench.NamedParams(topo)
		if err != nil {
			return nil, err
		}
		steps = append(steps, func(e *bench.Experiment) { e.Params = params })
	}
	if partition != "" {
		from, until, procs, drop, err := parsePartition(partition)
		if err != nil {
			return nil, err
		}
		steps = append(steps, func(e *bench.Experiment) {
			e.PartitionFrom = from
			e.PartitionUntil = until
			e.PartitionMinority = procs
			e.PartitionDrop = drop
		})
	}
	if len(steps) == 0 {
		return nil, nil
	}
	return func(e *bench.Experiment) {
		for _, s := range steps {
			s(e)
		}
	}, nil
}

// parsePartition parses from:until:p,q[,...][:drop].
func parsePartition(s string) (from, until time.Duration, procs []int, drop bool, err error) {
	parts := strings.Split(s, ":")
	if len(parts) == 4 && parts[3] == "drop" {
		drop = true
		parts = parts[:3]
	}
	if len(parts) != 3 {
		return 0, 0, nil, false, fmt.Errorf("bad -partition %q, want from:until:procs[:drop]", s)
	}
	if from, err = time.ParseDuration(parts[0]); err != nil {
		return 0, 0, nil, false, fmt.Errorf("bad -partition start: %w", err)
	}
	if until, err = time.ParseDuration(parts[1]); err != nil {
		return 0, 0, nil, false, fmt.Errorf("bad -partition end: %w", err)
	}
	if until <= from || from <= 0 {
		return 0, 0, nil, false, fmt.Errorf("bad -partition window %v..%v, want 0 < from < until", from, until)
	}
	for _, f := range strings.Split(parts[2], ",") {
		p, perr := strconv.Atoi(strings.TrimSpace(f))
		if perr != nil || p < 1 {
			return 0, 0, nil, false, fmt.Errorf("bad -partition process %q", f)
		}
		procs = append(procs, p)
	}
	return from, until, procs, drop, nil
}
