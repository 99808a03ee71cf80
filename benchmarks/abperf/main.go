// Command abperf is the repository's wall-clock benchmark: five workloads
// over tcpnet loopback sockets and the public abcast.Cluster, end-to-end
// metrics from an untraced pass, per-layer metrics from a traced pass and
// from timing the layers' public functions from outside. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// closedWorkloads are the four closed-loop workloads. Warm-up counts are
// sized to about a second each on the development box, so that set-up time
// is not dominated by cold-start jitter.
var closedWorkloads = map[string]closedWork{
	"tcp_serial":        {tcp: true, size: 64, clients: 1, warm: 6000, rate: 12000},
	"tcp_saturated":     {tcp: true, size: 64, clients: 32, warm: 25000, rate: 40000},
	"tcp_large_durable": {tcp: true, durable: true, size: 16 << 10, clients: 8, warm: 9000, rate: 15000},
	"live_saturated":    {size: 64, clients: 64, warm: 80000, rate: 130000},
}

const crashWorkload = "live_crash_restart"

var workloadNames = []string{"tcp_serial", "tcp_saturated", "tcp_large_durable", "live_saturated", crashWorkload}

// shrink scales every fixed count and pause of the benchmark. It is 1; the
// smoke test sets it to 1/200.
var shrink = 1.0

func scaled(d time.Duration) time.Duration { return time.Duration(float64(d) * shrink) }

// scaledCount is count at the benchmark's scale, at least 2.
func scaledCount(count int) int { return max(2, int(float64(count)*shrink)) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics")
	repeat := flag.Int("repeat", 0, "self-check: run every workload this many times and report the spread")
	flag.Parse()

	if *repeat > 0 {
		os.Exit(selfCheck(*repeat, *seed, *seconds))
	}
	res, err := runWorkload(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traced != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abperf:", err)
		os.Exit(1)
	}
	printHeader(*workload, *seed, *seconds)
	printMetrics(res)
	line, _ := json.Marshal(res) // plain maps and numbers: cannot fail
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(2)
	}
}

// runWorkload runs one pass of one workload and names its metrics.
func runWorkload(name string, seed int64, d time.Duration, traced bool) (result, error) {
	var (
		values map[string]float64
		v      verdict
		err    error
	)
	switch w, closed := closedWorkloads[name]; {
	case traced:
		values, v, err = perLayer(name, seed, d)
	case closed || name == crashWorkload:
		var r measured
		if closed {
			r, err = w.measure(seed, d)
		} else {
			r, err = measureCrash(seed, d)
		}
		if err == nil {
			values, v = endToEnd(r.segs), r.verdict
			values["setup_s"] = median(r.setups)
		}
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return result{}, err
	}
	if v.violation != "" {
		fmt.Fprintln(os.Stderr, "abperf: INCORRECT:", v.violation)
	}
	res := result{
		Correct:   v.violation == "",
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics:   make(map[string]metricValue, len(values)),
	}
	for name, x := range values {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return result{}, fmt.Errorf("metric %s is not finite", name)
		}
		res.Metrics[name] = metricValue{Value: x, Unit: unitOf(name)}
	}
	return res, nil
}

func printHeader(workload string, seed int64, seconds float64) {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	fmt.Printf("# abperf workload=%s seed=%d seconds=%g %s nproc=%d GOMAXPROCS=%d kernel=%s\n",
		workload, seed, seconds, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), kernel)
}

func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-40s %16.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
}
