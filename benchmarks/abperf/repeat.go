package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// selfCheck is the -repeat mode: it runs every workload, both passes, rounds
// times — each run in a process of its own, as the driver does, each round
// with another seed — and prints every metric's median and quartiles. An
// end-to-end metric whose interquartile range exceeds half its bound is
// flagged: a regression of the size of the bound would not stand out from
// the noise. It returns the process's exit code.
func selfCheck(rounds int, seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "abperf:", err)
		return 1
	}
	type series struct{ workload, pass, metric string }
	values := make(map[series][]float64) // one value per round
	for r := 0; r < rounds; r++ {
		for _, w := range workloadNames {
			for _, pass := range []string{"0", "1"} {
				cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed+int64(r), 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", pass)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "abperf: round %d %s --trace %s: %v\n", r, w, pass, err)
					return 1
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					fmt.Fprintf(os.Stderr, "abperf: round %d %s --trace %s: %v\n", r, w, pass, err)
					return 1
				}
				for name, m := range res.Metrics {
					key := series{w, pass, name}
					values[key] = append(values[key], m.Value)
				}
				fmt.Fprintf(os.Stderr, "round %d/%d %s --trace %s: attempted %d, failed %d\n", r+1, rounds, w, pass, res.Attempted, res.Failed)
			}
		}
	}
	bounds := make(map[string]float64, len(endToEndMetrics))
	for _, d := range endToEndMetrics {
		bounds[d.name] = d.bound
	}
	keys := make([]series, 0, len(values))
	for key := range values {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.pass != b.pass {
			return a.pass < b.pass
		}
		return a.metric < b.metric
	})
	printHeader("all", seed, seconds)
	fmt.Printf("%-20s %-36s %-6s %14s %14s %14s %8s\n", "workload", "metric", "unit", "q1", "median", "q3", "iqr/med")
	noisy := 0
	for _, key := range keys {
		w, name := key.workload, key.metric
		if len(values[key]) < 2 {
			fmt.Printf("%-20s %-36s %-6s %14s %14.4f\n", w, name, unitOf(name), "", values[key][0])
			continue
		}
		q1, med, q3 := quartiles(values[key])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		flag := ""
		if bound, gated := bounds[name]; gated && name != "setup_s" && spread > bound/2 {
			flag = fmt.Sprintf("  NOISY: over half the bound of %g", bound)
			noisy++
		}
		fmt.Printf("%-20s %-36s %-6s %14.4f %14.4f %14.4f %7.2f%%%s\n", w, name, unitOf(name), q1, med, q3, 100*spread, flag)
	}
	if noisy > 0 {
		fmt.Printf("%d end-to-end metrics are noisier than half their bound\n", noisy)
		return 3
	}
	return 0
}
