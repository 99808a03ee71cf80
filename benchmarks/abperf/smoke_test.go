package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDeclarationsMatchBenchmarkFile holds BENCHMARK.json and the tables in
// metrics.go together.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	if len(f.EndToEnd) != len(endToEndMetrics) || len(f.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range f.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	for i, m := range f.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload and both passes at 1/200 scale and checks
// that each pass emits exactly the metrics declared for it, each with its
// unit and a finite value, and that the oracle accepts every run.
func TestSmoke(t *testing.T) {
	shrink = 1.0 / 200
	defer func() { shrink = 1 }()
	f := readBenchmarkFile(t)
	d := time.Duration(float64(f.RunSeconds) * shrink * float64(time.Second))
	start := time.Now()
	for _, w := range workloadNames {
		for pass, declared := range [][]decl{endToEndMetrics, perLayerMetrics} {
			res, err := runWorkload(w, 1, d, pass == 1)
			if err != nil {
				t.Fatalf("%s pass %d: %v", w, pass, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s pass %d: correct %v, attempted %d, failed %d", w, pass, res.Correct, res.Attempted, res.Failed)
			}
			want := make(map[string]string, len(declared))
			for _, m := range declared {
				want[m.name] = m.unit
				if !metricName.MatchString(m.name) {
					t.Errorf("metric name %q uses characters outside letters, digits, _ . -", m.name)
				}
			}
			for name, m := range res.Metrics {
				unit, ok := want[name]
				if !ok {
					t.Errorf("%s pass %d emits undeclared metric %s", w, pass, name)
				} else if m.Unit != unit {
					t.Errorf("%s pass %d: %s has unit %q, declared %q", w, pass, name, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s pass %d: %s is %v", w, pass, name, m.Value)
				}
				if pass == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w, name, m.Value)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s pass %d does not emit declared metric %s", w, pass, name)
			}
		}
	}
	// About 7 s on the development box, 17 s under the race detector.
	if took := time.Since(start); took > time.Minute {
		t.Errorf("smoke took %v", took)
	}
}
