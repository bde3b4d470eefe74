package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// toyParams shrinks every workload to a few hundred milliseconds.
func toyParams() params {
	return params{
		flow:        size{scale: 0.005, episodes: 2, gamma: 2, inputs: 1},
		search:      size{scale: 0.01, episodes: 1, gamma: 2, inputs: 1},
		ingest:      size{scale: 0.003, episodes: 2, gamma: 2, inputs: 1},
		serve:       size{scale: 0.005, episodes: 2, gamma: 2, inputs: 1},
		warmRepeats: 1,
		setupReps:   1,
	}
}

// benchmarkJSON is the declaration at the repository root.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, program has %+v", i, m.Name, m.Unit, m.Better, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, program has %+v", i, m.Name, m.Unit, m.Better, d)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s, program has %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at toy size, untraced and
// traced, and checks each run passes its own checks and prints every
// declared metric with its unit as its last line.
func TestSmokeAllWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range b.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout bytes.Buffer
			// No time box: the minimum rounds only.
			code := runOne(w.name, w.run, 3, 0, trace == "1", out, toyParams(), &stdout)
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line %q: %v", w.name, trace, lines[len(lines)-1], err)
			}
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: exit %d, result %+v", w.name, trace, code, res)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				if mv, ok := res.Metrics[name]; !ok || mv.Unit != unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.name, trace, name, mv, unit)
				}
			}
		}
	}
}
