// Command bench is the repository's benchmark: four workloads that use
// the placer the way its users do — the full flow, search alone, design
// ingestion from files, and the placement daemon under client load.
// A run generates its inputs from -seed, measures for -seconds, checks
// every output, and prints its metrics; the last line of its output is
// one JSON object with the verdict and the metrics. With -trace 1 a
// separate traced run prints the per-layer metrics instead. See
// README.md for the workloads, the metrics, and how to compare two
// commits.
//
// Run it from the repository root:
//
//	bash bench/run.sh -workload flow -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -seed 1                  # all four workloads
//	bash bench/run.sh compare <parent-dir> <change-dir>
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"macroplace/internal/atomicio"
)

// workloads in the order a full run executes them.
var workloads = []struct {
	name string
	run  func(*runner) error
}{
	{"flow", runFlow},
	{"search", runSearch},
	{"ingest", runIngest},
	{"serve", runServe},
}

// runLimit bounds one workload run; past it the run gives up without a
// result rather than overrun its caller's budget.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, defaultParams()))
}

func run(args []string, stdout io.Writer, p params) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: flow, search, ingest or serve (empty: all four, each in its own process)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "how long one run measures, in seconds")
	trace := fs.Int("trace", 0, "1: run the traced variant and print the per-layer metrics")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for run records, traces and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: want -workload W -seed N -seconds S -trace 0|1, or compare DIR DIR")
		return 2
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *trace, *out, stdout)
	}
	for _, w := range workloads {
		if w.name == *workload {
			return runOne(w.name, w.run, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, p, stdout)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
	return 2
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host is the machine shape a result was measured on.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func thisHost() host {
	return host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// record is a run as saved under <out>/runs for compare.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Host     host           `json:"host"`
	Result   result         `json:"result"`
	Samples  map[string]int `json:"samples"`
}

// runOne runs one workload in this process, measuring for at least
// seconds.
func runOne(name string, fn func(*runner) error, seed int64, seconds time.Duration, trace bool, out string, p params, stdout io.Writer) int {
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s run exceeded %v\n", name, runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(out, name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &runner{workload: name, seed: seed, seconds: seconds, p: p, ctx: ctx, dir: dir}
	if trace {
		r.tr = newTracer()
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 2
	}

	defs, m, jobs := endToEnd, map[string]sample(nil), r.jobs
	if trace {
		defs, m, jobs = perLayer, r.perLayerMetrics(), r.traced
	} else {
		m = r.endToEndMetrics()
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(defs))}
	rec := record{Workload: name, Seed: seed, Seconds: seconds.Seconds(), Trace: trace, Host: thisHost(), Samples: make(map[string]int)}
	h := rec.Host
	fmt.Fprintf(stdout, "host num_cpu=%d gomaxprocs=%d go=%s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion)
	for _, line := range kindSummary(name, jobs) {
		fmt.Fprintln(stdout, line)
	}
	for _, d := range defs {
		s, ok := m[d.name]
		if !ok || math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			fmt.Fprintf(os.Stderr, "%s: metric %s: FAILED: not measured (%v)\n", name, d.name, s.value)
			res.Failed++
			s.value = 0
		}
		res.Metrics[d.name] = metricValue{s.value, d.unit}
		rec.Samples[d.name] = s.n
		fmt.Fprintf(stdout, "%s.%s %.6g %s n=%d\n", name, d.name, s.value, d.unit, s.n)
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, res.Failed+1
		fmt.Fprintf(os.Stderr, "%s: FAILED: no job ran\n", name)
	}
	res.Correct = res.Failed == 0
	rec.Result = res

	if r.tr != nil {
		if err := r.tr.write(filepath.Join(out, name+".trace.json")); err != nil {
			fmt.Fprintln(os.Stderr, "bench: write trace:", err)
		}
	}
	if err := writeRecord(filepath.Join(out, "runs"), rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: write run record:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func writeRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if rec.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, trace)
	return atomicio.WriteFileBytes(filepath.Join(dir, name), append(data, '\n'))
}

// runAll runs every workload in its own child process, so each starts
// with fresh process-wide state (the ECO warm store, the metrics
// registry, the GEMM worker pool) and reports its own peak RSS. It
// prints each child's lines, then one result whose metrics are named
// <workload>.<metric>.
func runAll(seed int64, seconds, trace int, out string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	all := result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, w := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", out)
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s printed no result (%v)\n", w.name, runErr)
			return 2
		}
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		all.Correct = all.Correct && res.Correct && runErr == nil
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !all.Correct {
		return 1
	}
	return 0
}
