package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// declaration is the part of BENCHMARK.json compare needs.
type declaration struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// Verdicts.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// comparison is one metric on one workload, parent against change.
type comparison struct {
	workload, metric              string
	parentMed, parentQ1, parentQ3 float64
	changeMed, changeQ1, changeQ3 float64
	pairs, wins                   int
	verdict                       string
}

// judge applies the gain and no-regression rules to one metric on one
// workload. parent and change are keyed by seed; runs pair up by seed.
// bound is the share of the parent's median the metric may worsen by
// (0: a per-layer metric, which has none).
//
// A change improved the metric when it wins at least nine tenths of at
// least minPairs pairs and the medians differ, in its favour, by more
// than the parent's own quartile spread. A bounded metric regressed
// when the change's median is worse than the parent's by more than the
// bound; when the parent's spread is itself wider than the bound the
// metric is unresolved instead, unless every change run beats every
// parent run. An unbounded metric regressed when the rule for a gain
// holds the other way round.
func judge(parent, change map[int64]float64, higher bool, bound float64) comparison {
	pv, cv := values(parent), values(change)
	c := comparison{parentMed: median(pv), changeMed: median(cv)}
	c.parentQ1, c.parentQ3 = quartiles(pv)
	c.changeQ1, c.changeQ3 = quartiles(cv)
	better := func(a, b float64) bool {
		if higher {
			return a > b
		}
		return a < b
	}
	losses := 0
	for seed, p := range parent {
		ch, ok := change[seed]
		if !ok {
			continue
		}
		c.pairs++
		switch {
		case better(ch, p):
			c.wins++
		case better(p, ch):
			losses++
		}
	}
	iqr := c.parentQ3 - c.parentQ1
	gain := c.changeMed - c.parentMed
	if !higher {
		gain = -gain
	}
	enough := c.pairs >= minPairs
	switch {
	case enough && float64(c.wins) >= 0.9*float64(c.pairs) && gain > iqr:
		c.verdict = improved
	case bound == 0 && enough && float64(losses) >= 0.9*float64(c.pairs) && -gain > iqr:
		c.verdict = regressed
	case bound == 0:
		c.verdict = unchanged
	case iqr > bound*math.Abs(c.parentMed) && !allBetter(cv, pv, better):
		c.verdict = unresolved
	case -gain > bound*math.Abs(c.parentMed):
		c.verdict = regressed
	default:
		c.verdict = unchanged
	}
	return c
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// allBetter reports whether every change value beats every parent
// value.
func allBetter(change, parent []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return len(change) > 0 && len(parent) > 0
}

// readRecords loads every run record in dir.
func readRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	recs := make([]record, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// compareRuns judges every declared metric on every workload both
// sides ran.
func compareRuns(decl declaration, parent, change []record) []comparison {
	type key struct {
		workload, metric string
	}
	collect := func(recs []record) map[key]map[int64]float64 {
		out := make(map[key]map[int64]float64)
		for _, rec := range recs {
			for name, mv := range rec.Result.Metrics {
				k := key{rec.Workload, name}
				if out[k] == nil {
					out[k] = make(map[int64]float64)
				}
				out[k][rec.Seed] = mv.Value
			}
		}
		return out
	}
	pm, cm := collect(parent), collect(change)
	var workloadNames []string
	seen := make(map[string]bool)
	for k := range pm {
		if !seen[k.workload] {
			seen[k.workload] = true
			workloadNames = append(workloadNames, k.workload)
		}
	}
	sort.Strings(workloadNames)
	var out []comparison
	judgeAll := func(name, better string, bound float64) {
		for _, w := range workloadNames {
			k := key{w, name}
			if len(pm[k]) == 0 || len(cm[k]) == 0 {
				continue
			}
			c := judge(pm[k], cm[k], better == "higher", bound)
			c.workload, c.metric = w, name
			out = append(out, c)
		}
	}
	for _, m := range decl.EndToEnd {
		judgeAll(m.Name, m.Better, m.Bound)
	}
	for _, m := range decl.PerLayer {
		judgeAll(m.Name, m.Better, 0)
	}
	return out
}

// compareMain is `compare [-benchmark FILE] PARENT-DIR CHANGE-DIR`: it
// judges the run records saved in two directories (the runs/ directory
// a run writes under -out) against the bounds BENCHMARK.json declares.
// It exits 1 when any metric regressed.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark declaration holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "bench: want compare [-benchmark FILE] PARENT-DIR CHANGE-DIR")
		return 2
	}
	data, err := os.ReadFile(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var decl declaration
	if err := json.Unmarshal(data, &decl); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *spec, err)
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rows := compareRuns(decl, parent, change)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins/pairs\tverdict")
	status := 0
	for _, c := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%d/%d\t%s\n",
			c.workload, c.metric, c.parentMed, c.parentQ1, c.parentQ3,
			c.changeMed, c.changeQ1, c.changeQ3, c.wins, c.pairs, c.verdict)
		if c.verdict == regressed {
			status = 1
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	return status
}
