// Command experiments regenerates the paper's evaluation — every
// figure and table of Sec. VI plus the ablations — on the synthetic
// benchmark suites, and prints them in the paper's row/column layout.
//
// Usage:
//
//	experiments -run all -preset quick
//	experiments -run fig4,tableIII -preset standard
//	experiments -run tableII -scale 0.1 -episodes 200
//	experiments -run tableIII -timeout 10m
//
// SIGINT/SIGTERM or -timeout interrupt the sweep gracefully: finished
// benchmark rows are rendered before exiting, and the benchmark in
// flight completes with its best-so-far placement.
//
// Absolute numbers differ from the paper (the substrate is a CPU
// simulator, not the authors' testbed); the comparisons' shape — who
// wins, by roughly what factor — is the reproduction target. See
// EXPERIMENTS.md for recorded paper-vs-measured values.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"macroplace"
	"macroplace/internal/experiments"
	"macroplace/internal/obs"
	"macroplace/internal/serve"
)

func main() {
	var (
		run      = flag.String("run", "all", "comma-separated: fig4,fig5,tableII,tableIII,tableIV,ablations,alphasweep,portfolio or all")
		preset   = flag.String("preset", "quick", `"quick" or "standard"`)
		scale    = flag.Float64("scale", 0, "override benchmark scale")
		episodes = flag.Int("episodes", 0, "override RL episodes")
		gamma    = flag.Int("gamma", 0, "override MCTS explorations per group")
		workers  = flag.Int("workers", 0, "parallel MCTS workers (default 1 = sequential/reproducible)")
		sweepW   = flag.Int("sweep-workers", 0, "concurrent benchmarks per table sweep (default = -workers; never changes the numbers)")
		zeta     = flag.Int("zeta", 0, "override grid resolution")
		seed     = flag.Int64("seed", 0, "override seed")
		ibm      = flag.String("ibm", "", "comma-separated ICCAD04 subset (default: preset's)")
		cir      = flag.String("cir", "", "comma-separated industrial subset (default: preset's)")
		verbose  = flag.Bool("v", false, "log per-benchmark progress to stderr")
		csvdir   = flag.String("csvdir", "", "also write machine-readable CSV artifacts into this directory")
		extended = flag.Bool("extended", false, "add the beyond-paper baselines (SA, SA-B*tree, MinCut) to Table II")
		backends = flag.String("backends", "", "comma-separated backend lineup for -run portfolio (default: all seven)")
		effort   = flag.Float64("effort", 0, "budget scale for -run portfolio backends (0 = full budget)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget; on expiry finished rows are rendered and the run stops (0 = none)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		telemetry  = flag.String("telemetry-addr", "", "serve /metrics, /healthz and pprof on this address (e.g. :6060; empty = off)")
		runSummary = flag.String("run-summary", "", "write a JSON metric snapshot to this file at exit (crash-safe, includes interrupted runs)")
	)
	flag.Parse()

	// The summary must be written on every exit path, including the
	// os.Exit calls below that skip defers — so each of them funnels
	// through writeSummary first.
	runFields := map[string]any{"command": "experiments", "interrupted": false}
	writeSummary := func() {
		if *runSummary == "" {
			return
		}
		if err := macroplace.WriteRunSummary(*runSummary, runFields); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: run-summary:", err)
		}
	}
	defer writeSummary()

	if *telemetry != "" {
		srv, err := macroplace.StartTelemetry(*telemetry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		// Bounded graceful drain so an in-flight scrape or pprof
		// capture completes instead of being cut mid-body.
		defer srv.ShutdownTimeout(10 * time.Second)
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics\n", srv.Addr)
	}

	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer stop()
	}
	if *memprofile != "" {
		defer func() {
			if err := obs.WriteMemProfile(*memprofile); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	// First SIGINT/SIGTERM interrupts the sweep gracefully; a second
	// force-exits 130 with the run summary flushed.
	ctx, stop := serve.Signals(context.Background(), func() {
		runFields["interrupted"] = true
		runFields["forced"] = true
		writeSummary()
		fmt.Fprintln(os.Stderr, "experiments: forced exit")
	})
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := experiments.Quick()
	if *preset == "standard" {
		cfg = experiments.Standard()
	}
	cfg.Context = ctx
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *episodes > 0 {
		cfg.Episodes = *episodes
	}
	if *gamma > 0 {
		cfg.Gamma = *gamma
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *sweepW > 0 {
		cfg.SweepWorkers = *sweepW
	}
	if *zeta > 0 {
		cfg.Zeta = *zeta
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *ibm != "" {
		cfg.IBM = strings.Split(*ibm, ",")
	}
	if *cir != "" {
		cfg.Cir = strings.Split(*cir, ",")
	}
	cfg.ExtendedBaselines = *extended
	if *verbose {
		cfg.Log = os.Stderr
	}

	want := map[string]bool{}
	for _, r := range strings.Split(*run, ",") {
		want[strings.TrimSpace(r)] = true
	}
	all := want["all"]
	out := os.Stdout

	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", what, err)
		runFields["error"] = fmt.Sprintf("%s: %v", what, err)
		writeSummary()
		os.Exit(1)
	}
	interrupted := func(err error) bool {
		return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}
	saveCSV := func(result any) {
		if *csvdir == "" {
			return
		}
		path, err := experiments.SaveCSV(*csvdir, result)
		if err != nil {
			fail("csv", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	// finish renders what an experiment produced — complete or partial
	// — then exits with the conventional SIGINT code when the context
	// was cancelled; any other error is fatal before rendering.
	finish := func(what string, err error, render func()) {
		if err != nil && !interrupted(err) {
			fail(what, err)
		}
		render()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s interrupted (%v) — results above are partial\n", what, err)
			runFields["interrupted"] = true
			runFields["interrupted_in"] = what
			writeSummary()
			os.Exit(130)
		}
	}

	if all || want["fig4"] {
		res, err := experiments.Figure4(cfg)
		finish("fig4", err, func() {
			saveCSV(res)
			experiments.WriteFig4(out, res)
			fmt.Fprintln(out)
		})
	}
	if all || want["fig5"] {
		res, err := experiments.Figure5(cfg, nil)
		finish("fig5", err, func() {
			saveCSV(res)
			experiments.WriteFig5(out, res)
			fmt.Fprintln(out)
		})
	}
	if all || want["tableII"] {
		tab, err := experiments.TableII(cfg)
		finish("tableII", err, func() {
			saveCSV(tab)
			experiments.WriteTable(out, tab)
			fmt.Fprintln(out)
		})
	}
	if all || want["tableIII"] {
		tab, err := experiments.TableIII(cfg)
		finish("tableIII", err, func() {
			saveCSV(tab)
			experiments.WriteTable(out, tab)
			fmt.Fprintln(out)
		})
	}
	if all || want["tableIV"] {
		rows, err := experiments.TableIV(cfg)
		finish("tableIV", err, func() {
			saveCSV(rows)
			experiments.WriteTableIV(out, rows)
			fmt.Fprintln(out)
		})
	}
	if all || want["alphasweep"] {
		res, err := experiments.AlphaSweep(cfg, nil)
		finish("alphasweep", err, func() {
			saveCSV(res)
			experiments.WriteAlphaSweep(out, res)
			fmt.Fprintln(out)
		})
	}
	if all || want["portfolio"] {
		var lineup []string
		if *backends != "" {
			lineup = strings.Split(*backends, ",")
		}
		res, err := experiments.PortfolioLeaderboard(cfg, lineup, *effort)
		finish("portfolio", err, func() {
			saveCSV(res)
			experiments.WritePortfolio(out, res)
			fmt.Fprintln(out)
		})
	}
	if all || want["ablations"] {
		type ab struct {
			name string
			fn   func(experiments.Config) (*experiments.AblationResult, error)
		}
		for _, a := range []ab{
			{"grouping", experiments.AblationGrouping},
			{"rollout", experiments.AblationRollout},
			{"puct", experiments.AblationPUCT},
			{"order", experiments.AblationOrder},
		} {
			res, err := a.fn(cfg)
			finish("ablation "+a.name, err, func() {
				saveCSV(res)
				experiments.WriteAblation(out, res)
				fmt.Fprintln(out)
			})
		}
	}
}
