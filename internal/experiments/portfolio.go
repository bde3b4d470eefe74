package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"macroplace/internal/portfolio"
)

// PortfolioRow is one benchmark's race outcome across backends.
type PortfolioRow struct {
	Benchmark string
	// Winner is the error-free backend with the lowest HPWL.
	Winner string
	// HPWL maps backend → final HPWL (absent when the backend errored).
	HPWL map[string]float64
	// Errs maps backend → error text for backends that failed.
	Errs map[string]string
	// Seconds maps backend → wall-clock seconds.
	Seconds map[string]float64
}

// PortfolioResult is a completed portfolio leaderboard sweep: every
// configured backend raced on every benchmark, deterministic (Grace=0,
// every backend runs to completion) so the committed numbers are
// bit-reproducible.
type PortfolioResult struct {
	Backends []string // column order, as raced
	Rows     []PortfolioRow
	// Wins counts victories per backend over the completed rows.
	Wins map[string]int
}

// PortfolioLeaderboard races the given backends on the configured IBM
// suite and tallies per-benchmark winners — the head-to-head version
// of Tables II/III where every method gets the same wall-clock
// opportunity instead of its own bespoke driver. effort scales each
// backend's budget (0 = full, matching portfolio.Options). The sweep
// honours Config.Context with the same partial-result semantics as the
// table drivers: completed rows are returned alongside the error.
//
// An empty lineup races every registered backend (portfolio.Names).
func PortfolioLeaderboard(cfg Config, backends []string, effort float64) (*PortfolioResult, error) {
	cfg = cfg.normalize()
	if len(backends) == 0 {
		backends = portfolio.Names()
	}
	res := &PortfolioResult{Backends: backends, Wins: make(map[string]int)}
	rows := make([]*PortfolioRow, len(cfg.IBM))
	errs := cfg.runSweep(cfg.IBM, func(i int, name string, logf logFunc) error {
		d, err := cfg.ibmDesign(name, int64(i))
		if err != nil {
			return err
		}
		opts := portfolio.Options{
			Seed: cfg.Seed + int64(i), Zeta: cfg.Zeta, Effort: effort,
			Workers: cfg.Workers, Channels: cfg.Channels, ResBlocks: cfg.ResBlocks,
			Episodes: cfg.Episodes, Gamma: cfg.Gamma,
		}
		rr, err := portfolio.Race(cfg.ctx(), d, portfolio.RaceConfig{
			Backends: backends, Opts: opts,
		})
		if err != nil {
			return fmt.Errorf("experiments: portfolio %s: %w", name, err)
		}
		row := &PortfolioRow{
			Benchmark: name, Winner: rr.Winner,
			HPWL:    make(map[string]float64, len(backends)),
			Errs:    make(map[string]string),
			Seconds: make(map[string]float64, len(backends)),
		}
		for _, o := range rr.Outcomes {
			row.Seconds[o.Backend] = o.WallSeconds
			if o.Err != "" {
				row.Errs[o.Backend] = o.Err
				continue
			}
			row.HPWL[o.Backend] = o.HPWL
		}
		rows[i] = row
		logf("portfolio %s: winner=%s hpwl=%.6g", name, rr.Winner, rr.WinnerOutcome().HPWL)
		return nil
	})
	for i, err := range errs {
		if err != nil {
			partial := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
			if partial {
				return res, err
			}
			return nil, err
		}
		if rows[i] != nil {
			res.Rows = append(res.Rows, *rows[i])
			res.Wins[rows[i].Winner]++
		}
	}
	return res, nil
}

// WritePortfolio renders the leaderboard: one row per benchmark with
// every backend's HPWL, the winner column, and a wins tally footer.
func WritePortfolio(w io.Writer, r *PortfolioResult) {
	fmt.Fprintln(w, "Portfolio race — per-benchmark winner across backends (HPWL)")
	fmt.Fprintf(w, "%-8s", "bench")
	for _, b := range r.Backends {
		fmt.Fprintf(w, " %12s", b)
	}
	fmt.Fprintf(w, " %12s\n", "winner")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s", row.Benchmark)
		for _, b := range r.Backends {
			if _, bad := row.Errs[b]; bad {
				fmt.Fprintf(w, " %12s", "error")
				continue
			}
			fmt.Fprintf(w, " %12.4g", row.HPWL[b])
		}
		fmt.Fprintf(w, " %12s\n", row.Winner)
	}
	fmt.Fprintf(w, "wins:")
	// Deterministic footer order: column order first, then any
	// stragglers (cannot happen today, but cheap to keep stable).
	seen := map[string]bool{}
	for _, b := range r.Backends {
		if n := r.Wins[b]; n > 0 {
			fmt.Fprintf(w, " %s=%d", b, n)
		}
		seen[b] = true
	}
	var rest []string
	for b := range r.Wins {
		if !seen[b] {
			rest = append(rest, b)
		}
	}
	sort.Strings(rest)
	for _, b := range rest {
		fmt.Fprintf(w, " %s=%d", b, r.Wins[b])
	}
	fmt.Fprintln(w)
}
