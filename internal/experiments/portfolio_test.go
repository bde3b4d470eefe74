package experiments

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"macroplace/internal/portfolio"
)

// TestPortfolioLeaderboardQuick races a fast backend lineup on two
// tiny benchmarks and pins the leaderboard contract: complete rows in
// sweep order, a winner per row with the minimal HPWL, a consistent
// wins tally, and bit-reproducibility across runs (Grace=0 races are
// pure functions of their inputs).
func TestPortfolioLeaderboardQuick(t *testing.T) {
	cfg := quick()
	cfg.Scale = 0.01
	cfg.IBM = []string{"ibm01", "ibm02"}
	lineup := []string{portfolio.BackendMinCut, portfolio.BackendMaskPlace, portfolio.BackendSE}

	run := func() *PortfolioResult {
		res, err := PortfolioLeaderboard(cfg, lineup, 0.05)
		if err != nil {
			t.Fatalf("PortfolioLeaderboard: %v", err)
		}
		return res
	}
	res := run()

	if len(res.Rows) != len(cfg.IBM) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(cfg.IBM))
	}
	wins := 0
	for i, row := range res.Rows {
		if row.Benchmark != cfg.IBM[i] {
			t.Errorf("row %d benchmark %q, want %q (sweep order)", i, row.Benchmark, cfg.IBM[i])
		}
		if len(row.Errs) != 0 {
			t.Errorf("%s: backend errors %v", row.Benchmark, row.Errs)
		}
		best, ok := row.HPWL[row.Winner]
		if !ok {
			t.Fatalf("%s: winner %q has no HPWL entry", row.Benchmark, row.Winner)
		}
		for b, h := range row.HPWL {
			if h < best {
				t.Errorf("%s: %s hpwl %v beats declared winner %s (%v)", row.Benchmark, b, h, row.Winner, best)
			}
			if row.Seconds[b] < 0 {
				t.Errorf("%s: %s wall seconds %v", row.Benchmark, b, row.Seconds[b])
			}
		}
		wins += res.Wins[row.Winner]
	}
	total := 0
	for _, n := range res.Wins {
		total += n
	}
	if total != len(res.Rows) {
		t.Errorf("wins tally %v sums to %d, want %d", res.Wins, total, len(res.Rows))
	}

	// Bit-reproducible modulo wall clock: strip the timing maps, which
	// are the only fields allowed to differ between runs.
	stripTimes := func(r *PortfolioResult) PortfolioResult {
		c := *r
		c.Rows = append([]PortfolioRow(nil), r.Rows...)
		for i := range c.Rows {
			c.Rows[i].Seconds = nil
		}
		return c
	}
	res2 := run()
	if a, b := stripTimes(res), stripTimes(res2); !reflect.DeepEqual(a, b) {
		t.Errorf("leaderboard not reproducible:\n%+v\nvs\n%+v", a, b)
	}

	var buf bytes.Buffer
	WritePortfolio(&buf, res)
	out := buf.String()
	for _, b := range lineup {
		if !strings.Contains(out, b) {
			t.Errorf("rendered leaderboard missing backend %s:\n%s", b, out)
		}
	}

	dir := t.TempDir()
	path, err := SaveCSV(dir, res)
	if err != nil {
		t.Fatalf("SaveCSV: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != len(res.Rows)+1 {
		t.Errorf("portfolio.csv has %d lines, want %d", lines, len(res.Rows)+1)
	}
}

// TestPortfolioLeaderboardDefaultLineup: a nil lineup races every
// registered backend, so each gets a column and a finite HPWL.
func TestPortfolioLeaderboardDefaultLineup(t *testing.T) {
	cfg := quick()
	cfg.Scale = 0.01
	cfg.IBM = []string{"ibm01"}
	res, err := PortfolioLeaderboard(cfg, nil, 0.05)
	if err != nil {
		t.Fatalf("PortfolioLeaderboard: %v", err)
	}
	if want := portfolio.Names(); !reflect.DeepEqual(res.Backends, want) {
		t.Errorf("columns %v, want every registered backend %v", res.Backends, want)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	for _, b := range res.Backends {
		h, ok := row.HPWL[b]
		if !ok {
			t.Errorf("%s: no HPWL (error %q)", b, row.Errs[b])
			continue
		}
		if h <= 0 || math.IsInf(h, 0) || math.IsNaN(h) {
			t.Errorf("%s: HPWL %v", b, h)
		}
	}
}
