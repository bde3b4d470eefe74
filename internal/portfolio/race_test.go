package portfolio_test

import (
	"context"
	"testing"

	"macroplace/internal/gen"
	"macroplace/internal/netlist"
	"macroplace/internal/portfolio"
	"macroplace/internal/portfolio/conformance"
)

func raceDesign(t testing.TB) *netlist.Design {
	t.Helper()
	d, err := gen.IBM("ibm01", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func raceOpts() portfolio.Options {
	o := conformance.SmokeOptions()
	o.Seed = 5
	return o
}

func TestRaceValidation(t *testing.T) {
	d := raceDesign(t)
	if _, err := portfolio.Race(context.Background(), d, portfolio.RaceConfig{}); err == nil {
		t.Error("empty race did not error")
	}
	if _, err := portfolio.Race(context.Background(), d, portfolio.RaceConfig{
		Backends: []string{"no-such"},
	}); err == nil {
		t.Error("unknown backend did not error")
	}
	if _, err := portfolio.Race(context.Background(), d, portfolio.RaceConfig{
		Backends: []string{portfolio.BackendMinCut, portfolio.BackendMinCut},
	}); err == nil {
		t.Error("duplicate backend did not error")
	}
}

// TestRaceDeterministicAndBitIdentical: with Grace 0 (no straggler
// pruning) a race is a pure function of (design, backends, opts) —
// same winner, same outcomes — and the winner's outcome is
// bit-identical to running that backend directly.
func TestRaceDeterministicAndBitIdentical(t *testing.T) {
	d := raceDesign(t)
	cfg := portfolio.RaceConfig{
		Backends: []string{portfolio.BackendMinCut, portfolio.BackendMaskPlace, portfolio.BackendSE},
		Opts:     raceOpts(),
	}
	var incs []portfolio.Incumbent
	cfg.OnIncumbent = func(inc portfolio.Incumbent) { incs = append(incs, inc) }

	rr, err := portfolio.Race(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Outcomes) != len(cfg.Backends) {
		t.Fatalf("outcomes = %d, want %d", len(rr.Outcomes), len(cfg.Backends))
	}
	for i, o := range rr.Outcomes {
		if o.Backend != cfg.Backends[i] {
			t.Errorf("outcome %d is %q, want order-preserving %q", i, o.Backend, cfg.Backends[i])
		}
		if o.Err != "" {
			t.Errorf("%s failed: %s", o.Backend, o.Err)
		}
		if o.Cancelled {
			t.Errorf("%s cancelled with Grace=0", o.Backend)
		}
	}
	win := rr.WinnerOutcome()
	for _, o := range rr.Outcomes {
		if o.Err == "" && o.HPWL < win.HPWL {
			t.Errorf("winner %s (%v) beaten by %s (%v)", rr.Winner, win.HPWL, o.Backend, o.HPWL)
		}
	}
	// The incumbent stream is strictly decreasing and ends at (or
	// below) the winner's final HPWL.
	if len(incs) == 0 {
		t.Fatal("no incumbents streamed")
	}
	for i := 1; i < len(incs); i++ {
		if incs[i].HPWL >= incs[i-1].HPWL {
			t.Errorf("incumbent %d (%v) did not improve on %v", i, incs[i].HPWL, incs[i-1].HPWL)
		}
	}
	if last := incs[len(incs)-1].HPWL; last > win.HPWL {
		t.Errorf("final incumbent %v above winner HPWL %v", last, win.HPWL)
	}

	// Determinism: a second race reproduces every outcome bit-exactly.
	cfg.OnIncumbent = nil
	rr2, err := portfolio.Race(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rr2.Winner != rr.Winner {
		t.Fatalf("winner changed across runs: %q vs %q", rr.Winner, rr2.Winner)
	}
	for i := range rr.Outcomes {
		if rr.Outcomes[i].HPWL != rr2.Outcomes[i].HPWL {
			t.Errorf("%s HPWL differs across races: %v vs %v",
				rr.Outcomes[i].Backend, rr.Outcomes[i].HPWL, rr2.Outcomes[i].HPWL)
		}
	}

	// Bit-identity: the winner standalone reproduces its race outcome.
	p, _ := portfolio.Lookup(rr.Winner)
	direct, err := p.PlaceContext(context.Background(), d, raceOpts())
	if err != nil {
		t.Fatal(err)
	}
	if direct.HPWL != win.HPWL || direct.MacroOverlap != win.MacroOverlap {
		t.Errorf("direct run differs from race outcome: hpwl %v vs %v, overlap %v vs %v",
			direct.HPWL, win.HPWL, direct.MacroOverlap, win.MacroOverlap)
	}
	pa, pb := direct.Placed.Positions(), win.Placed.Positions()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("direct vs race position differs at node %d: %v vs %v", i, pa[i], pb[i])
		}
	}
	// And the winner's race placement passes the shared result checks.
	conformance.CheckResult(t, rr.Winner, d, portfolio.Result{
		Backend: rr.Winner, HPWL: win.HPWL, MacroOverlap: win.MacroOverlap,
		Converged: win.Converged, Placed: win.Placed,
	})
}

// TestRaceSurvivesBackendError: a failing backend is an Outcome, not a
// race failure, as long as someone finishes.
func TestRaceSurvivesBackendError(t *testing.T) {
	// A design with no movable macros makes the mcts backend error
	// (core.New refuses) while mincut still places the cells.
	d := raceDesign(t)
	for i := range d.Nodes {
		if d.Nodes[i].Kind == netlist.Macro {
			d.Nodes[i].Fixed = true
		}
	}
	rr, err := portfolio.Race(context.Background(), d, portfolio.RaceConfig{
		Backends: []string{portfolio.BackendMCTS, portfolio.BackendMinCut},
		Opts:     raceOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Outcomes[0].Err == "" {
		t.Error("mcts on a macro-less design should fail")
	}
	if rr.Winner != portfolio.BackendMinCut {
		t.Errorf("winner = %q, want mincut", rr.Winner)
	}
}
