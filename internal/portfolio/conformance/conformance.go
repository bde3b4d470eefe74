// Package conformance is the executable backend contract: a
// table-driven suite every portfolio.Placer implementation must pass,
// shared by the backend packages (internal/baseline, internal/core)
// and the portfolio package's own matrix (every backend on three
// designs), so a Table II/III-style comparison can trust that every
// method agrees on legality, metrics, determinism, cancellation, and
// fault containment.
//
// The invariants (DESIGN.md §11):
//
//  1. the input design is never mutated;
//  2. the placement is complete and legal — finite positions, movable
//     macros inside the region, macro overlap within tolerance;
//  3. reported metrics equal recomputation from the placed netlist,
//     bit-exactly (HPWL and MacroOverlap);
//  4. the placement is legal (legalize.Clean: movable-macro overlap
//     within legalize.ConvergenceEps, no constraint violation) and
//     Converged reports it, on every run the suite checks;
//  5. a fixed seed yields a bit-identical result;
//  6. cancellation returns a complete legal anytime incumbent within a
//     bounded grace period, flagged Interrupted;
//  7. injected evaluator faults (internal/faults) never escape the
//     PlaceContext boundary as panics;
//  8. with physical constraints active (halos, channel, fence, snap —
//     see ConstrainedDesign) the placement is constraint-clean:
//     zero halo/fence violations and row/track-snapped macro origins.
package conformance

import (
	"context"
	"math"
	"testing"
	"time"

	"macroplace/internal/faults"
	"macroplace/internal/gen"
	"macroplace/internal/geom"
	"macroplace/internal/legalize"
	"macroplace/internal/netlist"
	"macroplace/internal/portfolio"
)

// Config tunes a suite run. The zero value (plus Run's backend name)
// selects the standard designs, smoke-sized options, and every check
// the backend's capabilities support.
type Config struct {
	// Opts are the base backend options; zero selects SmokeOptions.
	Opts portfolio.Options
	// Designs are the designs to cover; nil selects StandardDesigns.
	Designs []*netlist.Design
	// CancelGrace bounds how long a cancelled PlaceContext may take to
	// return its anytime incumbent (default 2 minutes — generous for
	// race-detector runs on one core; real returns are milliseconds).
	CancelGrace time.Duration
}

// SmokeOptions returns the suite's default backend options: tiny
// Effort-scaled budgets and a small network, sized so the whole matrix
// stays test-suite fast while still exercising every stage.
func SmokeOptions() portfolio.Options {
	return portfolio.Options{
		Seed:      1,
		Zeta:      8,
		Effort:    0.05,
		Workers:   1,
		Channels:  4,
		ResBlocks: 1,
	}
}

// StandardDesigns generates the suite's three standard designs — two
// IBM-style and one cir-style synthetic benchmark at small scale, with
// distinct seeds so macro counts and net structures differ.
func StandardDesigns(t testing.TB) []*netlist.Design {
	t.Helper()
	ibm01, err := gen.IBM("ibm01", 0.02, 11)
	if err != nil {
		t.Fatal(err)
	}
	ibm04, err := gen.IBM("ibm04", 0.01, 12)
	if err != nil {
		t.Fatal(err)
	}
	cir1, err := gen.Cir("cir1", 0.003, 13)
	if err != nil {
		t.Fatal(err)
	}
	return []*netlist.Design{ibm01, ibm04, cir1}
}

// Run executes the full conformance suite for one backend as subtests
// of t. Backend packages invoke it as a one-liner:
//
//	conformance.Run(t, "se", conformance.Config{})
func Run(t *testing.T, backend string, cfg Config) {
	t.Helper()
	p, ok := portfolio.Lookup(backend)
	if !ok {
		t.Fatalf("conformance: backend %q not registered (have %v)", backend, portfolio.Names())
	}
	if cfg.Opts.Zeta == 0 && cfg.Opts.Effort == 0 {
		cfg.Opts = SmokeOptions()
	}
	if cfg.Designs == nil {
		cfg.Designs = StandardDesigns(t)
	}
	if cfg.CancelGrace <= 0 {
		cfg.CancelGrace = 2 * time.Minute
	}
	caps := p.Caps()

	for _, d := range cfg.Designs {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			res1 := place(t, p, context.Background(), d, cfg.Opts, cfg.CancelGrace)
			CheckResult(t, backend, d, res1)
			if caps.Deterministic {
				res2 := place(t, p, context.Background(), d, cfg.Opts, cfg.CancelGrace)
				checkIdentical(t, backend, res1, res2)
			}
		})
	}

	t.Run("constraints", func(t *testing.T) {
		for _, base := range cfg.Designs {
			d := ConstrainedDesign(t, base)
			t.Run(d.Name, func(t *testing.T) {
				res := place(t, p, context.Background(), d, cfg.Opts, cfg.CancelGrace)
				CheckResult(t, backend, d, res)
				if rep := res.Placed.ConstraintViolations(); !rep.Clean() {
					t.Errorf("%s: constraint violations on %s: %s", backend, d.Name, rep)
				}
			})
		}
	})

	if caps.Anytime {
		t.Run("cancel", func(t *testing.T) {
			d := cfg.Designs[0]
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // already cancelled before the run starts
			res := place(t, p, ctx, d, cfg.Opts, cfg.CancelGrace)
			// The budget was zero, but the result must still be a
			// complete legal anytime placement, marked interrupted.
			CheckResult(t, backend, d, res)
			if !res.Interrupted {
				t.Errorf("%s: cancelled run not flagged Interrupted", backend)
			}
		})
	}

	if caps.UsesEvaluator {
		t.Run("faults", func(t *testing.T) {
			for _, period := range []int{5, 1} {
				inj := &faults.Injector{PanicEvery: period}
				opts := cfg.Opts
				opts.WrapEvaluator = inj.Evaluator
				res, err := placeErr(t, p, context.Background(), cfg.Designs[0], opts, cfg.CancelGrace)
				if inj.EvalCalls() == 0 {
					t.Fatalf("%s: fault injector saw no evaluator calls (PanicEvery=%d)", backend, period)
				}
				// The invariant is containment: the panic must surface
				// as a degraded-but-legal result or as an error — never
				// escape PlaceContext (placeErr's goroutine would die
				// and the watchdog below would report it).
				if err == nil {
					CheckResult(t, backend, cfg.Designs[0], res)
				} else if inj.Panics() == 0 {
					t.Errorf("%s: error %v without any injected panic (PanicEvery=%d)", backend, err, period)
				}
			}
		})
	}
}

// ConstrainedDesign clones base and imposes a representative physical
// constraint set scaled to the region: small default halos with one
// per-macro override, a channel rule wider than the halo sum, a fence
// inset 5% from the region edges, and a snap lattice anchored at the
// fence corner. Every backend must place it constraint-clean —
// invariant 8. Exported so ad-hoc harnesses (the smoke flow's test
// mode) can reuse the exact geometry.
func ConstrainedDesign(t testing.TB, base *netlist.Design) *netlist.Design {
	t.Helper()
	d := base.Clone()
	w, h := d.Region.W(), d.Region.H()
	phys := &netlist.Constraints{
		HaloX:    0.002 * w,
		HaloY:    0.002 * h,
		ChannelX: 0.005 * w,
		ChannelY: 0.005 * h,
		Fence: &geom.Rect{
			Lx: d.Region.Lx + 0.05*w, Ly: d.Region.Ly + 0.05*h,
			Ux: d.Region.Ux - 0.05*w, Uy: d.Region.Uy - 0.05*h,
		},
		SnapX: w / 4096, SnapY: h / 4096,
		SnapOriginX: d.Region.Lx + 0.05*w,
		SnapOriginY: d.Region.Ly + 0.05*h,
	}
	if mov := d.MovableMacroIndices(); len(mov) > 0 {
		phys.Halos = map[string]netlist.Halo{
			d.Nodes[mov[0]].Name: {X: 2 * phys.HaloX, Y: 2 * phys.HaloY},
		}
	}
	if err := phys.Validate(d.Region); err != nil {
		t.Fatalf("conformance: constrained design %s: %v", d.Name, err)
	}
	d.Phys = phys
	return d
}

// place runs PlaceContext under a watchdog and fails the test on
// error; the watchdog converts a hung (or crashed-goroutine) backend
// into a test failure instead of a suite timeout.
func place(t *testing.T, p portfolio.Placer, ctx context.Context, d *netlist.Design, opts portfolio.Options, grace time.Duration) portfolio.Result {
	t.Helper()
	res, err := placeErr(t, p, ctx, d, opts, grace)
	if err != nil {
		t.Fatalf("%s: PlaceContext: %v", p.Name(), err)
	}
	return res
}

func placeErr(t *testing.T, p portfolio.Placer, ctx context.Context, d *netlist.Design, opts portfolio.Options, grace time.Duration) (portfolio.Result, error) {
	t.Helper()
	before := d.Positions()
	type out struct {
		res portfolio.Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := p.PlaceContext(ctx, d, opts)
		ch <- out{res, err}
	}()
	var o out
	select {
	case o = <-ch:
	case <-time.After(grace):
		t.Fatalf("%s: PlaceContext did not return within %v", p.Name(), grace)
	}
	after := d.Positions()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("%s: PlaceContext mutated the input design (node %d moved %v -> %v)",
				p.Name(), i, before[i], after[i])
		}
	}
	return o.res, o.err
}

// CheckResult asserts the per-result invariants (completeness,
// legality, metric truthfulness, convergence) on one backend result.
// Exported so ad-hoc tests outside the suite (the race E2E, the smoke
// script's test mode) apply identical checks.
func CheckResult(t testing.TB, backend string, input *netlist.Design, res portfolio.Result) {
	t.Helper()
	if res.Backend != backend {
		t.Errorf("%s: result claims backend %q", backend, res.Backend)
	}
	d := res.Placed
	if d == nil {
		t.Fatalf("%s: result has no placed design", backend)
	}
	if d == input {
		t.Fatalf("%s: Placed aliases the input design", backend)
	}
	if len(d.Nodes) != len(input.Nodes) {
		t.Fatalf("%s: placed design has %d nodes, input %d", backend, len(d.Nodes), len(input.Nodes))
	}

	// Completeness: every coordinate finite.
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if math.IsNaN(n.X) || math.IsInf(n.X, 0) || math.IsNaN(n.Y) || math.IsInf(n.Y, 0) {
			t.Fatalf("%s: node %s has non-finite position (%v, %v)", backend, n.Name, n.X, n.Y)
		}
	}

	// Legality: movable macros inside the region (ulp-level tolerance
	// for SetCenter/ClampInto round-trips), overlap within tolerance.
	eps := 1e-6 * (d.Region.W() + d.Region.H())
	for _, m := range d.MovableMacroIndices() {
		r := d.Nodes[m].Rect()
		if r.Lx < d.Region.Lx-eps || r.Ly < d.Region.Ly-eps ||
			r.Ux > d.Region.Ux+eps || r.Uy > d.Region.Uy+eps {
			t.Errorf("%s: macro %s outside region: %v", backend, d.Nodes[m].Name, r)
		}
	}
	var macroArea float64
	for _, m := range d.MacroIndices() {
		macroArea += d.Nodes[m].Area()
	}
	if macroArea > 0 && res.MacroOverlap > 0.05*macroArea {
		t.Errorf("%s: overlap %v is %.1f%% of macro area", backend, res.MacroOverlap, res.MacroOverlap/macroArea*100)
	}

	// Metric truthfulness: reported values equal recomputation from
	// the placed netlist, bit-exactly.
	if got := d.HPWL(); got != res.HPWL {
		t.Errorf("%s: reported HPWL %v != recomputed %v", backend, res.HPWL, got)
	}
	if got := portfolio.RecomputeOverlap(d); got != res.MacroOverlap {
		t.Errorf("%s: reported overlap %v != recomputed %v", backend, res.MacroOverlap, got)
	}

	// Convergence: every placement is Clean, and Converged says so.
	if !legalize.Clean(d) {
		t.Errorf("%s: placement on %s not clean: movable overlap %v (eps %v), %s",
			backend, d.Name, legalize.MovableOverlap(d), legalize.ConvergenceEps(d), d.ConstraintViolations())
	}
	if !res.Converged {
		t.Errorf("%s: did not converge on %s", backend, d.Name)
	}
}

// checkIdentical asserts two runs of a deterministic backend are
// bit-identical: metrics and every node position.
func checkIdentical(t *testing.T, backend string, a, b portfolio.Result) {
	t.Helper()
	if a.HPWL != b.HPWL || a.MacroOverlap != b.MacroOverlap || a.Converged != b.Converged {
		t.Fatalf("%s: runs differ: hpwl %v vs %v, overlap %v vs %v, converged %v vs %v",
			backend, a.HPWL, b.HPWL, a.MacroOverlap, b.MacroOverlap, a.Converged, b.Converged)
	}
	pa, pb := a.Placed.Positions(), b.Placed.Positions()
	if len(pa) != len(pb) {
		t.Fatalf("%s: runs placed different node counts: %d vs %d", backend, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("%s: node %d position differs across runs: %v vs %v", backend, i, pa[i], pb[i])
		}
	}
}
