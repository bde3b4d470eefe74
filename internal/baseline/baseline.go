// Package baseline implements the comparison placers of the paper's
// evaluation (Tables II and III):
//
//   - SE — a simulated-evolution macro placer in the style of
//     [24]/[26] (Table II's "SE-based Macro Placer");
//   - DreamPlaceLike — mixed-size analytical placement where macros
//     are just large movable cells (Table II's DREAMPlace column);
//   - RePlAceLike — the analytical flow plus a density-vs-wirelength
//     force refinement of macro positions (Table III's RePlAce);
//   - CT — a pure-RL per-macro placer, no grouping and no MCTS
//     (Table III's circuit-training row);
//   - MaskPlace — a per-macro placer driven by the wiremask
//     incremental-HPWL estimate (Table III's MaskPlace row).
//
// Every baseline ends with the same finishing pass — the legalization
// tail the paper's flow ends in (legalize.Separate) and a full-netlist
// analytical cell placement — so Table comparisons measure the
// macro-placement policy, not the finishing machinery. The real tools
// are unavailable (GPU binaries, proprietary code); DESIGN.md records
// how each substitute preserves the trait the paper contrasts against.
package baseline

import (
	"context"
	"sort"

	"macroplace/internal/geom"
	"macroplace/internal/gplace"
	"macroplace/internal/legalize"
	"macroplace/internal/netlist"
)

// Result is a completed baseline run.
type Result struct {
	// HPWL is the final full-netlist half-perimeter wirelength.
	HPWL float64
	// MacroOverlap is the residual macro-macro overlap area.
	MacroOverlap float64
	// Converged reports whether the placement is legal
	// (legalize.Clean): movable-macro overlap within
	// legalize.ConvergenceEps and no physical-constraint violation.
	// When false, MacroOverlap or d.ConstraintViolations carries what
	// the tail could not resolve.
	Converged bool
}

// Finish ends every baseline: the legalization tail (legalize.Separate:
// pairwise shove, lattice snapping, and a greedy lattice repair when
// the result is not yet clean, all under d.Phys when set), then the
// final cell placement, returning the evaluated result. It mutates d.
func Finish(d *netlist.Design) Result {
	converged := legalize.Separate(d)
	gplace.Place(d, gplace.Config{Mode: gplace.MoveCells, Iterations: 6})
	return Result{HPWL: d.HPWL(), MacroOverlap: legalize.TotalMacroOverlap(d), Converged: converged}
}

// cancelled reports whether ctx is non-nil and already done. The
// baselines poll it at loop granularity so cancellation yields the
// best-so-far state instead of aborting.
func cancelled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// macroNetHPWL returns the summed HPWL of the nets incident to node m,
// using current positions.
func macroNetHPWL(d *netlist.Design, nodeNets [][]int, m int) float64 {
	var total float64
	for _, ni := range nodeNets[m] {
		total += d.Nets[ni].EffWeight() * d.NetHPWL(ni)
	}
	return total
}

// macrosByAreaDesc returns movable macro indices sorted by
// non-increasing area (deterministic tie-break by index).
func macrosByAreaDesc(d *netlist.Design) []int {
	ms := d.MovableMacroIndices()
	sort.Slice(ms, func(i, j int) bool {
		ai, aj := d.Nodes[ms[i]].Area(), d.Nodes[ms[j]].Area()
		if ai != aj {
			return ai > aj
		}
		return ms[i] < ms[j]
	})
	return ms
}

// DreamPlaceLike is the analytical mixed-size baseline: one global
// placement treating macros as movable, followed by the common finish.
// It mirrors how the paper invokes DREAMPlace on Table II — no
// hierarchy awareness, wirelength-driven only.
func DreamPlaceLike(d *netlist.Design) Result {
	gplace.Place(d, gplace.Config{Mode: gplace.MoveAll, Iterations: 10})
	return Finish(d)
}

// candidateGrid enumerates k×k candidate centers inside region for a
// node of size w×h.
func candidateGrid(region geom.Rect, w, h float64, k int) []geom.Point {
	var out []geom.Point
	for iy := 0; iy < k; iy++ {
		for ix := 0; ix < k; ix++ {
			cx := region.Lx + (float64(ix)+0.5)*region.W()/float64(k)
			cy := region.Ly + (float64(iy)+0.5)*region.H()/float64(k)
			r := geom.NewRect(cx-w/2, cy-h/2, w, h).ClampInto(region)
			out = append(out, r.Center())
		}
	}
	return out
}
