package rowlegal

import (
	"math"
	"sort"

	"macroplace/internal/netlist"
)

// The detailed-placement optimizer's fixed settings.
const (
	// detailedPasses is the number of full sweeps.
	detailedPasses = 3
	// windowGap is the maximum same-row gap, in multiples of the
	// narrower cell's width, across which two cells are considered
	// swap candidates.
	windowGap = 8
)

// DetailedResult reports optimizer progress.
type DetailedResult struct {
	// SwapsApplied counts accepted cell swaps.
	SwapsApplied int
	// HPWLBefore/After bracket the optimization.
	HPWLBefore, HPWLAfter float64
}

// OptimizeDetailed improves a legalized placement by greedy same-row
// cell swapping — the classic detailed-placement move: two cells on
// the same row whose exchange (with re-centering in each other's span)
// reduces total wirelength are swapped. Legality is preserved exactly
// when the cells have equal widths and approximately otherwise (the
// wider cell must fit the vacated gap; such swaps are skipped).
// Wirelength deltas use the incremental evaluator, so each probe costs
// only the incident nets.
func OptimizeDetailed(d *netlist.Design) DetailedResult {
	ev := netlist.NewIncrementalHPWL(d)
	res := DetailedResult{HPWLBefore: ev.Total()}

	// Group movable cells by row (y coordinate).
	rows := map[float64][]int{}
	for _, ci := range d.CellIndices() {
		if d.Nodes[ci].Fixed {
			continue
		}
		rows[d.Nodes[ci].Y] = append(rows[d.Nodes[ci].Y], ci)
	}
	rowKeys := make([]float64, 0, len(rows))
	for y := range rows {
		rowKeys = append(rowKeys, y)
	}
	sort.Float64s(rowKeys)

	for pass := 0; pass < detailedPasses; pass++ {
		improved := false
		for _, y := range rowKeys {
			cells := rows[y]
			sort.Slice(cells, func(a, b int) bool { return d.Nodes[cells[a]].X < d.Nodes[cells[b]].X })
			for i := 0; i+1 < len(cells); i++ {
				a := cells[i]
				for j := i + 1; j < len(cells); j++ {
					b := cells[j]
					na, nb := &d.Nodes[a], &d.Nodes[b]
					gap := nb.X - (na.X + na.W)
					if gap > windowGap*math.Min(na.W, nb.W) {
						break // too far; later cells are farther still
					}
					// Equal widths exchange spans exactly (safe at any
					// distance). Unequal widths rearrange within the
					// union of the two spans, which is only guaranteed
					// free when the cells abut (the gap between even
					// adjacent cells may host a macro blockage).
					if na.W != nb.W && (j != i+1 || gap > 1e-9) {
						continue
					}
					if trySwap(d, ev, a, b) {
						res.SwapsApplied++
						improved = true
						// Keep the x-sorted order array consistent.
						cells[i], cells[j] = cells[j], cells[i]
						break
					}
				}
			}
		}
		if !improved {
			break
		}
	}
	res.HPWLAfter = ev.Total()
	return res
}

// trySwap exchanges cells a and b in place (left edges swap, the
// narrower cell centers in the wider slot) when the move is legal and
// reduces wirelength. Returns true when applied.
func trySwap(d *netlist.Design, ev *netlist.IncrementalHPWL, a, b int) bool {
	na, nb := &d.Nodes[a], &d.Nodes[b]
	if na.Y != nb.Y {
		return false
	}
	ax, bx := na.X, nb.X
	wa, wb := na.W, nb.W
	if ax > bx {
		a, b = b, a
		na, nb = nb, na
		ax, bx = bx, ax
		wa, wb = wb, wa
	}
	// Equal widths: exact span exchange (safe at any distance).
	// Unequal widths (callers guarantee the cells abut): the pair
	// repacks inside the union of its old spans — b left-aligned at
	// a's corner, a immediately after b — so no other node can be
	// disturbed.
	newBx := ax
	newAx := bx
	if wa != wb {
		newAx = ax + wb
	}

	before := ev.Total()
	ev.MoveNode(a, newAx, na.Y)
	ev.MoveNode(b, newBx, nb.Y)
	if ev.Total() < before-1e-12 {
		return true
	}
	// Revert.
	ev.MoveNode(a, ax, na.Y)
	ev.MoveNode(b, bx, nb.Y)
	return false
}
