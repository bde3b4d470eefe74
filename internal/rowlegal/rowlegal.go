// Package rowlegal legalizes standard cells onto placement rows with
// the classic Tetris greedy (Hill's algorithm, the scheme inside many
// production flows and the final step any DREAMPlace-style engine
// performs): cells are processed in x order and packed left-to-right
// into row segments (rows minus macro blockages), choosing the segment
// that minimises displacement from the global-placement position.
//
// The result is a fully legal cell placement: every cell sits on a row,
// inside the region, overlapping neither macros nor other cells.
package rowlegal

import (
	"fmt"
	"math"
	"sort"

	"macroplace/internal/geom"
	"macroplace/internal/netlist"
)

// maxRowSearch bounds how many rows above and below the desired row
// Legalize examines per cell.
const maxRowSearch = 24

// Result reports legalization quality.
type Result struct {
	// Legalized is the number of cells placed on rows.
	Legalized int
	// Failed is the number of cells that fit in no searched segment
	// (left at their global positions).
	Failed int
	// TotalDisplacement and MaxDisplacement measure the moves.
	TotalDisplacement float64
	MaxDisplacement   float64
	// HPWL is the post-legalization wirelength.
	HPWL float64
}

// segment is a free interval of one row with a packing frontier.
type segment struct {
	y        float64
	lx, ux   float64
	frontier float64
}

// Legalize snaps every movable cell of d onto rows. Macros and fixed
// nodes are obstacles. Rows are d.Phys's when it carries a row height
// and the dominant cell height otherwise. It mutates d.
func Legalize(d *netlist.Design) (Result, error) {
	phys := d.Phys
	var rowH float64
	if phys != nil && phys.RowHeight > 0 {
		// DEF designs carry the real row geometry; honour it so the
		// emitted placement sits on the design's own rows.
		rowH = phys.RowHeight
	}
	if rowH <= 0 {
		rowH = dominantCellHeight(d)
	}
	if rowH <= 0 {
		return Result{}, fmt.Errorf("rowlegal: no cells to derive a row height from")
	}
	originY := d.Region.Ly
	if phys != nil && phys.RowHeight > 0 && phys.RowOriginY > d.Region.Ly && phys.RowOriginY < d.Region.Uy {
		originY = phys.RowOriginY
	}
	nRows := int((d.Region.Uy - originY) / rowH)
	if nRows < 1 {
		return Result{}, fmt.Errorf("rowlegal: region height %v below one row %v", d.Region.H(), rowH)
	}

	// Obstacles: macros (movable and fixed) and any fixed non-pad.
	// Under active constraints macros are inflated by their pads so
	// cells keep out of halos and channels too.
	var obstacles []geom.Rect
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if n.Kind == netlist.Macro || (n.Fixed && n.Kind != netlist.Pad) {
			r := n.Rect()
			if n.Kind == netlist.Macro && phys.Active() {
				px, py := phys.Pad(n.Name)
				r = r.Inflate(px, py)
			}
			obstacles = append(obstacles, r)
		}
	}

	// Build row segments.
	rows := make([][]segment, nRows)
	for r := 0; r < nRows; r++ {
		y := originY + float64(r)*rowH
		row := geom.Rect{Lx: d.Region.Lx, Ly: y, Ux: d.Region.Ux, Uy: y + rowH}
		free := []geom.Rect{row}
		for _, ob := range obstacles {
			if !ob.Overlap(row) {
				continue
			}
			var next []geom.Rect
			for _, f := range free {
				if !ob.Overlap(f) {
					next = append(next, f)
					continue
				}
				if ob.Lx > f.Lx {
					next = append(next, geom.Rect{Lx: f.Lx, Ly: f.Ly, Ux: math.Min(ob.Lx, f.Ux), Uy: f.Uy})
				}
				if ob.Ux < f.Ux {
					next = append(next, geom.Rect{Lx: math.Max(ob.Ux, f.Lx), Ly: f.Ly, Ux: f.Ux, Uy: f.Uy})
				}
			}
			free = next
		}
		for _, f := range free {
			if f.W() > 0 {
				rows[r] = append(rows[r], segment{y: y, lx: f.Lx, ux: f.Ux, frontier: f.Lx})
			}
		}
		sort.Slice(rows[r], func(a, b int) bool { return rows[r][a].lx < rows[r][b].lx })
	}

	// Cells in x order (classic Tetris sweep).
	cells := d.CellIndices()
	movable := cells[:0:0]
	for _, ci := range cells {
		if !d.Nodes[ci].Fixed {
			movable = append(movable, ci)
		}
	}
	sort.Slice(movable, func(a, b int) bool {
		na, nb := &d.Nodes[movable[a]], &d.Nodes[movable[b]]
		if na.X != nb.X {
			return na.X < nb.X
		}
		return movable[a] < movable[b]
	})

	var res Result
	for _, ci := range movable {
		n := &d.Nodes[ci]
		desiredRow := int((n.Y - originY) / rowH)
		bestCost := math.Inf(1)
		var bestSeg *segment
		var bestX float64
		for dr := 0; dr <= maxRowSearch; dr++ {
			for _, r := range []int{desiredRow - dr, desiredRow + dr} {
				if r < 0 || r >= nRows || (dr == 0 && r != desiredRow) {
					continue
				}
				rowCost := math.Abs(float64(r)*rowH + originY - n.Y)
				if rowCost >= bestCost {
					continue // rows farther than the best cost can't win
				}
				for si := range rows[r] {
					seg := &rows[r][si]
					x := math.Max(seg.frontier, n.X)
					if x+n.W > seg.ux {
						// Try packing at the frontier even if left of
						// the desired x.
						x = seg.frontier
						if x+n.W > seg.ux {
							continue
						}
					}
					cost := math.Abs(x-n.X) + rowCost
					if cost < bestCost {
						bestCost = cost
						bestSeg = seg
						bestX = x
					}
				}
				if r == desiredRow {
					break // avoid double-visiting dr == 0
				}
			}
			// Early exit: if the best cost already beats moving one
			// more row, farther rows cannot improve.
			if bestSeg != nil && bestCost < float64(dr)*rowH {
				break
			}
		}
		if bestSeg == nil {
			res.Failed++
			continue
		}
		dx := math.Abs(bestX - n.X)
		dy := math.Abs(bestSeg.y - n.Y)
		disp := dx + dy
		res.TotalDisplacement += disp
		if disp > res.MaxDisplacement {
			res.MaxDisplacement = disp
		}
		n.X, n.Y = bestX, bestSeg.y
		bestSeg.frontier = bestX + n.W
		res.Legalized++
	}
	res.HPWL = d.HPWL()
	return res, nil
}

// dominantCellHeight returns the most common movable-cell height.
func dominantCellHeight(d *netlist.Design) float64 {
	counts := make(map[float64]int)
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if n.Kind == netlist.Cell && !n.Fixed && n.H > 0 {
			counts[n.H]++
		}
	}
	var best float64
	bestC := 0
	for h, c := range counts {
		if c > bestC || (c == bestC && h < best) {
			best, bestC = h, c
		}
	}
	return best
}

// CellOverlap returns the total pairwise overlap area among movable
// cells plus cell-macro overlap — the legality metric for tests.
func CellOverlap(d *netlist.Design) float64 {
	cells := d.CellIndices()
	// Sweep by x for near-linear behaviour on legal placements.
	idx := append([]int(nil), cells...)
	sort.Slice(idx, func(a, b int) bool { return d.Nodes[idx[a]].X < d.Nodes[idx[b]].X })
	var total float64
	for i := 0; i < len(idx); i++ {
		ri := d.Nodes[idx[i]].Rect()
		for j := i + 1; j < len(idx); j++ {
			rj := d.Nodes[idx[j]].Rect()
			if rj.Lx >= ri.Ux {
				break
			}
			total += ri.OverlapArea(rj)
		}
	}
	for _, ci := range cells {
		rc := d.Nodes[ci].Rect()
		for i := range d.Nodes {
			if d.Nodes[i].Kind == netlist.Macro {
				total += rc.OverlapArea(d.Nodes[i].Rect())
			}
		}
	}
	return total
}
