package legalize

import (
	"fmt"
	"math"

	"macroplace/internal/cluster"
	"macroplace/internal/geom"
	"macroplace/internal/gplace"
	"macroplace/internal/grid"
	"macroplace/internal/netlist"
)

// Input bundles everything macro legalization needs: the original
// design, its clustering and coarsened netlist, the grid, the macro
// group shapes (in cluster.MacroGroups order) and the chosen anchor
// grid per group.
type Input struct {
	Design     *netlist.Design
	Clustering *cluster.Clustering
	Coarse     *cluster.Coarse
	Grid       *grid.Grid
	Shapes     []grid.Shape
	Anchors    []int
}

// qpSweeps is the number of Gauss–Seidel passes of the bounded QP.
const qpSweeps = 8

// Result reports legalization quality.
type Result struct {
	// Overlap is the total residual pairwise overlap area between
	// movable macros after legalization.
	Overlap float64
	// Moved is the number of macros whose position changed.
	Moved int
}

// Macros performs the three-step legalization of Sec. II-B and writes
// final positions for every movable macro into in.Design:
//
//  1. cell groups are placed by QP with macro groups pinned at the
//     centers of their grid blocks;
//  2. macro groups are decomposed and member macros receive relative
//     positions from a bounded QP (Gauss–Seidel sweeps projected into
//     the group's grid block);
//  3. per-block overlap is removed by the sequence-pair LP (Eq. 3) on
//     pad-inflated items, and the legalization tail (Separate) removes
//     residual overlap between blocks: a pairwise shove, lattice
//     snapping, and, only when the result is not Clean, a greedy
//     repair onto the nearest legal lattice points.
func Macros(in Input) (Result, error) {
	d := in.Design
	clus := in.Clustering
	if len(in.Anchors) != len(clus.MacroGroups) || len(in.Shapes) != len(clus.MacroGroups) {
		return Result{}, fmt.Errorf("legalize: %d macro groups but %d anchors / %d shapes",
			len(clus.MacroGroups), len(in.Anchors), len(in.Shapes))
	}

	// Step 1: pin coarse macro-group nodes at their block centers and
	// QP the cell groups on the coarsened netlist.
	blockRects := make([]geom.Rect, len(clus.MacroGroups))
	for gi := range clus.MacroGroups {
		a := in.Anchors[gi]
		if a < 0 {
			return Result{}, fmt.Errorf("legalize: macro group %d has no anchor", gi)
		}
		s := &in.Shapes[gi]
		gx, gy := in.Grid.Coords(a)
		lo := in.Grid.CellRect(gx, gy)
		hi := in.Grid.CellRect(gx+s.GW-1, gy+s.GH-1)
		blockRects[gi] = geom.Rect{Lx: lo.Lx, Ly: lo.Ly, Ux: hi.Ux, Uy: hi.Uy}
		c := blockRects[gi].Center()
		in.Coarse.Design.Nodes[gi].SetCenter(c.X, c.Y)
	}
	gplace.New(in.Coarse.Design, gplace.Config{Mode: gplace.MoveCells}).PlaceQuadraticOnly()

	// Proxy positions: cells adopt their group's center, fixed nodes
	// keep their own, movable macros start at their block center.
	proxy := make([]geom.Point, len(d.Nodes))
	for i := range d.Nodes {
		ci := in.Coarse.CoarseOf[i]
		if ci >= 0 {
			proxy[i] = in.Coarse.Design.Nodes[ci].Center()
		} else {
			proxy[i] = d.Nodes[i].Center()
		}
	}
	groupBlock := func(node int) (geom.Rect, bool) {
		gi := clus.GroupOf[node]
		if gi < 0 || gi >= len(clus.MacroGroups) {
			return geom.Rect{}, false
		}
		return blockRects[gi], true
	}

	// Step 2: bounded QP by Gauss–Seidel. Each movable macro moves to
	// the connectivity-weighted mean of its nets' other endpoints,
	// projected so its rectangle stays inside the group block.
	nodeNets := d.NodeNets()
	movable := d.MovableMacroIndices()
	for sweep := 0; sweep < qpSweeps; sweep++ {
		for _, m := range movable {
			blk, ok := groupBlock(m)
			if !ok {
				continue
			}
			var sx, sy, sw float64
			for _, ni := range nodeNets[m] {
				net := &d.Nets[ni]
				w := net.EffWeight()
				var cx, cy float64
				cnt := 0
				for _, p := range net.Pins {
					if p.Node == m {
						continue
					}
					cx += proxy[p.Node].X
					cy += proxy[p.Node].Y
					cnt++
				}
				if cnt == 0 {
					continue
				}
				sx += w * cx / float64(cnt)
				sy += w * cy / float64(cnt)
				sw += w
			}
			if sw == 0 {
				continue
			}
			n := &d.Nodes[m]
			r := geom.NewRect(sx/sw-n.W/2, sy/sw-n.H/2, n.W, n.H).ClampInto(blk)
			proxy[m] = r.Center()
		}
	}

	// Step 3: per-block sequence-pair legalization.
	members := make([][]int, len(clus.MacroGroups))
	for _, m := range movable {
		gi := clus.GroupOf[m]
		if gi >= 0 && gi < len(clus.MacroGroups) {
			members[gi] = append(members[gi], m)
		}
	}
	// The sequence pair sees pad-inflated items, so block packing
	// already reserves halo/channel spacing (every pad is zero without
	// physical constraints).
	c := constraintsOf(d)
	for gi, ms := range members {
		if len(ms) == 0 {
			continue
		}
		items := make([]Item, len(ms))
		for k, m := range ms {
			n := &d.Nodes[m]
			px, py := c.Pad(n.Name)
			items[k] = Item{
				W: n.W + 2*px, H: n.H + 2*py,
				X: proxy[m].X - n.W/2 - px, Y: proxy[m].Y - n.H/2 - py,
				TX: proxy[m].X, TY: proxy[m].Y,
				Weight: float64(len(nodeNets[m])) + 1,
			}
		}
		RemoveOverlaps(items, blockRects[gi])
		for k, m := range ms {
			n := &d.Nodes[m]
			px, py := c.Pad(n.Name)
			r := geom.NewRect(items[k].X+px, items[k].Y+py, n.W, n.H).ClampInto(d.Region)
			n.X, n.Y = r.Lx, r.Ly
		}
	}

	Separate(d)
	res := Result{Overlap: TotalMacroOverlap(d), Moved: len(movable)}
	obsRuns.Inc()
	obsResidualOverlap.Set(res.Overlap)
	return res, nil
}

// TotalMacroOverlap returns the summed pairwise overlap area between
// all macros (movable and fixed) — the overlap every placer's result
// and metrics.Measure's quality report state.
func TotalMacroOverlap(d *netlist.Design) float64 {
	macros := d.MacroIndices()
	var total float64
	for i := 0; i < len(macros); i++ {
		for j := i + 1; j < len(macros); j++ {
			total += d.Nodes[macros[i]].Rect().OverlapArea(d.Nodes[macros[j]].Rect())
		}
	}
	return total
}

// MaxMacroOverflow returns the largest fraction by which any movable
// macro sticks outside the region (0 when all are inside).
func MaxMacroOverflow(d *netlist.Design) float64 {
	var worst float64
	for _, m := range d.MovableMacroIndices() {
		r := d.Nodes[m].Rect()
		if d.Region.ContainsRect(r) {
			continue
		}
		out := r.Area() - r.OverlapArea(d.Region)
		if f := out / math.Max(r.Area(), 1e-12); f > worst {
			worst = f
		}
	}
	return worst
}
