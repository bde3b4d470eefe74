package legalize

import (
	"math"
	"sort"

	"macroplace/internal/geom"
	"macroplace/internal/netlist"
)

// Separate is the legalization tail every placer ends in
// (legalize.Macros for the paper flow, baseline.Finish for the
// comparison placers), so the whole portfolio shares one legality
// semantics. It mutates d and reports Clean(d).
//
// Every movable macro is inflated by its pad (halo and half the
// channel; zero without d.Phys), and every move keeps the inflated rect
// inside the fence (the whole region without one):
//
//  1. a pairwise shove separates the inflated rects (cheap, preserves
//     the placement);
//  2. macro origins snap onto the row/track lattice;
//  3. only when the result is not Clean, a deterministic greedy
//     repair re-seats each macro still in violation onto the nearest
//     legal lattice position, committed in non-increasing area order.
func Separate(d *netlist.Design) bool {
	c := constraintsOf(d)
	fence := d.Region
	if is, ok := c.FenceRect(d.Region).Intersect(d.Region); ok {
		fence = is
	}
	movable := d.MovableMacroIndices()
	shove(d, c, movable, fence)
	snapMovable(d, c, movable, fence)
	if Clean(d) {
		return true
	}
	repair(d, c, fence)
	return Clean(d)
}

// Clean is the one legality predicate of a macro placement: movable
// macro overlap within ConvergenceEps and no violation of d.Phys.
func Clean(d *netlist.Design) bool {
	return MovableOverlap(d) <= ConvergenceEps(d) && d.ConstraintViolations().Clean()
}

// MovableOverlap sums the pairwise overlap area over macro pairs with
// at least one movable member — the quantity legalization is obliged
// to drive to zero (fixed-fixed overlap is the design's own).
func MovableOverlap(d *netlist.Design) float64 {
	macros := d.MacroIndices()
	var total float64
	for i := 0; i < len(macros); i++ {
		for j := i + 1; j < len(macros); j++ {
			if d.Nodes[macros[i]].Fixed && d.Nodes[macros[j]].Fixed {
				continue
			}
			total += d.Nodes[macros[i]].Rect().OverlapArea(d.Nodes[macros[j]].Rect())
		}
	}
	return total
}

// ConvergenceEps returns the movable-overlap threshold below which a
// placement counts as fully separated: legalization packs neighbors
// edge to edge, and the packed coordinates can carry float-ulp overlap
// slivers that are not meaningful. The threshold scales with total
// macro area so it stays ulp-sized on any design.
func ConvergenceEps(d *netlist.Design) float64 {
	var area float64
	for _, m := range d.MacroIndices() {
		area += d.Nodes[m].Area()
	}
	return 1e-12 * area
}

// constraintsOf returns d.Phys, or the zero constraint set (zero pads,
// no fence, no lattice) for a design without one.
func constraintsOf(d *netlist.Design) *netlist.Constraints {
	if d.Phys == nil {
		return &netlist.Constraints{}
	}
	return d.Phys
}

// shove separates overlapping macros along the minimum-penetration
// axis of their pad-inflated rects; each push recomputes the inflated
// rect from the node and clamps it into the fence. Fixed macros push
// but never move. It stops after the first sweep without overlap, or
// after 200 sweeps: multi-body push chains can cancel each other sweep
// after sweep, which is what the repair is for.
func shove(d *netlist.Design, c *netlist.Constraints, movable []int, fence geom.Rect) {
	all := append([]int(nil), movable...)
	nMov := len(all)
	for i := range d.Nodes {
		if d.Nodes[i].Kind == netlist.Macro && !d.Nodes[i].Movable() {
			all = append(all, i)
		}
	}
	pads := make([][2]float64, len(all))
	for k, i := range all {
		pads[k][0], pads[k][1] = c.Pad(d.Nodes[i].Name)
	}
	inflated := func(k int) geom.Rect {
		return d.Nodes[all[k]].Rect().Inflate(pads[k][0], pads[k][1])
	}
	push := func(k int, dx, dy float64) {
		r := inflated(k).Translate(dx, dy).ClampInto(fence)
		n := &d.Nodes[all[k]]
		n.X, n.Y = r.Lx+pads[k][0], r.Ly+pads[k][1]
	}
	for sweep := 0; sweep < 200; sweep++ {
		found := false
		for a := 0; a < len(all); a++ {
			for b := a + 1; b < len(all); b++ {
				if a >= nMov && b >= nMov {
					continue // both fixed
				}
				is, ok := inflated(a).Intersect(inflated(b))
				if !ok {
					continue
				}
				found = true
				ca, cb := d.Nodes[all[a]].Center(), d.Nodes[all[b]].Center()
				moveA, moveB := a < nMov, b < nMov
				dx, dy := is.W(), is.H()
				if dx <= dy {
					// Separate horizontally.
					dir := 1.0
					if ca.X > cb.X {
						dir = -1
					}
					switch {
					case moveA && moveB:
						push(a, -dir*dx/2, 0)
						push(b, dir*dx/2, 0)
					case moveA:
						push(a, -dir*dx, 0)
					default:
						push(b, dir*dx, 0)
					}
				} else {
					dir := 1.0
					if ca.Y > cb.Y {
						dir = -1
					}
					switch {
					case moveA && moveB:
						push(a, 0, -dir*dy/2)
						push(b, 0, dir*dy/2)
					case moveA:
						push(a, 0, -dir*dy)
					default:
						push(b, 0, dir*dy)
					}
				}
			}
		}
		if !found {
			return
		}
	}
}

// snapMovable puts every movable macro's origin on the snap lattice,
// choosing the nearest lattice point whose inflated rect stays inside
// the fence.
func snapMovable(d *netlist.Design, c *netlist.Constraints, movable []int, fence geom.Rect) {
	if c.SnapX <= 0 && c.SnapY <= 0 {
		return
	}
	for _, m := range movable {
		n := &d.Nodes[m]
		px, py := c.Pad(n.Name)
		if x, ok := snapInto(n.X, fence.Lx+px, fence.Ux-px-n.W, c.SnapX, c.SnapOriginX); ok {
			n.X = x
		}
		if y, ok := snapInto(n.Y, fence.Ly+py, fence.Uy-py-n.H, c.SnapY, c.SnapOriginY); ok {
			n.Y = y
		}
	}
}

// snapInto returns the lattice point nearest v inside [lo, hi], or
// (clamped v, true) when pitch is zero, or (v, false) when the
// interval holds no lattice point at all.
func snapInto(v, lo, hi, pitch, origin float64) (float64, bool) {
	if hi < lo {
		return v, false
	}
	v = math.Min(math.Max(v, lo), hi)
	if pitch <= 0 {
		return v, true
	}
	s := netlist.SnapCoord(v, pitch, origin)
	if s < lo {
		s += pitch * math.Ceil((lo-s)/pitch)
	}
	if s > hi {
		s -= pitch * math.Ceil((s-hi)/pitch)
	}
	if s < lo || s > hi {
		return v, false
	}
	return s, true
}

// repair is the deterministic last resort: macros are committed in
// non-increasing area order; a macro whose inflated rect leaves the
// fence, overlaps the committed set by any positive area, or sits off
// the lattice moves to the nearest legal lattice position found on
// progressively finer candidate grids. Macros that fit nowhere stay
// put (Separate's closing Clean reports them).
func repair(d *netlist.Design, c *netlist.Constraints, fence geom.Rect) {
	eps := 1e-9 * (d.Region.W() + d.Region.H())

	var committed []geom.Rect
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if n.Kind == netlist.Macro && !n.Movable() {
			px, py := c.Pad(n.Name)
			committed = append(committed, n.Rect().Inflate(px, py))
		}
	}
	legal := func(r geom.Rect) bool {
		if r.Lx < fence.Lx-eps || r.Ly < fence.Ly-eps || r.Ux > fence.Ux+eps || r.Uy > fence.Uy+eps {
			return false
		}
		for _, cm := range committed {
			if r.Overlap(cm) {
				return false
			}
		}
		return true
	}

	order := d.MovableMacroIndices()
	sort.Slice(order, func(i, j int) bool {
		ai, aj := d.Nodes[order[i]].Area(), d.Nodes[order[j]].Area()
		if ai != aj {
			return ai > aj
		}
		return order[i] < order[j]
	})
	for _, m := range order {
		n := &d.Nodes[m]
		px, py := c.Pad(n.Name)
		cur := n.Rect().Inflate(px, py)
		if legal(cur) &&
			netlist.OnLattice(n.X, c.SnapX, c.SnapOriginX) &&
			netlist.OnLattice(n.Y, c.SnapY, c.SnapOriginY) {
			committed = append(committed, cur)
			continue
		}
		loX, hiX := fence.Lx+px, fence.Ux-px-n.W
		loY, hiY := fence.Ly+py, fence.Uy-py-n.H
		placed := false
		for _, k := range []int{16, 32, 64, 128} {
			bestD := math.Inf(1)
			var bestX, bestY float64
			for iy := 0; iy <= k; iy++ {
				cy := loY + float64(iy)*(hiY-loY)/float64(k)
				y, ok := snapInto(cy, loY, hiY, c.SnapY, c.SnapOriginY)
				if !ok {
					continue
				}
				for ix := 0; ix <= k; ix++ {
					cx := loX + float64(ix)*(hiX-loX)/float64(k)
					x, ok := snapInto(cx, loX, hiX, c.SnapX, c.SnapOriginX)
					if !ok {
						continue
					}
					cand := geom.Rect{Lx: x - px, Ly: y - py, Ux: x + n.W + px, Uy: y + n.H + py}
					dx, dy := x-n.X, y-n.Y
					dist := dx*dx + dy*dy
					if dist >= bestD || !legal(cand) {
						continue
					}
					bestD, bestX, bestY = dist, x, y
				}
			}
			if !math.IsInf(bestD, 1) {
				n.X, n.Y = bestX, bestY
				committed = append(committed, n.Rect().Inflate(px, py))
				placed = true
				break
			}
		}
		if !placed {
			committed = append(committed, cur)
		}
	}
}
