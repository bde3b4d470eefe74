// Package grid implements the paper's grid-based placement abstraction
// (Sec. II-A and III-B): the placement region is partitioned into
// ζ × ζ grids, macro groups occupy rectangular blocks of grids, and a
// state is the triple ⟨s_p, s_a, t⟩ — current per-grid utilization,
// per-grid availability for the next macro group (Eq. 4), and the
// sequence number.
//
// The Env type is the macro-group-allocation MDP shared by the RL
// pre-training stage and the MCTS optimization stage: an action is the
// index of the grid at which the next group's lower-left corner is
// anchored.
package grid

import (
	"fmt"
	"math"
	"sync"

	"macroplace/internal/cluster"
	"macroplace/internal/geom"
)

// DefaultZeta is the grid resolution used in the paper's experiments.
const DefaultZeta = 16

// Grid is the ζ × ζ partition of a placement region.
type Grid struct {
	Zeta   int
	Region geom.Rect
	// CellW, CellH are the dimensions of one grid cell.
	CellW, CellH float64
}

// New partitions region into zeta × zeta grids.
func New(region geom.Rect, zeta int) *Grid {
	if zeta <= 0 {
		zeta = DefaultZeta
	}
	return &Grid{
		Zeta:   zeta,
		Region: region,
		CellW:  region.W() / float64(zeta),
		CellH:  region.H() / float64(zeta),
	}
}

// NumCells returns ζ².
func (g *Grid) NumCells() int { return g.Zeta * g.Zeta }

// CellArea returns the area of one grid cell.
func (g *Grid) CellArea() float64 { return g.CellW * g.CellH }

// Index returns the flat index of grid (gx, gy).
func (g *Grid) Index(gx, gy int) int { return gy*g.Zeta + gx }

// Coords returns (gx, gy) for a flat index.
func (g *Grid) Coords(idx int) (gx, gy int) { return idx % g.Zeta, idx / g.Zeta }

// CellRect returns the rectangle of grid (gx, gy).
func (g *Grid) CellRect(gx, gy int) geom.Rect {
	return geom.Rect{
		Lx: g.Region.Lx + float64(gx)*g.CellW,
		Ly: g.Region.Ly + float64(gy)*g.CellH,
		Ux: g.Region.Lx + float64(gx+1)*g.CellW,
		Uy: g.Region.Ly + float64(gy+1)*g.CellH,
	}
}

// AddShape adds the footprint of s anchored at grid index anchor onto
// the utilization map sp, capping each grid at 1: how s_p grows when a
// group is placed (Env.Step, and ECO's view of the other groups).
func (g *Grid) AddShape(sp []float64, s *Shape, anchor int) {
	gx, gy := g.Coords(anchor)
	for r := 0; r < s.GH; r++ {
		row := (gy+r)*g.Zeta + gx
		for c := 0; c < s.GW; c++ {
			sp[row+c] += s.Util[r*s.GW+c]
			if sp[row+c] > 1 {
				sp[row+c] = 1
			}
		}
	}
}

// Shape is a macro group's discretised footprint: GW × GH grids with a
// per-grid self-utilization map (the paper's s_m matrix).
type Shape struct {
	GW, GH int
	// Util[r*GW+c] is the fraction of grid (c, r) covered by the
	// group rectangle when anchored at a grid corner.
	Util []float64
	// W, H is the continuous footprint of the group.
	W, H float64
	// Area is the group's true summed member area.
	Area float64
}

// ShapeOf discretises a macro group onto the grid. The group's
// continuous footprint (from cluster.Coarsen's shape policy) is
// anchored at a grid corner and clipped against the covering grid
// cells, giving the per-grid utilizations of the paper's s_m example
// (Fig. 1).
func ShapeOf(g *Grid, grp *cluster.Group) Shape {
	return ShapeOfPadded(g, grp, 0, 0)
}

// ShapeOfPadded is ShapeOf with the group's footprint inflated by padX
// / padY per side before discretisation — the search-level view of
// halo/channel constraints (netlist.Constraints.MaxPad): a padded
// shape claims the keep-out area around its macros, so availability
// and overflow already price the spacing the legalizer will enforce.
// Zero pads reproduce ShapeOf exactly.
func ShapeOfPadded(g *Grid, grp *cluster.Group, padX, padY float64) Shape {
	w, h := grp.MaxW, grp.MaxH
	// Near-square footprint honouring the largest member dims; same
	// policy as cluster.Coarsen.
	if grp.Area > 0 {
		side := math.Sqrt(grp.Area)
		if side > w {
			w = side
		}
		if grp.Area/w > h {
			h = grp.Area / w
		}
	}
	if w <= 0 {
		w = 1e-9
	}
	if h <= 0 {
		h = 1e-9
	}
	if padX > 0 {
		w += 2 * padX
	}
	if padY > 0 {
		h += 2 * padY
	}
	gw := int(math.Ceil(w/g.CellW - 1e-9))
	gh := int(math.Ceil(h/g.CellH - 1e-9))
	if gw < 1 {
		gw = 1
	}
	if gh < 1 {
		gh = 1
	}
	if gw > g.Zeta {
		gw = g.Zeta
	}
	if gh > g.Zeta {
		gh = g.Zeta
	}
	s := Shape{GW: gw, GH: gh, Util: make([]float64, gw*gh), W: w, H: h, Area: grp.Area}
	rect := geom.NewRect(0, 0, math.Min(w, float64(gw)*g.CellW), math.Min(h, float64(gh)*g.CellH))
	for r := 0; r < gh; r++ {
		for c := 0; c < gw; c++ {
			cell := geom.NewRect(float64(c)*g.CellW, float64(r)*g.CellH, g.CellW, g.CellH)
			u := rect.OverlapArea(cell) / g.CellArea()
			if u > 1 {
				u = 1
			}
			s.Util[r*gw+c] = u
		}
	}
	return s
}

// Env is the macro-group allocation MDP. Actions are flat grid indices
// (the lower-left anchor of the next group's footprint). The zero
// value is not usable; construct with NewEnv.
type Env struct {
	G      *Grid
	Shapes []Shape // placement order (largest area first, Alg. 1)

	sp      []float64 // current per-grid utilization, capped at 1
	anchors []int     // chosen anchor per step, -1 when pending
	t       int       // next group to place

	// fence, when hasFence is set, confines every group's continuous
	// footprint: anchors whose rect leaves the fence are out of bounds
	// (netlist.Constraints fence regions). Default: no fence, the
	// partition bounds alone — bit-identical to the pre-fence Env.
	// fenceOK[i] records whether shape i has at least one anchor that
	// satisfies the fence; shapes with none fall back to partition
	// bounds (the legalizer clamps them in) so the search never
	// dead-ends on an over-tight fence.
	fence    geom.Rect
	hasFence bool
	fenceOK  []bool
}

// SetFence confines every group's footprint to r (see Env.fence).
func (e *Env) SetFence(r geom.Rect) {
	e.fence = r
	e.hasFence = true
	e.fenceOK = make([]bool, len(e.Shapes))
	for i := range e.Shapes {
		s := &e.Shapes[i]
	scan:
		for gy := 0; gy+s.GH <= e.G.Zeta; gy++ {
			for gx := 0; gx+s.GW <= e.G.Zeta; gx++ {
				if e.insideFence(s, gx, gy) {
					e.fenceOK[i] = true
					break scan
				}
			}
		}
	}
}

// NewEnv builds an environment over the given grid and group shapes.
// baseUtil, when non-nil, seeds s_p with pre-existing utilization
// (pre-placed macros); it must have length ζ².
func NewEnv(g *Grid, shapes []Shape, baseUtil []float64) *Env {
	e := &Env{G: g, Shapes: shapes}
	e.sp = make([]float64, g.NumCells())
	if baseUtil != nil {
		if len(baseUtil) != g.NumCells() {
			panic(fmt.Sprintf("grid: baseUtil length %d != %d", len(baseUtil), g.NumCells()))
		}
		copy(e.sp, baseUtil)
		for i, u := range e.sp {
			if u > 1 {
				e.sp[i] = 1
			} else if u < 0 {
				e.sp[i] = 0
			}
		}
	}
	e.anchors = make([]int, len(shapes))
	for i := range e.anchors {
		e.anchors[i] = -1
	}
	return e
}

// BaseUtilFromFixed rasterises fixed rectangles into per-grid
// utilization, for seeding NewEnv with pre-placed macros.
func BaseUtilFromFixed(g *Grid, rects []geom.Rect) []float64 {
	util := make([]float64, g.NumCells())
	for _, r := range rects {
		for gy := 0; gy < g.Zeta; gy++ {
			for gx := 0; gx < g.Zeta; gx++ {
				cell := g.CellRect(gx, gy)
				if ov := r.OverlapArea(cell); ov > 0 {
					util[g.Index(gx, gy)] += ov / g.CellArea()
				}
			}
		}
	}
	for i := range util {
		if util[i] > 1 {
			util[i] = 1
		}
	}
	return util
}

// Reset returns the environment to the empty placement (keeping any
// base utilization is not supported: construct a fresh Env instead).
func (e *Env) Reset() {
	for i := range e.sp {
		e.sp[i] = 0
	}
	for i := range e.anchors {
		e.anchors[i] = -1
	}
	e.t = 0
}

// Clone returns an independent copy (used by MCTS node expansion).
func (e *Env) Clone() *Env {
	cp := &Env{}
	e.CloneInto(cp)
	return cp
}

// CloneInto makes dst an independent copy of e, reusing dst's slice
// capacity when it suffices. dst must not be e and must not be in use
// elsewhere; its previous contents are fully overwritten.
func (e *Env) CloneInto(dst *Env) {
	dst.G = e.G
	dst.Shapes = e.Shapes
	dst.t = e.t
	dst.fence = e.fence
	dst.hasFence = e.hasFence
	dst.fenceOK = e.fenceOK // immutable after SetFence; shared like Shapes
	dst.sp = append(dst.sp[:0], e.sp...)
	dst.anchors = append(dst.anchors[:0], e.anchors...)
}

// Pool recycles Env clones. MCTS expands one clone per node and
// discards whole subtrees at every commit; routing those through a
// pool makes steady-state node expansion allocation-free. The zero
// value is ready to use.
type Pool struct {
	p sync.Pool
}

// Get returns a clone of src, recycling a pooled Env when available.
func (pl *Pool) Get(src *Env) *Env {
	if e, ok := pl.p.Get().(*Env); ok {
		src.CloneInto(e)
		return e
	}
	return src.Clone()
}

// Put returns e to the pool. The caller must not retain any reference
// to e or to slices previously returned by its accessors' non-Into
// forms aside from copies.
func (pl *Pool) Put(e *Env) {
	if e != nil {
		pl.p.Put(e)
	}
}

// T returns the current step (number of groups already placed).
func (e *Env) T() int { return e.t }

// NumSteps returns the episode length.
func (e *Env) NumSteps() int { return len(e.Shapes) }

// Done reports whether all groups are placed.
func (e *Env) Done() bool { return e.t >= len(e.Shapes) }

// Anchors returns a copy of all chosen anchors.
func (e *Env) Anchors() []int { return append([]int(nil), e.anchors...) }

// SPInto appends the current utilization map s_p into dst[:0] and
// returns the result.
func (e *Env) SPInto(dst []float64) []float64 { return append(dst[:0], e.sp...) }

// InBounds reports whether anchoring the current group at grid action
// keeps its footprint inside the partition (and the fence, when set).
func (e *Env) InBounds(action int) bool {
	if e.Done() {
		return false
	}
	gx, gy := e.G.Coords(action)
	return e.fits(e.t, gx, gy)
}

// FitsAt reports whether group i's footprint fits when anchored at the
// given grid index — InBounds for an arbitrary group regardless of the
// episode position (the ECO local-move menu asks about every group).
func (e *Env) FitsAt(i, anchor int) bool {
	gx, gy := e.G.Coords(anchor)
	return e.fits(i, gx, gy)
}

// fits checks the partition bounds and, when a fence is set and shape
// i has any fence-satisfying anchor, the continuous footprint's
// containment.
func (e *Env) fits(i, gx, gy int) bool {
	s := &e.Shapes[i]
	if gx < 0 || gy < 0 || gx+s.GW > e.G.Zeta || gy+s.GH > e.G.Zeta {
		return false
	}
	if e.hasFence && e.fenceOK[i] && !e.insideFence(s, gx, gy) {
		return false
	}
	return true
}

// insideFence reports whether s anchored at grid (gx, gy) keeps its
// continuous footprint inside the fence (ulp-scale tolerance so a
// fence equal to the region never rejects the boundary anchors).
func (e *Env) insideFence(s *Shape, gx, gy int) bool {
	cell := e.G.CellRect(gx, gy)
	eps := 1e-9 * (e.G.Region.W() + e.G.Region.H())
	return cell.Lx >= e.fence.Lx-eps && cell.Ly >= e.fence.Ly-eps &&
		cell.Lx+s.W <= e.fence.Ux+eps && cell.Ly+s.H <= e.fence.Uy+eps
}

// AvailInto writes the availability map s_a for the current group via
// Eq. (4) into dst (grown as needed, resliced to ζ² and wholly
// rewritten): for every anchor grid g, the geometric mean over the n
// covered grids of (1 - s_m(gi)) · (1 - s_p(gi)); out-of-bounds
// anchors, and every anchor once the episode is done, score 0.
func (e *Env) AvailInto(dst []float64) []float64 {
	if e.Done() {
		return cleared(dst, e.G.NumCells())
	}
	return e.GroupAvailInto(dst, e.t, e.sp)
}

// GroupAvailInto writes Eq. (4)'s availability map of group i's shape
// under the utilization map sp into dst (grown as needed, resliced to
// ζ² and wholly rewritten): the geometric mean, over the grids the
// footprint covers, of (1 - s_m) · (1 - sp). Anchors the environment
// refuses (FitsAt) score 0. AvailInto asks it for the current group
// under s_p; ECO asks it for every group under the others' utilization.
func (e *Env) GroupAvailInto(dst []float64, i int, sp []float64) []float64 {
	out := cleared(dst, e.G.NumCells())
	s := &e.Shapes[i]
	inv := 1.0 / float64(s.GW*s.GH)
	for gy := 0; gy+s.GH <= e.G.Zeta; gy++ {
		for gx := 0; gx+s.GW <= e.G.Zeta; gx++ {
			if e.hasFence && !e.fits(i, gx, gy) {
				continue
			}
			// Geometric mean via log-sum for numerical stability.
			var logSum float64
			zero := false
			for r := 0; r < s.GH && !zero; r++ {
				row := (gy+r)*e.G.Zeta + gx
				for c := 0; c < s.GW; c++ {
					f := (1 - s.Util[r*s.GW+c]) * (1 - sp[row+c])
					if f <= 0 {
						zero = true
						break
					}
					logSum += math.Log(f)
				}
			}
			if !zero {
				out[e.G.Index(gx, gy)] = math.Exp(logSum * inv)
			}
		}
	}
	return out
}

// cleared returns dst resliced to n (grown as needed) and zeroed.
func cleared(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	dst = dst[:n]
	clear(dst)
	return dst
}

// Step places the current group at anchor grid action and advances to
// the next step. It returns an error when the action is out of
// bounds; occupancy overflow is allowed (it degrades the state, not
// the legality — legalization resolves residual overlap, Sec. II-B).
func (e *Env) Step(action int) error {
	if e.Done() {
		return fmt.Errorf("grid: episode already complete")
	}
	if !e.InBounds(action) {
		return fmt.Errorf("grid: action %d out of bounds for group %d (%dx%d grids)", action, e.t, e.Shapes[e.t].GW, e.Shapes[e.t].GH)
	}
	e.G.AddShape(e.sp, &e.Shapes[e.t], action)
	e.anchors[e.t] = action
	e.t++
	return nil
}

// GroupRect returns the continuous rectangle of group i when anchored
// at grid index anchor (lower-left alignment, as the paper's state
// construction specifies).
func (e *Env) GroupRect(i, anchor int) geom.Rect {
	s := &e.Shapes[i]
	gx, gy := e.G.Coords(anchor)
	cell := e.G.CellRect(gx, gy)
	return geom.NewRect(cell.Lx, cell.Ly, s.W, s.H)
}

// BlockCenter returns the center of the grid block covered by group i
// at the given anchor — where macro legalization pins the group before
// its first QP pass (Sec. II-B).
func (e *Env) BlockCenter(i, anchor int) geom.Point {
	s := &e.Shapes[i]
	gx, gy := e.G.Coords(anchor)
	lo := e.G.CellRect(gx, gy)
	hi := e.G.CellRect(gx+s.GW-1, gy+s.GH-1)
	return geom.Point{X: (lo.Lx + hi.Ux) / 2, Y: (lo.Ly + hi.Uy) / 2}
}
