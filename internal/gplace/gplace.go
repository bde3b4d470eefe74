// Package gplace implements analytical global placement: a bound-to-
// bound (B2B) quadratic wirelength model solved with preconditioned
// conjugate gradients, interleaved with FastPlace/SimPL-style
// rough-legalization spreading and growing pseudo-net anchors. The
// B2B model is linearized once, at the starting positions: assembly
// reads the design's node positions, which only the final commit
// writes, so every round of a placement keeps the same springs and
// only the anchors move.
//
// In the paper's flow this engine stands in for two external tools:
//
//   - DREAMPlace [25], the black-box "place the standard cells and
//     report HPWL" oracle invoked once per RL episode and once after
//     MCTS (Sec. II-C), and
//   - the analytical prototyping placement [23] that provides the
//     initial locations consumed by the clustering score of Eq. (1).
//
// The placer is deterministic: no randomness is used anywhere, so a
// given design and configuration always produce the same placement.
// The placement is also independent of GOMAXPROCS: large systems solve
// their x and y axes on two goroutines, but each axis runs exactly the
// arithmetic it runs alone, in the same order.
package gplace

import (
	"context"
	"math"
	"sort"
	"sync"

	"macroplace/internal/geom"
	"macroplace/internal/netlist"
	"macroplace/internal/solver"
)

// Mode selects which nodes the placer may move.
type Mode int

// Placement modes.
const (
	// MoveCells moves standard cells only; macros and pads stay put.
	MoveCells Mode = iota
	// MoveAll moves cells and non-fixed macros (mixed-size mode, the
	// DREAMPlace-like baseline).
	MoveAll
)

// Config tunes the placer. The zero value is usable.
type Config struct {
	// Iterations is the number of outer B2B/spreading rounds (0: 8).
	Iterations int
	// Mode selects the movable set.
	Mode Mode
}

// The placer's fixed settings.
const (
	// cgTol is the conjugate-gradient relative residual target.
	cgTol = 1e-5
	// cgMaxIter caps CG iterations per solve. Placement systems are
	// well-conditioned under the Jacobi preconditioner; a fixed cap
	// keeps worst-case solves bounded on 100k+ variable designs.
	cgMaxIter = 300
	// targetDensity is the desired bin utilization.
	targetDensity = 0.9
	// anchorBase is the pseudo-net anchor weight on the first
	// spreading round; it doubles every round after.
	anchorBase = 0.05
)

// Result reports the outcome of a placement run.
type Result struct {
	HPWL       float64
	Iterations int
	// Overflow is the final total bin-area overflow divided by the
	// total movable area; 0 means perfectly spread.
	Overflow float64
	// Interrupted reports that PlaceContext returned before exhausting
	// its iteration budget; the committed positions are the last
	// completed iteration's (complete and in-region, but less spread).
	Interrupted bool
}

// Placer carries reusable state for placing one design repeatedly
// (the RL reward loop re-places cell groups every episode).
type Placer struct {
	cfg Config
	d   *netlist.Design

	movable []int // node indices the placer moves
	varOf   []int // node index -> variable index or -1

	// per-variable scratch
	x, y []float64
	// spread targets for anchor pseudo-nets
	tx, ty []float64

	// axes are the x and the y system, kept across solves so their
	// matrices and pin scratch are reused; split solves them on two
	// goroutines (see splitPins).
	axes  [2]axis
	split bool
	reg   float64 // anchor weight of the solve in progress
}

// splitPins is the pin count from which solveQuadratic assembles and
// solves the x and the y system on two goroutines instead of one after
// the other. Below it the two goroutine handoffs cost more than half a
// solve saves (DESIGN.md §8, "Quadratic placement").
const splitPins = 2000

// axis is one coordinate's linear system.
type axis struct {
	m      *solver.SparseSym
	pos    []float64 // variable centers: the CG start and solution
	target []float64 // spread targets of the anchor pseudo-nets
	b      []float64 // right-hand side
	pins   []pinAt   // one net's pins, reused net to net
	y      bool      // the y axis
	res    solver.CGResult
}

// pinAt is a pin's position on one axis.
type pinAt struct {
	v   int     // variable index, or -1 for a fixed node
	at  float64 // absolute coordinate
	off float64 // offset from its node's center
}

// New prepares a placer for design d.
func New(d *netlist.Design, cfg Config) *Placer {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 8
	}
	p := &Placer{cfg: cfg, d: d}
	p.varOf = make([]int, len(d.Nodes))
	for i := range p.varOf {
		p.varOf[i] = -1
	}
	for i := range d.Nodes {
		n := &d.Nodes[i]
		move := false
		switch cfg.Mode {
		case MoveCells:
			move = n.Kind == netlist.Cell && !n.Fixed
		case MoveAll:
			move = n.Movable()
		}
		if move {
			p.varOf[i] = len(p.movable)
			p.movable = append(p.movable, i)
		}
	}
	nv := len(p.movable)
	p.x = make([]float64, nv)
	p.y = make([]float64, nv)
	p.tx = make([]float64, nv)
	p.ty = make([]float64, nv)
	p.axes[0] = axis{m: solver.NewSparseSym(nv), pos: p.x, target: p.tx, b: make([]float64, nv)}
	p.axes[1] = axis{m: solver.NewSparseSym(nv), pos: p.y, target: p.ty, b: make([]float64, nv), y: true}
	pins := 0
	for i := range d.Nets {
		if np := len(d.Nets[i].Pins); np >= 2 {
			pins += np
		}
	}
	p.split = pins >= splitPins
	return p
}

// Place runs the full global-placement loop and writes final positions
// into the design.
func (p *Placer) Place() Result {
	return p.PlaceContext(context.Background())
}

// PlaceContext is Place under a context: cancellation is observed
// between iterations, and the positions reached so far are committed
// — a partially-spread placement is coarse but complete and legal,
// never half-written. Result.Interrupted marks the early return.
func (p *Placer) PlaceContext(ctx context.Context) Result {
	d := p.d
	nv := len(p.movable)
	if nv == 0 {
		return Result{HPWL: d.HPWL()}
	}
	p.load()

	var overflow float64
	done := 0
	for it := 0; it < p.cfg.Iterations; it++ {
		if ctx.Err() != nil {
			p.commit()
			return Result{HPWL: d.HPWL(), Iterations: done, Overflow: overflow, Interrupted: true}
		}
		anchorW := 0.0
		if it > 0 {
			// Geometric growth (SimPL-style): by the final rounds the
			// anchors dominate the wirelength pull, otherwise dense
			// hotspots never disperse.
			anchorW = anchorBase * math.Pow(2, float64(it-1))
		}
		p.solveQuadratic(anchorW)
		overflow = p.spread()
		done++
		obsRounds.Inc()
		obsOverflow.Set(overflow)
	}
	p.commit()
	return Result{HPWL: d.HPWL(), Iterations: done, Overflow: overflow}
}

// PlaceQuadraticOnly runs one unconstrained quadratic solve (no
// spreading) — the cheap QP used by macro legalization and the reward
// loop on coarsened netlists. The B2B model is linearized at the
// loaded positions, which only commit changes, so solving it again
// would rebuild the same system and return at CG iteration 0
// (TestSecondSolveIsANoOp).
func (p *Placer) PlaceQuadraticOnly() Result {
	d := p.d
	if len(p.movable) == 0 {
		return Result{HPWL: d.HPWL()}
	}
	p.load()
	p.solveQuadratic(0)
	p.commit()
	return Result{HPWL: d.HPWL(), Iterations: 1}
}

// load reads the node centers into the variables and the spread
// targets: the starting state of every solve.
func (p *Placer) load() {
	for v, ni := range p.movable {
		c := p.d.Nodes[ni].Center()
		p.x[v], p.y[v] = c.X, c.Y
		p.tx[v], p.ty[v] = c.X, c.Y
	}
}

// commit writes variable centers back to node lower-left corners,
// clamping into the region.
func (p *Placer) commit() {
	d := p.d
	for v, ni := range p.movable {
		n := &d.Nodes[ni]
		n.SetCenter(p.x[v], p.y[v])
		r := n.Rect().ClampInto(d.Region)
		n.X, n.Y = r.Lx, r.Ly
	}
}

// solveQuadratic builds the B2B model at the design's node positions
// (not at the solution in progress; see the package doc) plus anchor
// pseudo-nets of weight anchorW toward the spread targets, and solves
// both axes. anchorW is relative to the average connectivity
// strength, so spreading forces stay commensurate with wirelength
// forces regardless of design scale.
//
// Each axis is assembled and solved on its own (see both); they meet
// only at the regularizer, which reads both diagonals.
func (p *Placer) solveQuadratic(anchorW float64) {
	nv := len(p.movable)
	p.both((*Placer).assemble)

	// Average connectivity diagonal; reference scale for anchors.
	mx, my := p.axes[0].m, p.axes[1].m
	var avgDiag float64
	for v := 0; v < nv; v++ {
		avgDiag += mx.Diag(v) + my.Diag(v)
	}
	avgDiag /= float64(2 * nv)
	if avgDiag <= 0 {
		avgDiag = 1
	}

	// Anchors: tie every variable to its spread target; also acts as
	// the regularizer that keeps the system SPD when a design has no
	// fixed pins at all (the ICCAD04-like netlists have no pads).
	rel := anchorW
	if rel <= 0 {
		rel = 1e-4
	}
	p.reg = rel * avgDiag
	p.both((*Placer).anchorAndSolve)

	for i := range p.axes {
		res := p.axes[i].res
		obsCGIters.Add(uint64(res.Iterations))
		obsCGResidual.Set(res.Residual)
		if !res.Converged {
			obsCGNoConverge.Inc()
		}
	}
}

// both runs f on the x and then the y axis on the caller, or with
// p.split, x on a new goroutine and y on the caller. It returns once
// both have stopped; a panic on either resurfaces here then, the
// caller's first.
func (p *Placer) both(f func(p *Placer, a *axis)) {
	x, y := &p.axes[0], &p.axes[1]
	if !p.split {
		f(p, x)
		f(p, y)
		return
	}
	var wg sync.WaitGroup
	var xPanic any
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { xPanic = recover() }()
		f(p, x)
	}()
	func() {
		defer wg.Wait()
		f(p, y)
	}()
	if xPanic != nil {
		panic(xPanic)
	}
}

// anchorAndSolve adds the anchor pseudo-nets of weight p.reg to a's
// system and solves it by CG from a's current positions.
func (p *Placer) anchorAndSolve(a *axis) {
	for v := range a.b {
		a.m.AddDiag(v, p.reg)
		a.b[v] += p.reg * a.target[v]
	}
	a.res = solver.CG(a.m, a.pos, a.b, cgTol, cgMaxIter)
}

// assemble builds a's B2B system at the current node positions: net by
// net, every pin connects to the net's two boundary pins on this axis
// with weight w = netWeight * 2 / ((p-1) * dist), the standard B2B
// linearization.
func (p *Placer) assemble(a *axis) {
	d := p.d
	a.m.Reset(len(p.movable))
	clear(a.b)
	// Distance floor: without it, coincident pins get unbounded B2B
	// weights that overwhelm every spreading force. A per-mille of the
	// region size keeps the linearization sane.
	minDist := 1e-3 * (d.Region.W() + d.Region.H()) / 2
	if minDist <= 0 {
		minDist = 1e-6
	}
	pins := a.pins
	for ni := range d.Nets {
		net := &d.Nets[ni]
		np := len(net.Pins)
		if np < 2 {
			continue
		}
		pins = pins[:0]
		lo, hi := 0, 0
		for k, pin := range net.Pins {
			n := &d.Nodes[pin.Node]
			q := pinAt{v: p.varOf[pin.Node], off: pin.Dx}
			if a.y {
				q.off = pin.Dy
				q.at = n.Y + n.H/2 + q.off
			} else {
				q.at = n.X + n.W/2 + q.off
			}
			pins = append(pins, q)
			if q.at < pins[lo].at {
				lo = k
			}
			if q.at > pins[hi].at {
				hi = k
			}
		}
		if lo == hi {
			// Every pin at one coordinate: the net adds no spring on
			// this axis (TestCoincidentPinsGolden pins this).
			continue
		}
		base := 2.0 * net.EffWeight() / float64(np-1)
		for k := range pins {
			if k != lo {
				a.connect(pins[k], pins[lo], base, minDist)
			}
			if k != hi {
				a.connect(pins[k], pins[hi], base, minDist)
			}
		}
	}
	a.pins = pins
}

// connect adds the B2B spring between pin q and boundary pin c.
func (a *axis) connect(q, c pinAt, base, minDist float64) {
	dist := math.Abs(q.at - c.at)
	if dist < minDist {
		dist = minDist
	}
	w := base / dist
	switch {
	case q.v >= 0 && c.v >= 0:
		a.m.AddDiag(q.v, w)
		a.m.AddDiag(c.v, w)
		a.m.Add(q.v, c.v, -w)
		// Pin offsets shift the RHS.
		a.b[q.v] += w * (c.off - q.off)
		a.b[c.v] += w * (q.off - c.off)
	case q.v >= 0:
		a.m.AddDiag(q.v, w)
		a.b[q.v] += w * (c.at - q.off)
	case c.v >= 0:
		a.m.AddDiag(c.v, w)
		a.b[c.v] += w * (q.at - c.off)
	}
}

// spread performs one FastPlace-style cell-shifting round: movable
// area is binned; overfilled bin rows/columns are relaxed by moving
// bin boundaries and remapping node centers piecewise-linearly. The
// resulting positions become the anchor targets for the next
// quadratic solve. It returns the pre-spread overflow ratio.
func (p *Placer) spread() float64 {
	d := p.d
	nv := len(p.movable)
	// Bins per axis, about one per two movable nodes in all.
	nb := int(math.Sqrt(float64(nv)/2)) + 2
	if nb < 4 {
		nb = 4
	}
	if nb > 128 {
		nb = 128
	}
	reg := d.Region
	bw := reg.W() / float64(nb)
	bh := reg.H() / float64(nb)
	if bw <= 0 || bh <= 0 {
		return 0
	}

	// Bin utilization from movable nodes (area clipped per bin would
	// be exact; center-assignment is the usual fast approximation).
	util := make([][]float64, nb)
	for i := range util {
		util[i] = make([]float64, nb)
	}
	binOf := func(x, y float64) (int, int) {
		bx := int((x - reg.Lx) / bw)
		by := int((y - reg.Ly) / bh)
		if bx < 0 {
			bx = 0
		}
		if bx >= nb {
			bx = nb - 1
		}
		if by < 0 {
			by = 0
		}
		if by >= nb {
			by = nb - 1
		}
		return bx, by
	}
	var totalArea, overflow float64
	for v, ni := range p.movable {
		bx, by := binOf(p.x[v], p.y[v])
		a := d.Nodes[ni].Area()
		util[by][bx] += a
		totalArea += a
	}
	// Account for fixed blockages: their area reduces bin capacity.
	capGrid := make([][]float64, nb)
	binArea := bw * bh
	for i := range capGrid {
		capGrid[i] = make([]float64, nb)
		for j := range capGrid[i] {
			capGrid[i][j] = binArea * targetDensity
		}
	}
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if p.varOf[i] >= 0 || n.Kind == netlist.Pad {
			continue
		}
		if n.Kind == netlist.Macro || n.Fixed {
			p.subtractBlockage(capGrid, n.Rect(), nb, bw, bh)
		}
	}
	for by := 0; by < nb; by++ {
		for bx := 0; bx < nb; bx++ {
			if util[by][bx] > capGrid[by][bx] {
				overflow += util[by][bx] - capGrid[by][bx]
			}
		}
	}

	// Targets: capacity-weighted rank distribution along each lane
	// (bin row for x, bin column for y). Cells in a lane are sorted by
	// coordinate and spread so that the area landing in each bin is
	// proportional to its free capacity — one pass empties an
	// overfull bin into its lane, which plain piecewise remapping
	// (identical coordinates stay identical) never achieves.
	laneX := make([][]int, nb)
	for v := range p.movable {
		_, by := binOf(p.x[v], p.y[v])
		laneX[by] = append(laneX[by], v)
	}
	capAt := func(horizontal bool, lane, k int) float64 {
		if horizontal {
			return capGrid[lane][k]
		}
		return capGrid[k][lane]
	}
	distribute := func(horizontal bool, lane int, members []int, coord []float64, target []float64, lo, step float64, regLo, regHi float64) {
		if len(members) == 0 {
			return
		}
		sort.Slice(members, func(i, j int) bool {
			if coord[members[i]] != coord[members[j]] {
				return coord[members[i]] < coord[members[j]]
			}
			return members[i] < members[j]
		})
		// Cumulative capacity profile of the lane (floor keeps empty
		// bins usable and the total positive).
		cum := make([]float64, nb+1)
		for k := 0; k < nb; k++ {
			c := capAt(horizontal, lane, k)
			if c < 1e-9 {
				c = 1e-9
			}
			cum[k+1] = cum[k] + c
		}
		total := cum[nb]
		n := float64(len(members))
		k := 0
		for rank, v := range members {
			f := (float64(rank) + 0.5) / n * total
			for k < nb-1 && cum[k+1] < f {
				k++
			}
			within := (f - cum[k]) / (cum[k+1] - cum[k])
			target[v] = clampF(lo+(float64(k)+within)*step, regLo, regHi)
		}
	}
	for lane := 0; lane < nb; lane++ {
		distribute(true, lane, laneX[lane], p.x, p.tx, reg.Lx, bw, reg.Lx, reg.Ux)
	}
	// Column membership for the y pass comes from the freshly computed
	// x targets: cells an overfull bin just pushed into different
	// columns then receive independent vertical distributions. Using
	// the stale x would give identical rank orders on both axes and
	// smear coincident cells along a diagonal.
	laneY := make([][]int, nb)
	for v := range p.movable {
		bx, _ := binOf(p.tx[v], p.y[v])
		laneY[bx] = append(laneY[bx], v)
	}
	for lane := 0; lane < nb; lane++ {
		distribute(false, lane, laneY[lane], p.y, p.ty, reg.Ly, bh, reg.Ly, reg.Uy)
	}
	if totalArea == 0 {
		return 0
	}
	return overflow / totalArea
}

// subtractBlockage removes a fixed rectangle's overlap from bin
// capacities.
func (p *Placer) subtractBlockage(capGrid [][]float64, r geom.Rect, nb int, bw, bh float64) {
	reg := p.d.Region
	x0 := int(math.Floor((r.Lx - reg.Lx) / bw))
	x1 := int(math.Ceil((r.Ux - reg.Lx) / bw))
	y0 := int(math.Floor((r.Ly - reg.Ly) / bh))
	y1 := int(math.Ceil((r.Uy - reg.Ly) / bh))
	for by := maxI(y0, 0); by < minI(y1, nb); by++ {
		for bx := maxI(x0, 0); bx < minI(x1, nb); bx++ {
			bin := geom.Rect{
				Lx: reg.Lx + float64(bx)*bw, Ly: reg.Ly + float64(by)*bh,
				Ux: reg.Lx + float64(bx+1)*bw, Uy: reg.Ly + float64(by)*bh + bh,
			}
			capGrid[by][bx] -= r.OverlapArea(bin)
			if capGrid[by][bx] < 0 {
				capGrid[by][bx] = 0
			}
		}
	}
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Place is a convenience wrapper: build a placer and run it.
func Place(d *netlist.Design, cfg Config) Result {
	return New(d, cfg).Place()
}

// InitialPlacement produces the prototype placement used by the
// clustering stage (the paper's [23]): a mixed-size global placement
// with a modest iteration budget.
func InitialPlacement(d *netlist.Design) Result {
	return Place(d, Config{Mode: MoveAll, Iterations: 6})
}
