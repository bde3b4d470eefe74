package netlist

import "macroplace/internal/geom"

// IncrementalHPWL maintains the total half-perimeter wirelength of a
// design under single-node moves in O(pins-on-node · log nets) per
// update instead of re-evaluating every net. It is the evaluation
// engine behind the ECO local-move search (eco.Run) and the detailed
// placer's swaps (rowlegal.OptimizeDetailed), whose inner loops probe
// thousands of candidate positions.
//
// The evaluator caches each net's bounding box (moving a node
// recomputes the boxes of its incident nets exactly — no
// amortised-box approximation) and folds the per-net weighted costs
// through a fixed-shape pairwise summation tree. The tree makes
// Total a *pure function of the current placement*: every node of the
// tree is the sum of its two children, so the same per-net costs
// produce the same total bits regardless of the move history that led
// there. A naive running accumulator (total += delta) would instead
// drift from a fresh recompute, because float addition is not
// associative and each move path rounds differently; long ECO runs
// would then disagree with their own re-evaluation.
// FuzzIncrementalHPWL pins the drift-free property: after any move
// sequence, Total is bit-equal to a freshly built evaluator's.
type IncrementalHPWL struct {
	d        *Design
	nodeNets [][]int
	boxes    []geom.BBox
	weights  []float64
	// sum is the pairwise summation tree: leaves sum[leaf0+i] hold net
	// i's weighted HPWL, every interior node j is sum[2j] + sum[2j+1],
	// and sum[1] is the total. leaf0 is the smallest power of two >=
	// len(nets) (minimum 1).
	sum   []float64
	leaf0 int
}

// NewIncrementalHPWL builds the evaluator from the design's current
// positions.
func NewIncrementalHPWL(d *Design) *IncrementalHPWL {
	leaf0 := 1
	for leaf0 < len(d.Nets) {
		leaf0 <<= 1
	}
	ev := &IncrementalHPWL{
		d:        d,
		nodeNets: d.NodeNets(),
		boxes:    make([]geom.BBox, len(d.Nets)),
		weights:  make([]float64, len(d.Nets)),
		sum:      make([]float64, 2*leaf0),
		leaf0:    leaf0,
	}
	for ni := range d.Nets {
		ev.weights[ni] = d.Nets[ni].EffWeight()
		ev.recomputeNet(ni)
		ev.sum[leaf0+ni] = ev.weights[ni] * ev.boxes[ni].HPWL()
	}
	// Bottom-up build; each interior node is children's sum, the same
	// expression setLeaf maintains, so the build and any update path
	// agree bit-for-bit.
	for j := leaf0 - 1; j >= 1; j-- {
		ev.sum[j] = ev.sum[2*j] + ev.sum[2*j+1]
	}
	return ev
}

// setLeaf updates net ni's weighted cost and repairs the summation
// path to the root.
func (ev *IncrementalHPWL) setLeaf(ni int, v float64) {
	j := ev.leaf0 + ni
	ev.sum[j] = v
	for j >>= 1; j >= 1; j >>= 1 {
		ev.sum[j] = ev.sum[2*j] + ev.sum[2*j+1]
	}
}

// Total returns the current weighted HPWL. The value is a pure
// function of the current node positions: bit-equal to what a freshly
// built evaluator over the same design returns, whatever moves
// happened in between.
func (ev *IncrementalHPWL) Total() float64 { return ev.sum[1] }

// recomputeNet rebuilds net ni's bounding box from scratch.
func (ev *IncrementalHPWL) recomputeNet(ni int) {
	ev.boxes[ni].Reset()
	for _, p := range ev.d.Nets[ni].Pins {
		pt := ev.d.PinPos(p)
		ev.boxes[ni].Add(pt.X, pt.Y)
	}
}

// MoveNode moves node n so its lower-left corner is at (x, y) and
// returns the change in total weighted HPWL. The design is updated in
// place.
func (ev *IncrementalHPWL) MoveNode(n int, x, y float64) (delta float64) {
	node := &ev.d.Nodes[n]
	if node.X == x && node.Y == y {
		return 0
	}
	before := ev.sum[1]
	node.X, node.Y = x, y
	for _, ni := range ev.nodeNets[n] {
		ev.recomputeNet(ni)
		ev.setLeaf(ni, ev.weights[ni]*ev.boxes[ni].HPWL())
	}
	return ev.sum[1] - before
}

// MoveCenter moves node n so its center is at (cx, cy).
func (ev *IncrementalHPWL) MoveCenter(n int, cx, cy float64) float64 {
	node := &ev.d.Nodes[n]
	return ev.MoveNode(n, cx-node.W/2, cy-node.H/2)
}
