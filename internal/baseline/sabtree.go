package baseline

import (
	"math"

	"macroplace/internal/btree"
	"macroplace/internal/geom"
	"macroplace/internal/gplace"
	"macroplace/internal/netlist"
	"macroplace/internal/rng"
)

// SABTree is the B*-tree variant of the annealing baseline: macros are
// encoded as a B*-tree (the representation of the paper's citations
// [6]/[36]), perturbed with the classic swap/rotate/move set, decoded
// by contour packing, and evaluated by macro-incident wirelength plus
// an out-of-region penalty after centering the floorplan in the
// placement region. It mutates d.
func SABTree(d *netlist.Design, cfg SAConfig) Result {
	cfg = cfg.normalize()
	r := rng.New(cfg.Seed).Split("sabtree")

	gplace.Place(d, gplace.Config{Mode: gplace.MoveAll, Iterations: 6})
	macros := macrosByAreaDesc(d)
	n := len(macros)
	if n == 0 {
		return Finish(d)
	}
	nodeNets := d.NodeNets()

	blocks := make([]btree.Block, n)
	for i, m := range macros {
		blocks[i] = btree.Block{W: d.Nodes[m].W, H: d.Nodes[m].H}
	}
	tree := btree.New(blocks)

	// apply decodes the tree, centers the floorplan in the region, and
	// writes macro positions; it returns the floorplan bounding box.
	apply := func(t *btree.Tree) geom.Rect {
		bb := t.Pack()
		cx := d.Region.Center().X - bb.W()/2
		cy := d.Region.Center().Y - bb.H()/2
		for i, m := range macros {
			blk := t.Blocks[i].Rect().Translate(cx, cy)
			blk = blk.ClampInto(d.Region)
			d.Nodes[m].X, d.Nodes[m].Y = blk.Lx, blk.Ly
		}
		return bb
	}

	cost := func(bb geom.Rect) float64 {
		var total float64
		for _, m := range macros {
			total += macroNetHPWL(d, nodeNets, m)
		}
		// Penalise floorplans exceeding the region: such packings get
		// clamped and overlap, which the legalization tail in Finish
		// must undo.
		exW := math.Max(0, bb.W()-d.Region.W())
		exH := math.Max(0, bb.H()-d.Region.H())
		return total * (1 + (exW+exH)/(d.Region.W()+d.Region.H()))
	}

	cur := cost(apply(tree))
	best := cur
	bestTree := tree.Clone()
	temp := cfg.T0 * math.Max(cur, 1)

	for it := 0; it < cfg.Iterations; it++ {
		if it&63 == 0 && cancelled(cfg.Ctx) {
			break
		}
		next := tree.Clone()
		next.Perturb(r)
		cand := cost(apply(next))
		delta := cand - cur
		if delta <= 0 || r.Float64() < math.Exp(-delta/math.Max(temp, 1e-12)) {
			tree = next
			cur = cand
			if cur < best {
				best = cur
				bestTree = tree.Clone()
				if cfg.Progress != nil {
					cfg.Progress(best)
				}
			}
		}
		temp *= cfg.Cooling
	}
	apply(bestTree)
	return Finish(d)
}
