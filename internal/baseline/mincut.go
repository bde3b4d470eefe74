package baseline

import (
	"context"

	"macroplace/internal/geom"
	"macroplace/internal/netlist"
	"macroplace/internal/partition"
)

// MinCutConfig tunes the recursive-bisection placer.
type MinCutConfig struct {
	Seed int64
	// Ctx, when non-nil, is polled before each bisection: cancellation
	// treats the remaining subsets as leaves (nodes land at their
	// region centers), so the result stays complete and in-bounds.
	Ctx context.Context
}

// minCutLeafSize stops recursion once a region holds at most this many
// nodes.
const minCutLeafSize = 12

// MinCut is the classic partitioning-driven placer: the region is
// bisected recursively (alternating vertical/horizontal cutlines), the
// movable nodes are FM-partitioned to minimise the nets crossing each
// cutline, and every node lands at the center of its leaf region. It
// predates the analytical and learning-based families in the paper's
// related work and serves as an extra reference point. It mutates d.
func MinCut(d *netlist.Design, cfg MinCutConfig) Result {
	var movable []int
	for i := range d.Nodes {
		if d.Nodes[i].Movable() {
			movable = append(movable, i)
		}
	}
	if len(movable) == 0 {
		return Finish(d)
	}
	var recurse func(nodes []int, region geom.Rect, vertical bool, seed int64)
	recurse = func(nodes []int, region geom.Rect, vertical bool, seed int64) {
		if len(nodes) <= minCutLeafSize || cancelled(cfg.Ctx) {
			c := region.Center()
			for _, ni := range nodes {
				d.Nodes[ni].SetCenter(c.X, c.Y)
				r := d.Nodes[ni].Rect().ClampInto(d.Region)
				d.Nodes[ni].X, d.Nodes[ni].Y = r.Lx, r.Ly
			}
			return
		}
		// Hypergraph over this node subset; nets project onto it.
		idxOf := make(map[int]int, len(nodes))
		for i, ni := range nodes {
			idxOf[ni] = i
		}
		h := partition.NewHypergraph(len(nodes))
		for i, ni := range nodes {
			h.Areas[i] = d.Nodes[ni].Area()
			if h.Areas[i] <= 0 {
				h.Areas[i] = 1
			}
		}
		var verts []int
		for e := range d.Nets {
			verts = verts[:0]
			for _, p := range d.Nets[e].Pins {
				if v, ok := idxOf[p.Node]; ok {
					verts = append(verts, v)
				}
			}
			if len(verts) >= 2 {
				h.AddNet(verts, d.Nets[e].EffWeight())
			}
		}
		res := partition.Bipartition(h, partition.Config{Seed: seed})
		var lo, hi []int
		for i, ni := range nodes {
			if res.Part[i] == 0 {
				lo = append(lo, ni)
			} else {
				hi = append(hi, ni)
			}
		}
		// A dominant-area vertex lets FM park every node on one side
		// within its balance slack; recursion then never terminates.
		// Fall back to an even count split (keeping FM's side order).
		if len(lo) == 0 || len(hi) == 0 {
			all := append(append([]int(nil), lo...), hi...)
			mid := len(all) / 2
			lo, hi = all[:mid], all[mid:]
		}
		var r0, r1 geom.Rect
		if vertical {
			mid := (region.Lx + region.Ux) / 2
			r0 = geom.Rect{Lx: region.Lx, Ly: region.Ly, Ux: mid, Uy: region.Uy}
			r1 = geom.Rect{Lx: mid, Ly: region.Ly, Ux: region.Ux, Uy: region.Uy}
		} else {
			mid := (region.Ly + region.Uy) / 2
			r0 = geom.Rect{Lx: region.Lx, Ly: region.Ly, Ux: region.Ux, Uy: mid}
			r1 = geom.Rect{Lx: region.Lx, Ly: mid, Ux: region.Ux, Uy: region.Uy}
		}
		recurse(lo, r0, !vertical, seed*2+1)
		recurse(hi, r1, !vertical, seed*2+2)
	}
	recurse(movable, d.Region, true, cfg.Seed+1)
	return Finish(d)
}
