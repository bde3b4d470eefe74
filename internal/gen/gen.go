// Package gen synthesises placement benchmarks.
//
// The paper evaluates on two benchmark families this repository cannot
// ship: the ICCAD04 mixed-size suite (ibm01–ibm18, [2][3]) and the
// proprietary industrial circuits Cir1–Cir8 ([24][26]). gen recreates
// both families *statistically*: for every benchmark the paper's
// tables report (movable/pre-placed macro counts, pad counts, cell
// counts, net counts) we synthesise a circuit with those counts, a
// hierarchical module tree (needed by the clustering score of Eq. 1),
// Rent-style local connectivity, boundary pads, and a realistic macro
// area distribution. All generation is deterministic given the seed.
//
// A Scale parameter shrinks cell/net/macro counts proportionally so
// that unit tests and CI-sized benchmark runs finish quickly; the full
// counts are used when Scale == 1.
package gen

import (
	"fmt"
	"math"
	"sort"

	"macroplace/internal/geom"
	"macroplace/internal/netlist"
	"macroplace/internal/rng"
)

// Spec describes a synthetic benchmark.
type Spec struct {
	Name string
	// MovableMacros and PreplacedMacros are macro counts; pre-placed
	// macros are pinned near the region boundary like industrial IP.
	MovableMacros   int
	PreplacedMacros int
	Pads            int
	Cells           int
	Nets            int
	// Seed drives all randomness; same Spec => same Design.
	Seed int64
	// Utilization is the fraction of the region covered by node area;
	// defaults to 0.65 when zero.
	Utilization float64
	// MacroAreaFrac is the fraction of total node area occupied by
	// macros; defaults to 0.35 when zero.
	MacroAreaFrac float64
	// HierDepth and HierFanout control the synthetic module tree;
	// they default to 3 and 4.
	HierDepth  int
	HierFanout int
}

// The netlist's fixed statistics.
const (
	// avgNetDegree is the mean pins per net.
	avgNetDegree = 3.5
	// locality is the probability that a pin stays inside the anchor
	// pin's module.
	locality = 0.75
)

// withDefaults fills zero fields.
func (s Spec) withDefaults() Spec {
	if s.Utilization <= 0 {
		s.Utilization = 0.65
	}
	if s.MacroAreaFrac <= 0 {
		s.MacroAreaFrac = 0.35
	}
	if s.HierDepth <= 0 {
		s.HierDepth = 3
	}
	if s.HierFanout <= 0 {
		s.HierFanout = 4
	}
	return s
}

// Scale returns a copy of s with macro/pad/cell/net counts multiplied
// by f (minimum 1 for any count that was positive). Scale(1) is the
// identity.
func (s Spec) Scale(f float64) Spec {
	if f == 1 {
		return s
	}
	sc := func(n int) int {
		if n == 0 {
			return 0
		}
		v := int(math.Round(float64(n) * f))
		if v < 1 {
			v = 1
		}
		return v
	}
	s.MovableMacros = sc(s.MovableMacros)
	s.PreplacedMacros = sc(s.PreplacedMacros)
	s.Pads = sc(s.Pads)
	s.Cells = sc(s.Cells)
	s.Nets = sc(s.Nets)
	return s
}

// module is a node of the synthetic hierarchy tree.
type module struct {
	path    string
	members []int // node indices assigned to this module
}

// Generate synthesises a design from the spec.
func Generate(spec Spec) *netlist.Design {
	spec = spec.withDefaults()
	r := rng.New(spec.Seed)
	d := &netlist.Design{Name: spec.Name}

	// --- Sizing. Standard cells use row height 12 and widths drawn
	// from a skewed distribution; macro areas follow a lognormal so a
	// few macros dominate, as in real designs.
	const rowH = 12.0
	cellAreas := make([]float64, spec.Cells)
	var cellArea float64
	rc := r.Split("cells")
	for i := range cellAreas {
		w := math.Round(rowH * (0.5 + 4.5*rc.Float64()*rc.Float64()))
		if w < 6 {
			w = 6
		}
		cellAreas[i] = w * rowH
		cellArea += cellAreas[i]
	}

	nMacros := spec.MovableMacros + spec.PreplacedMacros
	macroAreas := make([]float64, nMacros)
	rm := r.Split("macros")
	var rawMacro float64
	for i := range macroAreas {
		macroAreas[i] = math.Exp(rm.NormFloat64() * 0.8)
		rawMacro += macroAreas[i]
	}
	// Scale macro areas so macros take MacroAreaFrac of total area.
	var macroArea float64
	if nMacros > 0 {
		if cellArea == 0 {
			cellArea = 1
		}
		macroArea = cellArea * spec.MacroAreaFrac / (1 - spec.MacroAreaFrac)
		for i := range macroAreas {
			macroAreas[i] *= macroArea / rawMacro
		}
	}

	totalArea := cellArea + macroArea
	side := math.Sqrt(totalArea / spec.Utilization)
	d.Region = geom.NewRect(0, 0, side, side)

	// --- Hierarchy tree: leaves are the modules nodes belong to.
	leaves := buildHierarchy(spec.HierDepth, spec.HierFanout)

	// --- Macros. Sorted descending by area so big macros get low
	// indices (deterministic naming), aspect ratios in [0.5, 2].
	sort.Sort(sort.Reverse(sort.Float64Slice(macroAreas)))
	rp := r.Split("place")
	for i := 0; i < nMacros; i++ {
		a := macroAreas[i]
		ar := rp.Range(0.5, 2.0)
		w := math.Sqrt(a * ar)
		h := a / w
		if w > side*0.45 {
			w = side * 0.45
			h = a / w
		}
		if h > side*0.45 {
			h = side * 0.45
			w = a / h
		}
		n := netlist.Node{
			Name: fmt.Sprintf("m%d", i),
			Kind: netlist.Macro,
			W:    w, H: h,
			Hier: leaves[rp.Intn(len(leaves))].path,
		}
		if i >= spec.MovableMacros {
			// Pre-placed macros hug the boundary like hard IP.
			n.Fixed = true
			placeOnBoundary(&n, d.Region, rp, w, h)
		} else {
			n.X = rp.Range(d.Region.Lx, d.Region.Ux-w)
			n.Y = rp.Range(d.Region.Ly, d.Region.Uy-h)
		}
		idx := d.AddNode(n)
		leafOf(leaves, n.Hier).members = append(leafOf(leaves, n.Hier).members, idx)
	}

	// --- Cells.
	for i := 0; i < spec.Cells; i++ {
		a := cellAreas[i]
		w := a / rowH
		hier := leaves[rp.Intn(len(leaves))].path
		n := netlist.Node{
			Name: fmt.Sprintf("c%d", i),
			Kind: netlist.Cell,
			W:    w, H: rowH,
			Hier: hier,
			X:    rp.Range(d.Region.Lx, d.Region.Ux-w),
			Y:    rp.Range(d.Region.Ly, d.Region.Uy-rowH),
		}
		idx := d.AddNode(n)
		leafOf(leaves, hier).members = append(leafOf(leaves, hier).members, idx)
	}

	// --- Pads on the boundary, evenly spaced.
	for i := 0; i < spec.Pads; i++ {
		n := netlist.Node{
			Name:  fmt.Sprintf("p%d", i),
			Kind:  netlist.Pad,
			Fixed: true,
			W:     1, H: 1,
		}
		t := float64(i) / float64(spec.Pads) * 4 // perimeter parameter
		switch int(t) {
		case 0:
			n.X, n.Y = d.Region.Lx+frac(t)*side, d.Region.Ly
		case 1:
			n.X, n.Y = d.Region.Ux-1, d.Region.Ly+frac(t)*side
		case 2:
			n.X, n.Y = d.Region.Ux-1-frac(t)*side, d.Region.Uy-1
		default:
			n.X, n.Y = d.Region.Lx, d.Region.Uy-1-frac(t)*side
		}
		n.X = clamp(n.X, d.Region.Lx, d.Region.Ux-1)
		n.Y = clamp(n.Y, d.Region.Ly, d.Region.Uy-1)
		d.AddNode(n)
	}

	generateNets(d, spec, leaves, r.Split("nets"))
	return d
}

func frac(x float64) float64 { return x - math.Floor(x) }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func placeOnBoundary(n *netlist.Node, region geom.Rect, r *rng.RNG, w, h float64) {
	side := r.Intn(4)
	switch side {
	case 0: // bottom
		n.X, n.Y = r.Range(region.Lx, region.Ux-w), region.Ly
	case 1: // right
		n.X, n.Y = region.Ux-w, r.Range(region.Ly, region.Uy-h)
	case 2: // top
		n.X, n.Y = r.Range(region.Lx, region.Ux-w), region.Uy-h
	default: // left
		n.X, n.Y = region.Lx, r.Range(region.Ly, region.Uy-h)
	}
}

func buildHierarchy(depth, fanout int) []*module {
	var leaves []*module
	var walk func(path string, level int)
	walk = func(path string, level int) {
		if level == depth {
			leaves = append(leaves, &module{path: path})
			return
		}
		for i := 0; i < fanout; i++ {
			walk(fmt.Sprintf("%s/u%d", path, i), level+1)
		}
	}
	walk("top", 0)
	return leaves
}

func leafOf(leaves []*module, path string) *module {
	// Paths are generated from leaves, so a linear scan is exact; the
	// leaf count is small (fanout^depth, e.g. 64).
	for _, l := range leaves {
		if l.path == path {
			return l
		}
	}
	panic("gen: unknown hierarchy path " + path)
}

// generateNets draws spec.Nets nets with module locality. Each net has
// an anchor node; remaining pins come from the anchor's module with
// probability locality, otherwise from anywhere (including pads,
// with a small probability that makes boundary I/O nets exist).
func generateNets(d *netlist.Design, spec Spec, leaves []*module, r *rng.RNG) {
	nNodes := len(d.Nodes)
	if nNodes == 0 {
		return
	}
	// Index pads separately for I/O nets.
	var pads []int
	for i := range d.Nodes {
		if d.Nodes[i].Kind == netlist.Pad {
			pads = append(pads, i)
		}
	}
	nonPad := nNodes - len(pads)
	if nonPad <= 0 {
		return
	}
	// Map node -> leaf for locality draws.
	leafIdx := make([]int, nNodes)
	for i := range leafIdx {
		leafIdx[i] = -1
	}
	for li, l := range leaves {
		for _, m := range l.members {
			leafIdx[m] = li
		}
	}

	pinOffset := func(n *netlist.Node) (float64, float64) {
		// Pins sit inside the node, offset from its center.
		return r.Range(-n.W/2, n.W/2) * 0.8, r.Range(-n.H/2, n.H/2) * 0.8
	}

	for ni := 0; ni < spec.Nets; ni++ {
		// Degree: 2 + geometric tail with the requested mean.
		deg := 2
		p := 1.0 / (avgNetDegree - 1.0)
		for deg < 24 && r.Float64() > p {
			deg++
		}
		net := netlist.Net{Name: fmt.Sprintf("n%d", ni)}
		anchor := r.Intn(nonPad) // anchors are non-pad nodes
		anchor = nthNonPad(d, anchor)
		seen := map[int]bool{anchor: true}
		an := &d.Nodes[anchor]
		dx, dy := pinOffset(an)
		net.Pins = append(net.Pins, netlist.Pin{Node: anchor, Dx: dx, Dy: dy})

		for len(net.Pins) < deg {
			var cand int
			switch {
			case len(pads) > 0 && r.Float64() < 0.03:
				cand = pads[r.Intn(len(pads))]
			case leafIdx[anchor] >= 0 && r.Float64() < locality:
				members := leaves[leafIdx[anchor]].members
				if len(members) == 0 {
					cand = nthNonPad(d, r.Intn(nonPad))
				} else {
					cand = members[r.Intn(len(members))]
				}
			default:
				cand = nthNonPad(d, r.Intn(nonPad))
			}
			if seen[cand] {
				// Give up quickly on tiny designs rather than loop.
				if len(seen) >= nNodes {
					break
				}
				continue
			}
			seen[cand] = true
			cn := &d.Nodes[cand]
			dx, dy := pinOffset(cn)
			net.Pins = append(net.Pins, netlist.Pin{Node: cand, Dx: dx, Dy: dy})
		}
		if len(net.Pins) >= 2 {
			d.AddNet(net)
		}
	}
}

// nthNonPad maps a dense index in [0, #nonPad) to a node index,
// relying on the generator layout: macros then cells then pads.
func nthNonPad(d *netlist.Design, i int) int {
	// Nodes are appended macros-first, cells-second, pads-last, so the
	// first (len(Nodes)-pads) indices are exactly the non-pad nodes.
	return i
}
