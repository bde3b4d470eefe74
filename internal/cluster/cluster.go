// Package cluster implements the coarsened-netlist generation stage of
// the paper (Sec. II-A): macros are merged into macro groups with the
// score Γ of Eq. (1) and standard cells into cell groups with the
// score φ of Eq. (2). Both scores combine proximity in an initial
// analytical placement, connectivity, and (for macros) shared design
// hierarchy and area similarity.
//
// Macro grouping uses the paper's exact greedy scheme — repeatedly
// merge the highest-scoring pair — implemented with a lazy max-heap so
// the ≤ ~1000-macro instances finish instantly. Cell grouping faces
// hundreds of thousands of nodes, where all-pairs greedy is
// intractable for any implementation (the paper's clustering reference
// [24] also restricts candidates); we restrict candidate pairs to
// net-connected cells and run multi-pass heavy-pair matching with the
// same φ score, which preserves the score's ordering behaviour.
package cluster

import (
	"container/heap"
	"math"
	"sort"

	"macroplace/internal/netlist"
)

// The constants of Eqs. (1) and (2), the paper's values from Sec. II-A.
const (
	// delta weights hierarchy commonality in Γ.
	delta = 0.001
	// epsilon weights connectivity in Γ.
	epsilon = 0.0003
	// kappa weights area similarity in Γ.
	kappa = 1
	// rho weights connectivity density in φ.
	rho = 1
	// nu is the merge-termination threshold for both scores.
	nu = 0.001
	// maxGroupGrids caps a group's area at this many grid areas.
	maxGroupGrids = 4
)

// Group is a cluster of node indices.
type Group struct {
	// Members are node indices into the original design.
	Members []int
	// Area is the summed footprint area.
	Area float64
	// MaxW, MaxH are the largest single-member dimensions; a macro
	// group can never be squeezed below them.
	MaxW, MaxH float64
	// Hier is the common hierarchy prefix of the members ("" if none).
	Hier string
	// CX, CY is the area-weighted centroid of the members' initial
	// placement.
	CX, CY float64
}

// Clustering is the output of Build: the coarsened design's groups.
type Clustering struct {
	MacroGroups []Group
	CellGroups  []Group
	// GroupOf maps node index -> group id, where macro groups occupy
	// ids [0, len(MacroGroups)) and cell groups follow. Pads and
	// fixed macros map to -1.
	GroupOf []int
}

// ReorderMacroGroups permutes the macro groups so that new position i
// holds old group perm[i], fixing the GroupOf mapping. It panics if
// perm is not a permutation of the macro-group indices. Used by the
// placement-order ablation (Alg. 1 sorts by area; the ablation
// shuffles).
func (c *Clustering) ReorderMacroGroups(perm []int) {
	if len(perm) != len(c.MacroGroups) {
		panic("cluster: ReorderMacroGroups permutation length mismatch")
	}
	seen := make([]bool, len(perm))
	ng := make([]Group, len(perm))
	for i, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			panic("cluster: ReorderMacroGroups invalid permutation")
		}
		seen[p] = true
		ng[i] = c.MacroGroups[p]
	}
	c.MacroGroups = ng
	for gi := range c.MacroGroups {
		for _, m := range c.MacroGroups[gi].Members {
			c.GroupOf[m] = gi
		}
	}
}

// Build clusters the design's movable macros and cells. Merging stops
// for a group once it exceeds gridArea, the area of one placement
// grid, and no group grows past maxGroupGrids × gridArea. Node
// positions must already hold the initial prototype placement (see
// gplace.InitialPlacement).
func Build(d *netlist.Design, gridArea float64) *Clustering {
	nodeNets := d.NodeNets()

	macros := d.MovableMacroIndices()
	cells := d.CellIndices()

	mg := greedyMerge(d, macros, nodeNets, gridArea)
	cg := matchMerge(d, cells, nodeNets, gridArea)

	c := &Clustering{MacroGroups: mg, CellGroups: cg}
	c.GroupOf = make([]int, len(d.Nodes))
	for i := range c.GroupOf {
		c.GroupOf[i] = -1
	}
	for gi := range mg {
		for _, m := range mg[gi].Members {
			c.GroupOf[m] = gi
		}
	}
	off := len(mg)
	for gi := range cg {
		for _, m := range cg[gi].Members {
			c.GroupOf[m] = off + gi
		}
	}
	return c
}

// ---------------------------------------------------------------------------
// Greedy pairwise merging for macros (exact Eq. 1 scheme).

type workGroup struct {
	Group
	alive bool
	// nets maps net index -> number of member pins on it; shared keys
	// between two groups define their connectivity w.
	nets map[int]float64
	id   int
	ver  int // bumped on every merge; heap entries with stale ver are skipped
}

type pairItem struct {
	score    float64
	a, b     int // group ids
	va, vb   int // group versions at push time
	sequence int // tiebreaker for determinism
}

type pairHeap []pairItem

func (h pairHeap) Len() int { return len(h) }
func (h pairHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].sequence < h[j].sequence
}
func (h pairHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x any)   { *h = append(*h, x.(pairItem)) }
func (h *pairHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

func newWorkGroup(d *netlist.Design, node int, nodeNets [][]int, id int) *workGroup {
	n := &d.Nodes[node]
	c := n.Center()
	g := &workGroup{
		Group: Group{
			Members: []int{node},
			Area:    n.Area(),
			MaxW:    n.W,
			MaxH:    n.H,
			Hier:    n.Hier,
			CX:      c.X,
			CY:      c.Y,
		},
		alive: true,
		nets:  make(map[int]float64),
		id:    id,
	}
	for _, ni := range nodeNets[node] {
		g.nets[ni]++
	}
	return g
}

// connectivity returns w(a, b): summed net weights of nets incident to
// both groups.
func connectivity(d *netlist.Design, a, b *workGroup) float64 {
	small, big := a, b
	if len(big.nets) < len(small.nets) {
		small, big = big, small
	}
	var w float64
	for ni := range small.nets {
		if _, ok := big.nets[ni]; ok {
			w += d.Nets[ni].EffWeight()
		}
	}
	return w
}

// gammaScore evaluates Eq. (1) for two macro groups.
func gammaScore(d *netlist.Design, a, b *workGroup) float64 {
	dist := math.Hypot(a.CX-b.CX, a.CY-b.CY)
	if dist < 1e-9 {
		dist = 1e-9
	}
	h := float64(netlist.HierPrefixLen(a.Hier, b.Hier))
	w := connectivity(d, a, b)
	dA := math.Abs(a.Area - b.Area)
	return 1/dist + delta*h + epsilon*w + kappa/(dA+1)
}

// phiScore evaluates Eq. (2) for two cell groups.
func phiScore(a, b *workGroup, conn float64) float64 {
	dist := math.Hypot(a.CX-b.CX, a.CY-b.CY)
	if dist < 1e-9 {
		dist = 1e-9
	}
	return 1/dist + rho*conn/(a.Area+b.Area)
}

// mergeInto merges src into dst.
func mergeInto(dst, src *workGroup) {
	totalA := dst.Area + src.Area
	if totalA > 0 {
		dst.CX = (dst.CX*dst.Area + src.CX*src.Area) / totalA
		dst.CY = (dst.CY*dst.Area + src.CY*src.Area) / totalA
	}
	dst.Area = totalA
	dst.Members = append(dst.Members, src.Members...)
	if src.MaxW > dst.MaxW {
		dst.MaxW = src.MaxW
	}
	if src.MaxH > dst.MaxH {
		dst.MaxH = src.MaxH
	}
	dst.Hier = commonHier(dst.Hier, src.Hier)
	for ni, c := range src.nets {
		dst.nets[ni] += c
	}
	src.alive = false
	src.nets = nil
	dst.ver++
	src.ver++
}

func commonHier(a, b string) string {
	n := netlist.HierPrefixLen(a, b)
	if n == 0 {
		return ""
	}
	// Reconstruct the shared prefix from a.
	idx := 0
	for seen := 0; idx < len(a); idx++ {
		if a[idx] == '/' {
			seen++
			if seen == n {
				break
			}
		}
	}
	return a[:idx]
}

// mergeEligible reports whether the pair may merge under the area
// rules: stop growing a group once it exceeds one grid, and never
// exceed maxGroupGrids grids.
func mergeEligible(a, b *workGroup, gridArea float64) bool {
	if a.Area > gridArea && b.Area > gridArea {
		return false
	}
	return a.Area+b.Area <= maxGroupGrids*gridArea
}

// greedyMerge runs the paper's exact highest-score-pair loop with the
// macro score Γ.
func greedyMerge(d *netlist.Design, nodes []int, nodeNets [][]int, gridArea float64) []Group {
	groups := make([]*workGroup, len(nodes))
	for i, n := range nodes {
		groups[i] = newWorkGroup(d, n, nodeNets, i)
	}
	if len(groups) <= 1 {
		return finalize(groups)
	}

	h := &pairHeap{}
	seq := 0
	push := func(a, b *workGroup) {
		if !mergeEligible(a, b, gridArea) {
			return
		}
		s := gammaScore(d, a, b)
		if s < nu {
			return
		}
		heap.Push(h, pairItem{score: s, a: a.id, b: b.id, va: a.ver, vb: b.ver, sequence: seq})
		seq++
	}
	for i := 0; i < len(groups); i++ {
		for j := i + 1; j < len(groups); j++ {
			push(groups[i], groups[j])
		}
	}

	for h.Len() > 0 {
		it := heap.Pop(h).(pairItem)
		a, b := groups[it.a], groups[it.b]
		if !a.alive || !b.alive || a.ver != it.va || b.ver != it.vb {
			continue // stale entry
		}
		if it.score < nu {
			break
		}
		mergeInto(a, b)
		for _, g := range groups {
			if g.alive && g.id != a.id {
				push(a, g)
			}
		}
	}
	return finalize(groups)
}

func finalize(groups []*workGroup) []Group {
	var out []Group
	for _, g := range groups {
		if g != nil && g.alive {
			out = append(out, g.Group)
		}
	}
	// Deterministic ordering: by descending area then first member.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Area != out[j].Area {
			return out[i].Area > out[j].Area
		}
		return out[i].Members[0] < out[j].Members[0]
	})
	return out
}

// ---------------------------------------------------------------------------
// Multi-pass heavy-pair matching for cells.

// matchMerge clusters cells by repeated matching passes. Candidate
// pairs are cells sharing a net; each pass greedily matches the
// highest-φ disjoint pairs, then rebuilds candidates between passes.
// Passes stop when every group exceeds the grid area, no pair scores
// above nu, or a pass makes no merge.
func matchMerge(d *netlist.Design, nodes []int, nodeNets [][]int, gridArea float64) []Group {
	groups := make([]*workGroup, len(nodes))
	groupOf := make(map[int]int, len(nodes)) // node -> group index
	for i, n := range nodes {
		groups[i] = newWorkGroup(d, n, nodeNets, i)
		groupOf[n] = i
	}
	if len(groups) <= 1 {
		return finalize(groups)
	}

	const maxPasses = 12
	for pass := 0; pass < maxPasses; pass++ {
		type cand struct {
			score float64
			a, b  int
		}
		// Gather candidate pairs from nets: all distinct group pairs
		// co-hosted on a net. Degree is capped so clique blowup on
		// high-fanout nets cannot occur.
		seen := make(map[[2]int]bool)
		var cands []cand
		for ni := range d.Nets {
			pins := d.Nets[ni].Pins
			if len(pins) > 16 {
				continue
			}
			var gs []int
			for _, pin := range pins {
				if gi, ok := groupOf[pin.Node]; ok {
					gs = append(gs, gi)
				}
			}
			for i := 0; i < len(gs); i++ {
				for j := i + 1; j < len(gs); j++ {
					a, b := gs[i], gs[j]
					if a == b {
						continue
					}
					if a > b {
						a, b = b, a
					}
					key := [2]int{a, b}
					if seen[key] {
						continue
					}
					seen[key] = true
					ga, gb := groups[a], groups[b]
					if !ga.alive || !gb.alive || !mergeEligible(ga, gb, gridArea) {
						continue
					}
					s := phiScore(ga, gb, connectivity(d, ga, gb))
					if s >= nu {
						cands = append(cands, cand{s, a, b})
					}
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].score != cands[j].score {
				return cands[i].score > cands[j].score
			}
			if cands[i].a != cands[j].a {
				return cands[i].a < cands[j].a
			}
			return cands[i].b < cands[j].b
		})
		matched := make(map[int]bool)
		merges := 0
		for _, c := range cands {
			if matched[c.a] || matched[c.b] {
				continue
			}
			ga, gb := groups[c.a], groups[c.b]
			if !ga.alive || !gb.alive {
				continue
			}
			mergeInto(ga, gb)
			for _, m := range gb.Members {
				groupOf[m] = c.a
			}
			matched[c.a], matched[c.b] = true, true
			merges++
		}
		if merges == 0 {
			break
		}
		// Stop early once all groups are grid-sized.
		done := true
		for _, g := range groups {
			if g.alive && g.Area <= gridArea {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	return finalize(groups)
}
