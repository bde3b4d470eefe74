// Package legalize determines exact macro locations once macro groups
// have been allocated to grids by RL or MCTS (Sec. II-B of the paper):
// cell groups are placed by quadratic programming with groups pinned
// at their grid-block centers, macros get relative locations by a
// bounded QP inside their blocks, and per-block overlaps are removed
// with a sequence-pair-constrained linear program that minimises
// weighted wirelength (Eq. 3, after Tang–Tian–Wong [34]).
package legalize

import (
	"sort"

	"macroplace/internal/geom"
	"macroplace/internal/solver"
)

// Item is one rectangle to legalize: current position, dimensions, and
// a wirelength anchor (the position the LP pulls it toward, derived
// from its connected pins).
type Item struct {
	W, H float64
	// X, Y is the current lower-left corner (input) and the legalized
	// corner (output).
	X, Y float64
	// TX, TY is the wirelength-ideal center position.
	TX, TY float64
	// Weight is the summed λ_n of the nets pulling the item.
	Weight float64
}

// seqPair is the sequence-pair representation (S⁺, S⁻) of Murata et
// al. [28]: two permutations of item indices whose joint order encodes
// every pairwise horizontal/vertical relation.
type seqPair struct {
	SPlus, SMinus []int
}

// extractSeqPair derives a sequence pair from the items' current
// (possibly overlapping) positions using the canonical diagonal
// sweeps: S⁻ orders by x+y (lower-left first) and S⁺ by x−y, with
// index tie-breaks for determinism. The relative relations of any
// overlap-free placement are preserved.
func extractSeqPair(items []Item) seqPair {
	n := len(items)
	sp := seqPair{SPlus: make([]int, n), SMinus: make([]int, n)}
	for i := 0; i < n; i++ {
		sp.SPlus[i] = i
		sp.SMinus[i] = i
	}
	cx := func(i int) float64 { return items[i].X + items[i].W/2 }
	cy := func(i int) float64 { return items[i].Y + items[i].H/2 }
	sort.SliceStable(sp.SPlus, func(a, b int) bool {
		i, j := sp.SPlus[a], sp.SPlus[b]
		di, dj := cx(i)-cy(i), cx(j)-cy(j)
		if di != dj {
			return di < dj
		}
		return i < j
	})
	sort.SliceStable(sp.SMinus, func(a, b int) bool {
		i, j := sp.SMinus[a], sp.SMinus[b]
		di, dj := cx(i)+cy(i), cx(j)+cy(j)
		if di != dj {
			return di < dj
		}
		return i < j
	})
	return sp
}

// relations returns, for every ordered pair (i, j) with i "left of" j
// under the sequence pair, hor[i][j] = true; and ver[i][j] = true when
// i is "below" j. Murata's rule: i before j in both sequences ⇒ i left
// of j; i after j in S⁺ but before j in S⁻ ⇒ i below j.
func (sp seqPair) relations() (hor, ver [][]bool) {
	n := len(sp.SPlus)
	posP := make([]int, n)
	posM := make([]int, n)
	for k, v := range sp.SPlus {
		posP[v] = k
	}
	for k, v := range sp.SMinus {
		posM[v] = k
	}
	hor = make([][]bool, n)
	ver = make([][]bool, n)
	for i := 0; i < n; i++ {
		hor[i] = make([]bool, n)
		ver[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if posP[i] < posP[j] && posM[i] < posM[j] {
				hor[i][j] = true // i left of j
			} else if posP[i] > posP[j] && posM[i] < posM[j] {
				ver[i][j] = true // i below j
			}
		}
	}
	return hor, ver
}

// solveAxis places one axis of the items inside [lo, hi] subject to
// the sequence-pair spacing constraints, minimising Σ weight·|x_i −
// target_i| via LP. rel[i][j] means i must precede j with spacing
// size(i). size and target select the axis. It returns the solved
// coordinates, or nil when the LP fails (caller falls back to
// packing).
func solveAxis(n int, rel [][]bool, size, target, weight []float64, lo, hi float64) []float64 {
	// Variables: x_0..x_{n-1} (shifted by lo), u_0..u_{n-1} (|x−t|).
	nv := 2 * n
	var lp solver.LP
	lp.C = make([]float64, nv)
	for i := 0; i < n; i++ {
		w := weight[i]
		if w <= 0 {
			w = 1
		}
		lp.C[n+i] = w
	}
	addRow := func(coef map[int]float64, b float64) {
		row := make([]float64, nv)
		for k, v := range coef {
			row[k] = v
		}
		lp.A = append(lp.A, row)
		lp.B = append(lp.B, b)
	}
	for i := 0; i < n; i++ {
		// x_i + size_i <= hi − lo  (upper bound; lower bound is x>=0)
		addRow(map[int]float64{i: 1}, (hi-lo)-size[i])
		// |x_i − (t_i − lo)| <= u_i
		t := target[i] - lo
		addRow(map[int]float64{i: 1, n + i: -1}, t)
		addRow(map[int]float64{i: -1, n + i: -1}, -t)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rel[i][j] {
				// x_i + size_i <= x_j  ⇒  x_i − x_j <= −size_i
				addRow(map[int]float64{i: 1, j: -1}, -size[i])
			}
		}
	}
	x, _, err := lp.Solve()
	if err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = x[i] + lo
	}
	return out
}

// packAxis is the LP fallback: a longest-path packing that honours the
// precedence relations with minimal coordinates, then shifts the whole
// arrangement toward the weighted mean target while staying >= lo.
func packAxis(n int, rel [][]bool, size, target []float64, lo, hi float64) []float64 {
	// Longest path over the DAG rel (topological order by in-degree).
	coord := make([]float64, n)
	for i := range coord {
		coord[i] = lo
	}
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rel[i][j] {
				indeg[j]++
			}
		}
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for j := 0; j < n; j++ {
			if rel[i][j] {
				if c := coord[i] + size[i]; c > coord[j] {
					coord[j] = c
				}
				indeg[j]--
				if indeg[j] == 0 {
					queue = append(queue, j)
				}
			}
		}
	}
	// Shift toward targets where slack allows.
	var maxEnd float64 = lo
	for i := 0; i < n; i++ {
		if e := coord[i] + size[i]; e > maxEnd {
			maxEnd = e
		}
	}
	slack := hi - maxEnd
	if slack > 0 {
		var num, den float64
		for i := 0; i < n; i++ {
			num += target[i] - coord[i]
			den++
		}
		shift := num / den
		if shift < 0 {
			shift = 0
		}
		if shift > slack {
			shift = slack
		}
		for i := 0; i < n; i++ {
			coord[i] += shift
		}
	}
	return coord
}

// maxLPItems bounds the item count for which RemoveOverlaps attempts
// the LP (the dense simplex scales cubically); larger sets go straight
// to packing.
const maxLPItems = 24

// RemoveOverlaps legalizes the items inside bounds: sequence-pair
// extraction, LP per axis (Eq. 3), packing fallback. Items are moved
// in place.
func RemoveOverlaps(items []Item, bounds geom.Rect) {
	n := len(items)
	if n == 0 {
		return
	}
	if n == 1 {
		r := geom.NewRect(items[0].TX-items[0].W/2, items[0].TY-items[0].H/2, items[0].W, items[0].H).ClampInto(bounds)
		items[0].X, items[0].Y = r.Lx, r.Ly
		return
	}
	sp := extractSeqPair(items)
	hor, ver := sp.relations()

	ws := make([]float64, n)
	hs := make([]float64, n)
	txs := make([]float64, n)
	tys := make([]float64, n)
	wts := make([]float64, n)
	for i := range items {
		ws[i] = items[i].W
		hs[i] = items[i].H
		txs[i] = items[i].TX - items[i].W/2 // targets are corners per axis
		tys[i] = items[i].TY - items[i].H/2
		wts[i] = items[i].Weight
	}

	var xs, ys []float64
	if n <= maxLPItems {
		xs = solveAxis(n, hor, ws, txs, wts, bounds.Lx, bounds.Ux)
		ys = solveAxis(n, ver, hs, tys, wts, bounds.Ly, bounds.Uy)
	}
	if xs == nil {
		xs = packAxis(n, hor, ws, txs, bounds.Lx, bounds.Ux)
	}
	if ys == nil {
		ys = packAxis(n, ver, hs, tys, bounds.Ly, bounds.Uy)
	}
	for i := range items {
		items[i].X = xs[i]
		items[i].Y = ys[i]
	}
}
