// Package partition implements Fiduccia–Mattheyses (FM) hypergraph
// bipartitioning (best-prefix passes with linear-scan gain selection,
// which is exact and fast at placement-leaf sizes) — the workhorse of
// classic min-cut placement and of the netlist-clustering literature the paper's
// preprocessing stage builds on. The packaged recursive bisection
// placer (see internal/baseline.MinCut) is the traditional
// partitioning-driven placement family that predates analytical and
// learning-based macro placers.
package partition

import (
	"fmt"

	"macroplace/internal/rng"
)

// Hypergraph is a weighted hypergraph: vertices carry areas, nets
// connect vertex sets.
type Hypergraph struct {
	// Areas[v] is the vertex weight (cell/macro area).
	Areas []float64
	// Nets[e] lists the vertices of hyperedge e (deduplicated).
	Nets [][]int
	// Weights[e] is the net weight (nil: all 1).
	Weights []float64
	// Pins[v] lists the nets incident to vertex v (built by Finalize).
	Pins [][]int
}

// NewHypergraph allocates a hypergraph for n vertices.
func NewHypergraph(n int) *Hypergraph {
	return &Hypergraph{Areas: make([]float64, n)}
}

// AddNet appends a hyperedge over the given vertices (duplicates are
// removed; degenerate nets are dropped). Returns the net index or -1.
func (h *Hypergraph) AddNet(vertices []int, weight float64) int {
	seen := map[int]bool{}
	var vs []int
	for _, v := range vertices {
		if v < 0 || v >= len(h.Areas) {
			panic(fmt.Sprintf("partition: vertex %d out of range", v))
		}
		if !seen[v] {
			seen[v] = true
			vs = append(vs, v)
		}
	}
	if len(vs) < 2 {
		return -1
	}
	h.Nets = append(h.Nets, vs)
	h.Weights = append(h.Weights, weight)
	return len(h.Nets) - 1
}

// Finalize builds the pin lists; call after all AddNet calls.
func (h *Hypergraph) Finalize() {
	h.Pins = make([][]int, len(h.Areas))
	for e, vs := range h.Nets {
		for _, v := range vs {
			h.Pins[v] = append(h.Pins[v], e)
		}
	}
}

func (h *Hypergraph) weight(e int) float64 {
	if h.Weights == nil || h.Weights[e] <= 0 {
		return 1
	}
	return h.Weights[e]
}

// CutSize returns the summed weight of nets spanning both parts.
func (h *Hypergraph) CutSize(part []int) float64 {
	var cut float64
	for e, vs := range h.Nets {
		first := part[vs[0]]
		for _, v := range vs[1:] {
			if part[v] != first {
				cut += h.weight(e)
				break
			}
		}
	}
	return cut
}

// Result reports a bipartition.
type Result struct {
	// Part[v] is 0 or 1.
	Part []int
	// Cut is the final cut size.
	Cut float64
	// Passes is the number of FM passes executed.
	Passes int
}

// Config tunes the partitioner.
type Config struct {
	// Balance is the maximum fraction of total area either side may
	// hold (default 0.55 — i.e. a 45/55 split tolerance).
	Balance float64
	Seed    int64
}

// maxPasses bounds FM passes.
const maxPasses = 8

func (c Config) normalize() Config {
	if c.Balance <= 0.5 || c.Balance > 1 {
		c.Balance = 0.55
	}
	return c
}

// Bipartition runs FM from a random balanced initial assignment.
func Bipartition(h *Hypergraph, cfg Config) Result {
	cfg = cfg.normalize()
	if h.Pins == nil {
		h.Finalize()
	}
	n := len(h.Areas)
	r := rng.New(cfg.Seed).Split("fm")

	var totalArea, maxArea float64
	for _, a := range h.Areas {
		totalArea += a
		if a > maxArea {
			maxArea = a
		}
	}
	// Classic FM slack: a perfectly balanced split must still admit
	// single-vertex excursions, or no move is ever feasible.
	maxSide := cfg.Balance * totalArea
	if min := totalArea/2 + maxArea; maxSide < min {
		maxSide = min
	}

	// Initial assignment: random order, fill side 0 to ~half.
	part := make([]int, n)
	order := r.Perm(n)
	var a0 float64
	for _, v := range order {
		if a0+h.Areas[v] <= totalArea/2 {
			part[v] = 0
			a0 += h.Areas[v]
		} else {
			part[v] = 1
		}
	}

	sideArea := [2]float64{}
	for v := 0; v < n; v++ {
		sideArea[part[v]] += h.Areas[v]
	}

	res := Result{Part: part}
	for pass := 0; pass < maxPasses; pass++ {
		res.Passes = pass + 1
		if !fmPass(h, part, &sideArea, maxSide) {
			break
		}
	}
	res.Cut = h.CutSize(part)
	return res
}

// fmPass runs one full FM pass: every vertex moves at most once, in
// best-gain order, subject to balance; the best prefix of the move
// sequence is kept. Returns true when the pass improved the cut.
func fmPass(h *Hypergraph, part []int, sideArea *[2]float64, maxSide float64) bool {
	n := len(h.Areas)
	// Per-net side counts.
	cnt := make([][2]int, len(h.Nets))
	for e, vs := range h.Nets {
		for _, v := range vs {
			cnt[e][part[v]]++
		}
	}
	gain := make([]float64, n)
	for v := 0; v < n; v++ {
		gain[v] = vertexGain(h, cnt, part, v)
	}
	locked := make([]bool, n)

	type move struct {
		v       int
		cumGain float64
	}
	var moves []move
	var cum float64

	for step := 0; step < n; step++ {
		// Select the unlocked, balance-feasible vertex of max gain.
		best := -1
		for v := 0; v < n; v++ {
			if locked[v] {
				continue
			}
			to := 1 - part[v]
			if sideArea[to]+h.Areas[v] > maxSide {
				continue
			}
			if best < 0 || gain[v] > gain[best] {
				best = v
			}
		}
		if best < 0 {
			break
		}
		v := best
		from := part[v]
		to := 1 - from
		cum += gain[v]
		moves = append(moves, move{v: v, cumGain: cum})
		locked[v] = true
		// Apply the move and update net counts + neighbor gains.
		for _, e := range h.Pins[v] {
			// Before the move.
			cnt[e][from]--
			cnt[e][to]++
		}
		part[v] = to
		sideArea[from] -= h.Areas[v]
		sideArea[to] += h.Areas[v]
		// Recompute gains of neighbors (simple exact recompute; net
		// degrees are small so this stays near the classic O(pins)).
		for _, e := range h.Pins[v] {
			for _, u := range h.Nets[e] {
				if !locked[u] {
					gain[u] = vertexGain(h, cnt, part, u)
				}
			}
		}
	}

	// Find the best prefix.
	bestIdx, bestGain := -1, 0.0
	for i, m := range moves {
		if m.cumGain > bestGain+1e-12 {
			bestIdx, bestGain = i, m.cumGain
		}
	}
	// Roll back moves after the best prefix.
	for i := len(moves) - 1; i > bestIdx; i-- {
		v := moves[i].v
		from := part[v]
		to := 1 - from
		part[v] = to
		sideArea[from] -= h.Areas[v]
		sideArea[to] += h.Areas[v]
	}
	return bestIdx >= 0
}

// vertexGain returns the cut reduction of moving v to the other side:
// +w for every net that becomes uncut, −w for every net that becomes
// cut.
func vertexGain(h *Hypergraph, cnt [][2]int, part []int, v int) float64 {
	var g float64
	from := part[v]
	to := 1 - from
	for _, e := range h.Pins[v] {
		w := h.weight(e)
		if cnt[e][from] == 1 {
			g += w // v is the last on its side: net becomes uncut
		}
		if cnt[e][to] == 0 {
			g -= w // net was uncut and becomes cut
		}
	}
	return g
}
