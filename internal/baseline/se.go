package baseline

import (
	"context"
	"math"

	"macroplace/internal/gplace"
	"macroplace/internal/netlist"
	"macroplace/internal/rng"
)

// SEConfig tunes the simulated-evolution macro placer.
type SEConfig struct {
	// Generations is the evolution length (default 40).
	Generations int
	// Candidates is the candidate-grid resolution per axis used
	// during allocation (default 16).
	Candidates int
	Seed       int64
	// Ctx, when non-nil, is polled between generations: cancellation
	// keeps the best-so-far macro placement and still runs the common
	// finishing pass, so the result is always complete.
	Ctx context.Context
	// Progress, when set, receives each new best full-netlist HPWL as
	// the evolution improves (pre-finish values — anytime estimates).
	Progress func(bestHPWL float64)
}

func (c SEConfig) normalize() SEConfig {
	if c.Generations <= 0 {
		c.Generations = 40
	}
	if c.Candidates <= 0 {
		c.Candidates = 16
	}
	return c
}

const (
	// seBias shifts selection pressure: higher keeps more macros in
	// place per generation.
	seBias = 0.3
	// seHierWeight rewards candidate positions close to hierarchy
	// siblings, the dataflow-awareness of [26].
	seHierWeight = 0.15
)

// SE runs the simulated-evolution macro placer of [24]/[26] in its
// three classic phases per generation — evaluation (per-macro net
// cost), selection (rip up macros whose cost exceeds a goodness
// threshold), and allocation (greedy re-placement at the best
// candidate slot, hierarchy-aware) — then finishes with the common
// legalize-and-place-cells pass. It mutates d.
func SE(d *netlist.Design, cfg SEConfig) Result {
	cfg = cfg.normalize()
	r := rng.New(cfg.Seed).Split("se")

	// Starting point: mixed analytical placement.
	gplace.Place(d, gplace.Config{Mode: gplace.MoveAll, Iterations: 6})

	nodeNets := d.NodeNets()
	macros := macrosByAreaDesc(d)
	if len(macros) == 0 {
		return Finish(d)
	}

	// Hierarchy sibling centroids for the dataflow-aware bonus.
	hierOf := make(map[string][]int)
	for _, m := range macros {
		h := d.Nodes[m].Hier
		if h != "" {
			hierOf[h] = append(hierOf[h], m)
		}
	}

	bestPos := d.Positions()
	bestWL := d.HPWL()

	for gen := 0; gen < cfg.Generations; gen++ {
		if cancelled(cfg.Ctx) {
			break
		}
		// Evaluation: per-macro cost relative to its best possible
		// (zero-span) wiring; goodness = ideal/actual ∈ (0, 1].
		costs := make([]float64, len(macros))
		var avg float64
		for i, m := range macros {
			costs[i] = macroNetHPWL(d, nodeNets, m)
			avg += costs[i]
		}
		avg /= float64(len(macros))
		if avg <= 0 {
			break
		}

		// Selection: rip up macros with probability growing in their
		// relative cost, damped by the bias.
		var selected []int
		for i, m := range macros {
			p := costs[i]/avg - seBias
			if r.Float64() < p {
				selected = append(selected, m)
			}
		}
		if len(selected) == 0 {
			// Always move at least one: the worst.
			worst, worstC := macros[0], -1.0
			for i, m := range macros {
				if costs[i] > worstC {
					worst, worstC = m, costs[i]
				}
			}
			selected = append(selected, worst)
		}
		r.Shuffle(len(selected), func(i, j int) { selected[i], selected[j] = selected[j], selected[i] })

		// Allocation: greedy best candidate per ripped-up macro.
		for _, m := range selected {
			n := &d.Nodes[m]
			cands := candidateGrid(d.Region, n.W, n.H, cfg.Candidates)
			// Include the current position so a generation can no-op.
			cands = append(cands, n.Center())
			bestC, bestScore := n.Center(), math.Inf(1)
			for _, c := range cands {
				n.SetCenter(c.X, c.Y)
				score := macroNetHPWL(d, nodeNets, m)
				score += overlapPenalty(d, macros, m)
				if n.Hier != "" {
					score += seHierWeight * hierDistance(d, hierOf[n.Hier], m)
				}
				if score < bestScore {
					bestScore, bestC = score, c
				}
			}
			n.SetCenter(bestC.X, bestC.Y)
		}

		if wl := d.HPWL(); wl < bestWL {
			bestWL = wl
			bestPos = d.Positions()
			if cfg.Progress != nil {
				cfg.Progress(bestWL)
			}
		}
	}
	d.SetPositions(bestPos)
	return Finish(d)
}

// overlapPenalty charges the overlap area macro m creates against the
// other macros, weighted to dominate small wirelength gains.
func overlapPenalty(d *netlist.Design, macros []int, m int) float64 {
	rm := d.Nodes[m].Rect()
	var total float64
	for _, o := range macros {
		if o == m {
			continue
		}
		total += rm.OverlapArea(d.Nodes[o].Rect())
	}
	// Also penalize fixed macros.
	for i := range d.Nodes {
		if d.Nodes[i].Kind == netlist.Macro && d.Nodes[i].Fixed {
			total += rm.OverlapArea(d.Nodes[i].Rect())
		}
	}
	return 4 * math.Sqrt(total) * math.Sqrt(rm.Area())
}

// hierDistance is the mean distance from m to its hierarchy siblings.
func hierDistance(d *netlist.Design, siblings []int, m int) float64 {
	if len(siblings) <= 1 {
		return 0
	}
	c := d.Nodes[m].Center()
	var total float64
	n := 0
	for _, s := range siblings {
		if s == m {
			continue
		}
		total += c.Manhattan(d.Nodes[s].Center())
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
