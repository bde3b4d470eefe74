package baseline

import (
	"context"
	"math"

	"macroplace/internal/geom"
	"macroplace/internal/gplace"
	"macroplace/internal/netlist"
	"macroplace/internal/rng"
)

// MaskPlaceConfig tunes the wiremask-driven baseline.
type MaskPlaceConfig struct {
	// Zeta is the candidate-grid resolution (default 16).
	Zeta int
	// Restarts is the number of randomised episodes; the best is kept
	// (default 8).
	Restarts int
	Seed     int64
	// Ctx, when non-nil, is polled between restarts: cancellation keeps
	// the best episode so far and still runs the common finishing pass.
	// At least one episode always completes.
	Ctx context.Context
	// Progress, when set, receives each new best full-netlist HPWL
	// across restarts (pre-finish values — anytime estimates).
	Progress func(bestHPWL float64)
}

func (c MaskPlaceConfig) normalize() MaskPlaceConfig {
	if c.Zeta <= 0 {
		c.Zeta = 16
	}
	if c.Restarts <= 0 {
		c.Restarts = 8
	}
	return c
}

// maskPlaceEpsilon is the per-step probability of picking among the
// top candidates at random instead of the single argmin, which is what
// makes restarts explore.
const maskPlaceEpsilon = 0.15

// MaskPlace is the MaskPlace-like baseline of Table III. The defining
// mechanism of [19] — the *wiremask*, an exact incremental-HPWL
// estimate for every candidate grid before each macro is placed — is
// reproduced exactly; the learned policy on top of it is replaced by
// restarted ε-greedy minimisation over the wiremask, which is the
// fixed point that policy converges to. Macros are placed one by one
// (no grouping), positions snap to the candidate grid, and the common
// finishing pass evaluates the result. It mutates d.
func MaskPlace(d *netlist.Design, cfg MaskPlaceConfig) Result {
	cfg = cfg.normalize()
	gplace.Place(d, gplace.Config{Mode: gplace.MoveAll, Iterations: 6})

	macros := macrosByAreaDesc(d)
	if len(macros) == 0 {
		return Finish(d)
	}
	nodeNets := d.NodeNets()
	r := rng.New(cfg.Seed).Split("maskplace")

	bestWL := math.Inf(1)
	var bestPos []geom.Point
	basePos := d.Positions()

	for restart := 0; restart < cfg.Restarts; restart++ {
		if restart > 0 && cancelled(cfg.Ctx) {
			break
		}
		d.SetPositions(basePos)
		runMaskPlaceEpisode(d, macros, nodeNets, cfg, r.Split("ep"))
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

// runMaskPlaceEpisode places every macro at its (ε-greedy) wiremask
// minimiser among non-overlapping candidates.
func runMaskPlaceEpisode(d *netlist.Design, macros []int, nodeNets [][]int, cfg MaskPlaceConfig, r *rng.RNG) {
	type cand struct {
		pos  geom.Point
		cost float64
	}
	var placedRects []geom.Rect
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if n.Kind == netlist.Macro && n.Fixed {
			placedRects = append(placedRects, n.Rect())
		}
	}

	for _, m := range macros {
		n := &d.Nodes[m]
		var cands []cand
		for _, c := range candidateGrid(d.Region, n.W, n.H, cfg.Zeta) {
			rect := geom.NewRect(c.X-n.W/2, c.Y-n.H/2, n.W, n.H)
			// Mask: candidate must not overlap already-placed macros.
			blocked := false
			for _, pr := range placedRects {
				if rect.Overlap(pr) {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			// Wiremask value: incremental HPWL of m's nets with m at
			// the candidate (other endpoints at current positions).
			n.SetCenter(c.X, c.Y)
			cands = append(cands, cand{pos: c, cost: macroNetHPWL(d, nodeNets, m)})
		}
		if len(cands) == 0 {
			// Everything overlaps; keep the analytical position and
			// let the legalization tail in Finish resolve it.
			placedRects = append(placedRects, n.Rect())
			continue
		}
		pick := 0
		for i := range cands {
			if cands[i].cost < cands[pick].cost {
				pick = i
			}
		}
		if r.Float64() < maskPlaceEpsilon && len(cands) > 1 {
			// Explore among the best few candidates.
			k := 4
			if k > len(cands) {
				k = len(cands)
			}
			// Partial selection of the k smallest costs.
			idx := make([]int, len(cands))
			for i := range idx {
				idx[i] = i
			}
			for i := 0; i < k; i++ {
				for j := i + 1; j < len(idx); j++ {
					if cands[idx[j]].cost < cands[idx[i]].cost {
						idx[i], idx[j] = idx[j], idx[i]
					}
				}
			}
			pick = idx[r.Intn(k)]
		}
		n.SetCenter(cands[pick].pos.X, cands[pick].pos.Y)
		placedRects = append(placedRects, n.Rect())
	}
}
