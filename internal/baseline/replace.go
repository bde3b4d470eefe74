package baseline

import (
	"context"
	"math"

	"macroplace/internal/geom"
	"macroplace/internal/gplace"
	"macroplace/internal/netlist"
)

// RePlAceConfig tunes the density-driven analytical baseline.
type RePlAceConfig struct {
	// Rounds is the number of force-refinement rounds after global
	// placement (default 30).
	Rounds int
	// Bins is the density-grid resolution per axis (default 16).
	Bins int
	// Ctx, when non-nil, is polled between refinement rounds:
	// cancellation keeps the rounds finished so far and still runs the
	// common finishing pass.
	Ctx context.Context
}

func (c RePlAceConfig) normalize() RePlAceConfig {
	if c.Rounds <= 0 {
		c.Rounds = 30
	}
	if c.Bins <= 0 {
		c.Bins = 16
	}
	return c
}

const (
	// rePlAceLambda0 is the initial density-force weight relative to
	// the wirelength force; it grows geometrically per round by
	// rePlAceLambdaGrowth, mirroring ePlace/RePlAce's penalty
	// scheduling.
	rePlAceLambda0      = 0.1
	rePlAceLambdaGrowth = 1.1
)

// RePlAceLike is the analytical density-driven baseline of Table III:
// mixed-size global placement followed by rounds of combined
// wirelength-pull and density-push forces on the macros with a growing
// density penalty — a CPU-sized stand-in for RePlAce's
// electrostatics-based formulation [10]. It mutates d.
func RePlAceLike(d *netlist.Design, cfg RePlAceConfig) Result {
	cfg = cfg.normalize()
	gplace.Place(d, gplace.Config{Mode: gplace.MoveAll, Iterations: 10})

	nodeNets := d.NodeNets()
	macros := macrosByAreaDesc(d)
	if len(macros) == 0 {
		return Finish(d)
	}

	nb := cfg.Bins
	bw := d.Region.W() / float64(nb)
	bh := d.Region.H() / float64(nb)
	lambda := rePlAceLambda0
	step := math.Min(bw, bh) // max move per round

	for round := 0; round < cfg.Rounds; round++ {
		if cancelled(cfg.Ctx) {
			break
		}
		density := rasterDensity(d, nb, bw, bh)
		for _, m := range macros {
			n := &d.Nodes[m]
			// Wirelength force: toward the mean of incident nets'
			// other-pin centroids.
			var wx, wy, ww float64
			for _, ni := range nodeNets[m] {
				net := &d.Nets[ni]
				var cx, cy float64
				cnt := 0
				for _, p := range net.Pins {
					if p.Node == m {
						continue
					}
					c := d.Nodes[p.Node].Center()
					cx += c.X
					cy += c.Y
					cnt++
				}
				if cnt == 0 {
					continue
				}
				w := net.EffWeight()
				wx += w * cx / float64(cnt)
				wy += w * cy / float64(cnt)
				ww += w
			}
			c := n.Center()
			var fx, fy float64
			if ww > 0 {
				fx = wx/ww - c.X
				fy = wy/ww - c.Y
			}
			// Density force: negative gradient of the bin density
			// under the macro footprint.
			dfx, dfy := densityGradient(density, d.Region, nb, bw, bh, n.Rect())
			fx -= lambda * dfx * bw
			fy -= lambda * dfy * bh

			// Bounded step.
			l := math.Hypot(fx, fy)
			if l > step {
				fx, fy = fx/l*step, fy/l*step
			}
			r := n.Rect().Translate(fx, fy).ClampInto(d.Region)
			n.X, n.Y = r.Lx, r.Ly
		}
		lambda *= rePlAceLambdaGrowth
	}
	return Finish(d)
}

// rasterDensity bins the area of every node (plus fixed blockages)
// normalised by bin area.
func rasterDensity(d *netlist.Design, nb int, bw, bh float64) [][]float64 {
	den := make([][]float64, nb)
	for i := range den {
		den[i] = make([]float64, nb)
	}
	binArea := bw * bh
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if n.Kind == netlist.Pad {
			continue
		}
		r := n.Rect()
		x0 := int(math.Floor((r.Lx - d.Region.Lx) / bw))
		x1 := int(math.Ceil((r.Ux - d.Region.Lx) / bw))
		y0 := int(math.Floor((r.Ly - d.Region.Ly) / bh))
		y1 := int(math.Ceil((r.Uy - d.Region.Ly) / bh))
		for by := clampI(y0, 0, nb-1); by <= clampI(y1-1, 0, nb-1); by++ {
			for bx := clampI(x0, 0, nb-1); bx <= clampI(x1-1, 0, nb-1); bx++ {
				bin := geom.NewRect(d.Region.Lx+float64(bx)*bw, d.Region.Ly+float64(by)*bh, bw, bh)
				den[by][bx] += r.OverlapArea(bin) / binArea
			}
		}
	}
	return den
}

// densityGradient approximates ∂density/∂x and ∂density/∂y averaged
// over the bins the rectangle covers (central differences).
func densityGradient(den [][]float64, region geom.Rect, nb int, bw, bh float64, r geom.Rect) (gx, gy float64) {
	c := r.Center()
	bx := clampI(int((c.X-region.Lx)/bw), 0, nb-1)
	by := clampI(int((c.Y-region.Ly)/bh), 0, nb-1)
	at := func(x, y int) float64 {
		return den[clampI(y, 0, nb-1)][clampI(x, 0, nb-1)]
	}
	gx = (at(bx+1, by) - at(bx-1, by)) / 2
	gy = (at(bx, by+1) - at(bx, by-1)) / 2
	return gx, gy
}

func clampI(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
