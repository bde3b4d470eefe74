// Package metrics computes placement-quality measures beyond raw
// HPWL: RUDY routing-demand estimation (the congestion proxy used by
// the routability-driven placers the paper cites, e.g. [7], [15],
// [23]) and a consolidated quality report that the CLI prints for
// every placed design.
package metrics

import (
	"fmt"
	"math"

	"macroplace/internal/geom"
	"macroplace/internal/legalize"
	"macroplace/internal/netlist"
)

// CongestionMap is a bin grid of estimated routing demand.
type CongestionMap struct {
	Bins   int
	Region geom.Rect
	// Demand[y*Bins+x] is the accumulated RUDY density of bin (x, y).
	Demand []float64
}

// RUDY computes the Rectangular Uniform wire DensitY estimate
// (Spindler & Johannes): every net spreads a wire volume of
// HPWL/(w·h) uniformly over its bounding box. Higher values flag
// likely routing congestion.
func RUDY(d *netlist.Design, bins int) *CongestionMap {
	return RUDYInto(nil, d, bins)
}

// RUDYInto is RUDY accumulating into a caller-owned CongestionMap, so
// repeated renders reuse one demand buffer instead of allocating bins²
// floats per call (viz pools its congestion overlays' maps). A nil cm
// (or one whose Demand cannot hold bins²) is (re)allocated; otherwise
// cm is reconfigured for this design and fully overwritten.
func RUDYInto(cm *CongestionMap, d *netlist.Design, bins int) *CongestionMap {
	if bins <= 0 {
		bins = 32
	}
	if cm == nil {
		cm = &CongestionMap{}
	}
	cm.Bins = bins
	cm.Region = d.Region
	if cap(cm.Demand) < bins*bins {
		cm.Demand = make([]float64, bins*bins)
	} else {
		cm.Demand = cm.Demand[:bins*bins]
		for i := range cm.Demand {
			cm.Demand[i] = 0
		}
	}
	bw := d.Region.W() / float64(bins)
	bh := d.Region.H() / float64(bins)
	if bw <= 0 || bh <= 0 {
		return cm
	}
	var box geom.BBox
	for ni := range d.Nets {
		box.Reset()
		net := &d.Nets[ni]
		for _, p := range net.Pins {
			pt := d.PinPos(p)
			box.Add(pt.X, pt.Y)
		}
		if box.Count() < 2 {
			continue
		}
		r := box.Rect()
		w, h := r.W(), r.H()
		if w < bw {
			w = bw
			r.Ux = r.Lx + w
		}
		if h < bh {
			h = bh
			r.Uy = r.Ly + h
		}
		density := net.EffWeight() * (w + h) / (w * h)
		x0 := clampI(int((r.Lx-d.Region.Lx)/bw), 0, bins-1)
		x1 := clampI(int(math.Ceil((r.Ux-d.Region.Lx)/bw))-1, 0, bins-1)
		y0 := clampI(int((r.Ly-d.Region.Ly)/bh), 0, bins-1)
		y1 := clampI(int(math.Ceil((r.Uy-d.Region.Ly)/bh))-1, 0, bins-1)
		for by := y0; by <= y1; by++ {
			bin := geom.NewRect(d.Region.Lx+float64(x0)*bw, d.Region.Ly+float64(by)*bh, bw, bh)
			for bx := x0; bx <= x1; bx++ {
				ov := r.OverlapArea(bin)
				if ov > 0 {
					cm.Demand[by*bins+bx] += density * ov / (bw * bh)
				}
				bin = bin.Translate(bw, 0)
			}
		}
	}
	return cm
}

// Max returns the peak bin demand.
func (cm *CongestionMap) Max() float64 {
	var m float64
	for _, v := range cm.Demand {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the average bin demand.
func (cm *CongestionMap) Mean() float64 {
	if len(cm.Demand) == 0 {
		return 0
	}
	var s float64
	for _, v := range cm.Demand {
		s += v
	}
	return s / float64(len(cm.Demand))
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

// Report is a consolidated quality snapshot of one placement.
type Report struct {
	HPWL           float64
	WeightedHPWL   float64
	MacroOverlap   float64
	PeakCongestion float64
	MeanCongestion float64
	// Outside counts movable nodes whose rectangle exceeds the region
	// by more than a ulp-scale tolerance.
	Outside int
}

// Measure computes a full quality report.
func Measure(d *netlist.Design) Report {
	rep := Report{
		HPWL:         d.HPWL(),
		WeightedHPWL: d.WeightedHPWL(),
		MacroOverlap: legalize.TotalMacroOverlap(d),
	}
	cm := RUDY(d, 32)
	rep.PeakCongestion = cm.Max()
	rep.MeanCongestion = cm.Mean()
	eps := 1e-9 * (d.Region.W() + d.Region.H())
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if !n.Movable() {
			continue
		}
		r := n.Rect()
		if r.Lx < d.Region.Lx-eps || r.Ly < d.Region.Ly-eps ||
			r.Ux > d.Region.Ux+eps || r.Uy > d.Region.Uy+eps {
			rep.Outside++
		}
	}
	return rep
}

// String implements fmt.Stringer.
func (r Report) String() string {
	return fmt.Sprintf("HPWL=%.4g wHPWL=%.4g overlap=%.4g peakCong=%.3g meanCong=%.3g outside=%d",
		r.HPWL, r.WeightedHPWL, r.MacroOverlap, r.PeakCongestion, r.MeanCongestion, r.Outside)
}
