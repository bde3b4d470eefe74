package main

import (
	"math"
	"strings"
	"testing"

	"macroplace/internal/geom"
	"macroplace/internal/netlist"
	"macroplace/internal/portfolio"
)

// twoMacros is a legal placement: two 10×10 macros side by side, one
// net between them.
func twoMacros() *netlist.Design {
	d := &netlist.Design{Name: "two", Region: geom.Rect{Lx: 0, Ly: 0, Ux: 100, Uy: 100}}
	d.AddNode(netlist.Node{Name: "m0", Kind: netlist.Macro, W: 10, H: 10, X: 10, Y: 10})
	d.AddNode(netlist.Node{Name: "m1", Kind: netlist.Macro, W: 10, H: 10, X: 40, Y: 10})
	d.AddNet(netlist.Net{Name: "n0", Pins: []netlist.Pin{{Node: 0}, {Node: 1}}})
	return d
}

func TestCheckPlacementAcceptsLegal(t *testing.T) {
	d := twoMacros()
	if err := checkPlacement(d, d.HPWL(), portfolio.RecomputeOverlap(d)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckPlacementFlagsDoctoredResults(t *testing.T) {
	for _, tc := range []struct {
		name   string
		doctor func(d *netlist.Design)
		want   string
	}{
		{"NaN coordinate", func(d *netlist.Design) { d.Nodes[1].X = math.NaN() }, "non-finite"},
		{"macro outside the region", func(d *netlist.Design) { d.Nodes[1].X = 95 }, "outside region"},
	} {
		d := twoMacros()
		tc.doctor(d)
		// Report truthfully what the doctored design measures, so only
		// the legality rules can catch it.
		err := checkPlacement(d, d.HPWL(), portfolio.RecomputeOverlap(d))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

func TestOverlapTolerance(t *testing.T) {
	d := twoMacros()
	if overlapExceeds(d, portfolio.RecomputeOverlap(d)) {
		t.Error("legal placement flagged")
	}
	d.Nodes[1].X = 12 // 8×10 of the 2×100 macro area overlaps: 40%
	if !overlapExceeds(d, portfolio.RecomputeOverlap(d)) {
		t.Error("overlapping placement passed")
	}
	d.Nodes[1].X = 19.5 // 0.5×10 overlaps: 2.5%, within tolerance
	if overlapExceeds(d, portfolio.RecomputeOverlap(d)) {
		t.Error("overlap within the tolerance flagged")
	}
}

func TestCheckPlacementFlagsMisreportedMetrics(t *testing.T) {
	d := twoMacros()
	if err := checkPlacement(d, d.HPWL()+1e-9, 0); err == nil {
		t.Error("HPWL off by 1e-9 passed")
	}
	if err := checkPlacement(d, d.HPWL(), 1); err == nil {
		t.Error("misreported overlap passed")
	}
}

func TestSameBits(t *testing.T) {
	if err := sameBits("x", 1.5, 1.5); err != nil {
		t.Error(err)
	}
	if err := sameBits("x", 1.5, math.Nextafter(1.5, 2)); err == nil {
		t.Error("values one ulp apart passed")
	}
}
