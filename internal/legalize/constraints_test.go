package legalize

import (
	"testing"

	"macroplace/internal/geom"
	"macroplace/internal/netlist"
)

func constrainedDesign() *netlist.Design {
	d := &netlist.Design{Name: "ct", Region: geom.NewRect(0, 0, 200, 200)}
	// Three movable macros stacked on one spot, one fixed macro.
	for i, name := range []string{"ma", "mb", "mc"} {
		d.AddNode(netlist.Node{Name: name, Kind: netlist.Macro, W: 20, H: 20, X: 50 + float64(i), Y: 50})
	}
	d.AddNode(netlist.Node{Name: "mf", Kind: netlist.Macro, Fixed: true, W: 20, H: 20, X: 120, Y: 120})
	d.AddNet(netlist.Net{Name: "n", Pins: []netlist.Pin{{Node: 0}, {Node: 1}, {Node: 2}}})
	return d
}

func TestSeparateNilPhysSeparates(t *testing.T) {
	d := constrainedDesign()
	fx, fy := d.Nodes[3].X, d.Nodes[3].Y
	if !Separate(d) {
		t.Fatalf("nil Phys not separated: movable overlap %v", MovableOverlap(d))
	}
	if d.Phys != nil {
		t.Fatal("Separate must not install constraints")
	}
	if d.Nodes[3].X != fx || d.Nodes[3].Y != fy {
		t.Fatal("fixed macro moved")
	}
	if ov := MaxMacroOverflow(d); ov > 0 {
		t.Fatalf("macro overflow outside region = %v", ov)
	}
}

func TestSeparateSeparatesAndSnaps(t *testing.T) {
	d := constrainedDesign()
	fence := geom.NewRect(10, 10, 180, 180)
	d.Phys = &netlist.Constraints{
		HaloX: 3, HaloY: 3, ChannelX: 4, ChannelY: 8,
		Fence: &fence,
		SnapX: 2, SnapY: 5,
	}
	if !Separate(d) {
		t.Fatalf("enforcement failed: %v", d.ConstraintViolations())
	}
	if rep := d.ConstraintViolations(); !rep.Clean() {
		t.Fatalf("violations remain: %v", rep)
	}
	// Effective spacing: x >= max(3+3, 4) = 6, y >= max(3+3, 8) = 8.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			a, b := d.Nodes[i].Rect(), d.Nodes[j].Rect()
			gapX := maxf(a.Lx-b.Ux, b.Lx-a.Ux)
			gapY := maxf(a.Ly-b.Uy, b.Ly-a.Uy)
			if gapX < 6-1e-6 && gapY < 8-1e-6 {
				t.Errorf("macros %d/%d spacing (%g, %g) below channel/halo", i, j, gapX, gapY)
			}
		}
	}
}

func TestSeparatePerMacroHalo(t *testing.T) {
	d := constrainedDesign()
	d.Phys = &netlist.Constraints{
		HaloX: 1, HaloY: 1,
		Halos: map[string]netlist.Halo{"mb": {X: 10, Y: 10}},
	}
	if !Separate(d) {
		t.Fatalf("enforcement failed: %v", d.ConstraintViolations())
	}
	a, b := d.Nodes[0].Rect(), d.Nodes[1].Rect() // ma (halo 1) vs mb (halo 10)
	gapX := maxf(a.Lx-b.Ux, b.Lx-a.Ux)
	gapY := maxf(a.Ly-b.Uy, b.Ly-a.Uy)
	if gapX < 11-1e-6 && gapY < 11-1e-6 {
		t.Errorf("per-macro halo ignored: gaps (%g, %g), want >= 11 on one axis", gapX, gapY)
	}
}

func TestSeparateRespectsFixedMacros(t *testing.T) {
	d := constrainedDesign()
	// Drop a movable macro right on top of the fixed one.
	d.Nodes[0].X, d.Nodes[0].Y = 121, 121
	d.Phys = &netlist.Constraints{HaloX: 2, HaloY: 2}
	fx, fy := d.Nodes[3].X, d.Nodes[3].Y
	if !Separate(d) {
		t.Fatalf("enforcement failed: %v", d.ConstraintViolations())
	}
	if d.Nodes[3].X != fx || d.Nodes[3].Y != fy {
		t.Fatal("fixed macro moved")
	}
	if rep := d.ConstraintViolations(); rep.HaloOverlaps != 0 {
		t.Fatalf("movable still violates fixed macro halo: %v", rep)
	}
}

func TestSnapInto(t *testing.T) {
	if v, ok := snapInto(10.9, 0, 100, 4, 0); !ok || v != 12 {
		t.Fatalf("snapInto = (%v, %v), want (12, true)", v, ok)
	}
	if v, ok := snapInto(1, 6, 100, 4, 0); !ok || v != 8 {
		t.Fatalf("snapInto below lo = (%v, %v), want (8, true)", v, ok)
	}
	if v, ok := snapInto(99, 0, 7, 4, 0); !ok || v != 4 {
		t.Fatalf("snapInto above hi = (%v, %v), want (4, true)", v, ok)
	}
	if _, ok := snapInto(5, 5, 6, 4, 0); ok {
		t.Fatal("interval without lattice point must fail")
	}
	if _, ok := snapInto(5, 10, 4, 0, 0); ok {
		t.Fatal("inverted interval must fail")
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
