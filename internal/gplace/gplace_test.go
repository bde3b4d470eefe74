package gplace

import (
	"math"
	"reflect"
	"testing"

	"macroplace/internal/gen"
	"macroplace/internal/geom"
	"macroplace/internal/netlist"
)

// dumbbell builds one movable cell between two fixed pads; quadratic
// placement must pull it to their midpoint.
func dumbbell() *netlist.Design {
	d := &netlist.Design{Name: "dumbbell", Region: geom.NewRect(0, 0, 100, 100)}
	l := d.AddNode(netlist.Node{Name: "l", Kind: netlist.Pad, Fixed: true, W: 0, H: 0, X: 10, Y: 50})
	r := d.AddNode(netlist.Node{Name: "r", Kind: netlist.Pad, Fixed: true, W: 0, H: 0, X: 90, Y: 10})
	c := d.AddNode(netlist.Node{Name: "c", Kind: netlist.Cell, W: 2, H: 2, X: 3, Y: 3})
	d.AddNet(netlist.Net{Name: "a", Pins: []netlist.Pin{{Node: l}, {Node: c}}})
	d.AddNet(netlist.Net{Name: "b", Pins: []netlist.Pin{{Node: c}, {Node: r}}})
	return d
}

func TestQuadraticPullsBetweenPads(t *testing.T) {
	d := dumbbell()
	New(d, Config{Mode: MoveCells}).PlaceQuadraticOnly()
	c := d.Nodes[2].Center()
	// Pads are points at (10,50) and (90,10). Any position inside
	// their bounding box minimises the summed 2-pin HPWL (80 + 40),
	// so assert membership plus the optimal wirelength.
	if c.X < 10 || c.X > 90 || c.Y < 10 || c.Y > 50 {
		t.Errorf("center %v outside the pads' box", c)
	}
	if got := d.HPWL(); math.Abs(got-120) > 1e-6 {
		t.Errorf("HPWL = %v, want optimal 120", got)
	}
}

func TestPlaceReducesHPWL(t *testing.T) {
	d := gen.Generate(gen.Spec{Name: "g", MovableMacros: 5, Pads: 12, Cells: 300, Nets: 450, Seed: 5})
	before := d.HPWL()
	res := Place(d, Config{Mode: MoveAll, Iterations: 6})
	if res.HPWL >= before {
		t.Errorf("HPWL %v did not improve on random %v", res.HPWL, before)
	}
	// Improvement should be substantial, not marginal.
	if res.HPWL > 0.8*before {
		t.Errorf("HPWL %v improved < 20%% over random %v", res.HPWL, before)
	}
}

func TestMoveCellsKeepsMacrosAndPads(t *testing.T) {
	d := gen.Generate(gen.Spec{Name: "g", MovableMacros: 4, Pads: 8, Cells: 100, Nets: 150, Seed: 6})
	var macroPos, padPos []geom.Point
	for i := range d.Nodes {
		switch d.Nodes[i].Kind {
		case netlist.Macro:
			macroPos = append(macroPos, geom.Point{X: d.Nodes[i].X, Y: d.Nodes[i].Y})
		case netlist.Pad:
			padPos = append(padPos, geom.Point{X: d.Nodes[i].X, Y: d.Nodes[i].Y})
		}
	}
	Place(d, Config{Mode: MoveCells, Iterations: 4})
	mi, pi := 0, 0
	for i := range d.Nodes {
		switch d.Nodes[i].Kind {
		case netlist.Macro:
			if d.Nodes[i].X != macroPos[mi].X || d.Nodes[i].Y != macroPos[mi].Y {
				t.Fatalf("macro %s moved in MoveCells mode", d.Nodes[i].Name)
			}
			mi++
		case netlist.Pad:
			if d.Nodes[i].X != padPos[pi].X || d.Nodes[i].Y != padPos[pi].Y {
				t.Fatalf("pad %s moved", d.Nodes[i].Name)
			}
			pi++
		}
	}
}

func TestMoveAllKeepsFixedMacros(t *testing.T) {
	d := gen.Generate(gen.Spec{Name: "g", MovableMacros: 3, PreplacedMacros: 3, Cells: 80, Nets: 100, Seed: 7})
	var fixedPos []geom.Point
	for i := range d.Nodes {
		if d.Nodes[i].Kind == netlist.Macro && d.Nodes[i].Fixed {
			fixedPos = append(fixedPos, geom.Point{X: d.Nodes[i].X, Y: d.Nodes[i].Y})
		}
	}
	Place(d, Config{Mode: MoveAll, Iterations: 4})
	fi := 0
	for i := range d.Nodes {
		if d.Nodes[i].Kind == netlist.Macro && d.Nodes[i].Fixed {
			if d.Nodes[i].X != fixedPos[fi].X || d.Nodes[i].Y != fixedPos[fi].Y {
				t.Fatalf("fixed macro %s moved", d.Nodes[i].Name)
			}
			fi++
		}
	}
}

func TestPlacedNodesInsideRegion(t *testing.T) {
	d := gen.Generate(gen.Spec{Name: "g", MovableMacros: 6, Cells: 200, Nets: 300, Seed: 8})
	Place(d, Config{Mode: MoveAll, Iterations: 6})
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if !n.Movable() {
			continue
		}
		if !d.Region.ContainsRect(n.Rect()) {
			t.Errorf("node %s escaped the region: %v", n.Name, n.Rect())
		}
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *netlist.Design {
		return gen.Generate(gen.Spec{Name: "g", MovableMacros: 4, Cells: 150, Nets: 200, Seed: 9})
	}
	a, b := mk(), mk()
	Place(a, Config{Mode: MoveAll, Iterations: 5})
	Place(b, Config{Mode: MoveAll, Iterations: 5})
	if !reflect.DeepEqual(a.Positions(), b.Positions()) {
		t.Error("global placement must be deterministic")
	}
}

func TestSpreadingReducesOverflow(t *testing.T) {
	// Cells start stacked in one corner; spreading must reduce the
	// bin overflow dramatically.
	d := &netlist.Design{Name: "stack", Region: geom.NewRect(0, 0, 100, 100)}
	anchor := d.AddNode(netlist.Node{Name: "p", Kind: netlist.Pad, Fixed: true, X: 50, Y: 50})
	for i := 0; i < 200; i++ {
		c := d.AddNode(netlist.Node{Name: "c" + string(rune('a'+i%26)) + string(rune('0'+i/26)), Kind: netlist.Cell, W: 4, H: 4, X: 1, Y: 1})
		d.AddNet(netlist.Net{Name: "n", Pins: []netlist.Pin{{Node: anchor}, {Node: c}}})
	}
	p := New(d, Config{Mode: MoveCells, Iterations: 10})
	res := p.Place()
	// 200 cells × 16 area = 3200 over 10000 area: fits at ~0.32
	// density, so overflow after spreading should be small.
	if res.Overflow > 0.35 {
		t.Errorf("overflow = %v, want < 0.35 after spreading", res.Overflow)
	}
	// And the cells must no longer all sit in the starting corner.
	spreadOut := 0
	for i := range d.Nodes {
		if d.Nodes[i].Kind == netlist.Cell && d.Nodes[i].X > 25 {
			spreadOut++
		}
	}
	if spreadOut < 20 {
		t.Errorf("only %d/200 cells left the corner quadrant", spreadOut)
	}
}

func TestNoFixedPinsDoesNotCollapse(t *testing.T) {
	// ICCAD04-like designs have no pads; the regularizer must keep
	// the placement from collapsing to a single point.
	d := gen.Generate(gen.Spec{Name: "nopads", MovableMacros: 4, Cells: 100, Nets: 150, Seed: 10})
	Place(d, Config{Mode: MoveAll, Iterations: 6})
	var minX, maxX = math.Inf(1), math.Inf(-1)
	for i := range d.Nodes {
		c := d.Nodes[i].Center()
		minX = math.Min(minX, c.X)
		maxX = math.Max(maxX, c.X)
	}
	if maxX-minX < d.Region.W()*0.05 {
		t.Errorf("placement collapsed: x-spread %v of region %v", maxX-minX, d.Region.W())
	}
}

func TestEmptyMovableSet(t *testing.T) {
	d := &netlist.Design{Name: "fixedonly", Region: geom.NewRect(0, 0, 10, 10)}
	a := d.AddNode(netlist.Node{Name: "p1", Kind: netlist.Pad, Fixed: true, X: 0, Y: 0})
	b := d.AddNode(netlist.Node{Name: "p2", Kind: netlist.Pad, Fixed: true, X: 9, Y: 9})
	d.AddNet(netlist.Net{Name: "n", Pins: []netlist.Pin{{Node: a}, {Node: b}}})
	res := Place(d, Config{Mode: MoveCells})
	if res.HPWL != d.HPWL() {
		t.Error("no-op placement should report current HPWL")
	}
}

func TestInitialPlacement(t *testing.T) {
	d := gen.Generate(gen.Spec{Name: "ip", MovableMacros: 5, Cells: 120, Nets: 180, Seed: 12})
	before := d.HPWL()
	res := InitialPlacement(d)
	if res.HPWL >= before {
		t.Errorf("initial placement HPWL %v ≥ random %v", res.HPWL, before)
	}
}

func TestConfigNormalize(t *testing.T) {
	d := gen.Generate(gen.Spec{Name: "cfg", MovableMacros: 2, Cells: 20, Nets: 30, Seed: 1})
	if got := New(d, Config{}).cfg.Iterations; got != 8 {
		t.Errorf("default Iterations = %d, want 8", got)
	}
	// An explicit value survives.
	if got := New(d, Config{Iterations: 3}).cfg.Iterations; got != 3 {
		t.Errorf("Iterations = %d, want the explicit 3", got)
	}
}

// TestWarmQuadraticSolveDoesNotAllocate: once a placer's matrices,
// right-hand sides, CG scratch and pin scratch are sized, a one-
// goroutine PlaceQuadraticOnly (the reward oracle's call) allocates
// nothing.
func TestWarmQuadraticSolveDoesNotAllocate(t *testing.T) {
	d := gen.Generate(gen.Spec{Name: "g", MovableMacros: 4, Pads: 8, Cells: 120, Nets: 180, Seed: 3})
	p := New(d, Config{Mode: MoveCells})
	if p.split {
		t.Fatal("a 120-cell design is above splitPins")
	}
	home := d.Positions()
	p.PlaceQuadraticOnly()
	allocs := testing.AllocsPerRun(5, func() {
		d.SetPositions(home)
		p.PlaceQuadraticOnly()
	})
	if allocs != 0 {
		t.Errorf("warm PlaceQuadraticOnly allocated %v times per call, want 0", allocs)
	}
}
