package rowlegal

import (
	"math"
	"testing"

	"macroplace/internal/gen"
	"macroplace/internal/geom"
	"macroplace/internal/gplace"
	"macroplace/internal/netlist"
)

func TestLegalizeSimpleRow(t *testing.T) {
	d := &netlist.Design{Region: geom.NewRect(0, 0, 40, 24)}
	// Three cells piled at the same spot, row height 12.
	for i := 0; i < 3; i++ {
		d.AddNode(netlist.Node{
			Name: string(rune('a' + i)), Kind: netlist.Cell,
			W: 6, H: 12, X: 10, Y: 3,
		})
	}
	res, err := Legalize(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Legalized != 3 || res.Failed != 0 {
		t.Fatalf("result = %+v", res)
	}
	if ov := CellOverlap(d); ov > 1e-9 {
		t.Errorf("overlap after legalization = %v", ov)
	}
	for i := range d.Nodes {
		n := &d.Nodes[i]
		// Cells must sit on a row boundary.
		if math.Mod(n.Y, 12) != 0 {
			t.Errorf("cell %s not row-aligned: y=%v", n.Name, n.Y)
		}
		if !d.Region.ContainsRect(n.Rect()) {
			t.Errorf("cell %s outside region", n.Name)
		}
	}
}

func TestLegalizeAvoidsMacros(t *testing.T) {
	d := &netlist.Design{Region: geom.NewRect(0, 0, 40, 36)}
	d.AddNode(netlist.Node{Name: "M", Kind: netlist.Macro, W: 20, H: 24, X: 10, Y: 0})
	for i := 0; i < 6; i++ {
		d.AddNode(netlist.Node{
			Name: "c" + string(rune('0'+i)), Kind: netlist.Cell,
			W: 5, H: 12, X: 15, Y: 6,
		})
	}
	res, err := Legalize(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed cells: %+v", res)
	}
	if ov := CellOverlap(d); ov > 1e-9 {
		t.Errorf("overlap (incl. macro) = %v", ov)
	}
}

func TestLegalizeGeneratedDesign(t *testing.T) {
	d, err := gen.IBM("ibm01", 0.03, 5)
	if err != nil {
		t.Fatal(err)
	}
	gplace.Place(d, gplace.Config{Mode: gplace.MoveAll, Iterations: 6})
	before := d.HPWL()
	res, err := Legalize(d)
	if err != nil {
		t.Fatal(err)
	}
	nCells := len(d.CellIndices())
	if res.Legalized < nCells*95/100 {
		t.Errorf("legalized %d of %d cells", res.Legalized, nCells)
	}
	// Cell-cell overlap must be eliminated for legalized cells; allow
	// a tiny residue from the failed ones.
	var cellArea float64
	for _, ci := range d.CellIndices() {
		cellArea += d.Nodes[ci].Area()
	}
	if ov := CellOverlap(d); ov > 0.01*cellArea {
		t.Errorf("overlap %v (%.2f%% of cell area)", ov, ov/cellArea*100)
	}
	// Wirelength should not explode (legalization is a local motion).
	if res.HPWL > 1.6*before {
		t.Errorf("legalization blew up HPWL: %v -> %v", before, res.HPWL)
	}
	t.Logf("legalized %d/%d, failed %d, meanDisp=%.2f, HPWL %v -> %v",
		res.Legalized, nCells, res.Failed, res.TotalDisplacement/float64(nCells), before, res.HPWL)
}

func TestLegalizeErrorsWithoutCells(t *testing.T) {
	d := &netlist.Design{Region: geom.NewRect(0, 0, 10, 10)}
	d.AddNode(netlist.Node{Name: "m", Kind: netlist.Macro, W: 2, H: 2})
	if _, err := Legalize(d); err == nil {
		t.Error("design without cells should error (no row height)")
	}
}

func TestLegalizeRegionTooSmall(t *testing.T) {
	d := &netlist.Design{Region: geom.NewRect(0, 0, 10, 5)}
	d.AddNode(netlist.Node{Name: "c", Kind: netlist.Cell, W: 2, H: 12})
	if _, err := Legalize(d); err == nil {
		t.Error("region shorter than one row should error")
	}
}

func TestDominantCellHeight(t *testing.T) {
	d := &netlist.Design{Region: geom.NewRect(0, 0, 100, 100)}
	for i := 0; i < 5; i++ {
		d.AddNode(netlist.Node{Name: "a" + string(rune('0'+i)), Kind: netlist.Cell, W: 2, H: 12})
	}
	d.AddNode(netlist.Node{Name: "tall", Kind: netlist.Cell, W: 2, H: 24})
	if got := dominantCellHeight(d); got != 12 {
		t.Errorf("dominant height = %v, want 12", got)
	}
}

func TestOptimizeDetailedImprovesHPWL(t *testing.T) {
	d, err := gen.IBM("ibm01", 0.03, 7)
	if err != nil {
		t.Fatal(err)
	}
	gplace.Place(d, gplace.Config{Mode: gplace.MoveAll, Iterations: 6})
	if _, err := Legalize(d); err != nil {
		t.Fatal(err)
	}
	before := d.HPWL()
	ovBefore := CellOverlap(d)
	res := OptimizeDetailed(d)
	if res.HPWLAfter > res.HPWLBefore {
		t.Errorf("detailed placement worsened HPWL: %v -> %v", res.HPWLBefore, res.HPWLAfter)
	}
	if math.Abs(res.HPWLBefore-before) > 1e-6*before {
		t.Errorf("evaluator disagreed with design HPWL: %v vs %v", res.HPWLBefore, before)
	}
	if math.Abs(d.HPWL()-res.HPWLAfter) > 1e-6*res.HPWLAfter {
		t.Errorf("design HPWL %v != reported %v", d.HPWL(), res.HPWLAfter)
	}
	// Legality preserved (no new overlap beyond float noise).
	if ov := CellOverlap(d); ov > ovBefore+1e-6 {
		t.Errorf("detailed placement created overlap: %v -> %v", ovBefore, ov)
	}
	t.Logf("swaps=%d HPWL %v -> %v (%.2f%%)", res.SwapsApplied,
		res.HPWLBefore, res.HPWLAfter, (res.HPWLBefore-res.HPWLAfter)/res.HPWLBefore*100)
}

func TestTrySwapUnequalWidths(t *testing.T) {
	d := &netlist.Design{Region: geom.NewRect(0, 0, 100, 12)}
	// Wide cell left, narrow right, both pulled toward opposite pads.
	padL := d.AddNode(netlist.Node{Name: "pl", Kind: netlist.Pad, Fixed: true, X: 0, Y: 6})
	padR := d.AddNode(netlist.Node{Name: "pr", Kind: netlist.Pad, Fixed: true, X: 99, Y: 6})
	wide := d.AddNode(netlist.Node{Name: "w", Kind: netlist.Cell, W: 10, H: 12, X: 20, Y: 0})
	narrow := d.AddNode(netlist.Node{Name: "n", Kind: netlist.Cell, W: 4, H: 12, X: 30, Y: 0})
	// wide wants to be right, narrow wants left.
	d.AddNet(netlist.Net{Name: "a", Pins: []netlist.Pin{{Node: wide}, {Node: padR}}})
	d.AddNet(netlist.Net{Name: "b", Pins: []netlist.Pin{{Node: narrow}, {Node: padL}}})
	res := OptimizeDetailed(d)
	if res.SwapsApplied != 1 {
		t.Fatalf("swaps = %d, want 1", res.SwapsApplied)
	}
	if CellOverlap(d) > 1e-9 {
		t.Error("swap created overlap")
	}
	if d.Nodes[wide].X <= d.Nodes[narrow].X {
		t.Error("cells did not exchange order")
	}
}
