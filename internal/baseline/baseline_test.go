package baseline

import (
	"math"
	"testing"

	"macroplace/internal/gen"
	"macroplace/internal/geom"
	"macroplace/internal/netlist"
)

func benchDesign(t *testing.T, seed int64) *netlist.Design {
	t.Helper()
	d, err := gen.IBM("ibm01", 0.02, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func cirDesign(t *testing.T, seed int64) *netlist.Design {
	t.Helper()
	d, err := gen.Cir("cir1", 0.003, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkResult verifies the baseline contract: positive HPWL, no
// residual macro overlap worth mentioning, macros inside the region.
func checkResult(t *testing.T, name string, d *netlist.Design, res Result) {
	t.Helper()
	if res.HPWL <= 0 {
		t.Fatalf("%s: HPWL = %v", name, res.HPWL)
	}
	var macroArea float64
	for _, m := range d.MacroIndices() {
		macroArea += d.Nodes[m].Area()
	}
	if macroArea > 0 && res.MacroOverlap > 0.05*macroArea {
		t.Errorf("%s: overlap %v is %.1f%% of macro area", name, res.MacroOverlap, res.MacroOverlap/macroArea*100)
	}
	// Tolerance: SetCenter/ClampInto round-trips can leave a boundary
	// coordinate off by ~1 ulp.
	eps := 1e-6 * (d.Region.W() + d.Region.H())
	for _, m := range d.MovableMacroIndices() {
		r := d.Nodes[m].Rect()
		if r.Lx < d.Region.Lx-eps || r.Ly < d.Region.Ly-eps ||
			r.Ux > d.Region.Ux+eps || r.Uy > d.Region.Uy+eps {
			t.Errorf("%s: macro %s outside region: %v", name, d.Nodes[m].Name, r)
		}
	}
}

func TestDreamPlaceLike(t *testing.T) {
	d := benchDesign(t, 1)
	random := d.HPWL()
	res := DreamPlaceLike(d)
	checkResult(t, "dreamplace", d, res)
	if res.HPWL >= random {
		t.Errorf("HPWL %v did not improve over random %v", res.HPWL, random)
	}
}

func TestSE(t *testing.T) {
	d := cirDesign(t, 2)
	random := d.HPWL()
	res := SE(d, SEConfig{Generations: 10, Candidates: 8, Seed: 3})
	checkResult(t, "se", d, res)
	if res.HPWL >= random {
		t.Errorf("HPWL %v did not improve over random %v", res.HPWL, random)
	}
}

func TestSEDeterministic(t *testing.T) {
	r1 := SE(cirDesign(t, 4), SEConfig{Generations: 6, Candidates: 8, Seed: 5})
	r2 := SE(cirDesign(t, 4), SEConfig{Generations: 6, Candidates: 8, Seed: 5})
	if r1.HPWL != r2.HPWL {
		t.Errorf("SE not deterministic: %v vs %v", r1.HPWL, r2.HPWL)
	}
}

func TestRePlAceLike(t *testing.T) {
	d := benchDesign(t, 6)
	random := d.HPWL()
	res := RePlAceLike(d, RePlAceConfig{Rounds: 10})
	checkResult(t, "replace", d, res)
	if res.HPWL >= random {
		t.Errorf("HPWL %v did not improve over random %v", res.HPWL, random)
	}
}

func TestCT(t *testing.T) {
	d := benchDesign(t, 7)
	random := d.HPWL()
	res := CT(d, CTConfig{Zeta: 8, Episodes: 15, Seed: 8})
	checkResult(t, "ct", d, res)
	if res.HPWL >= random {
		t.Errorf("HPWL %v did not improve over random %v", res.HPWL, random)
	}
}

func TestMaskPlace(t *testing.T) {
	d := benchDesign(t, 9)
	random := d.HPWL()
	res := MaskPlace(d, MaskPlaceConfig{Zeta: 8, Restarts: 4, Seed: 10})
	checkResult(t, "maskplace", d, res)
	if res.HPWL >= random {
		t.Errorf("HPWL %v did not improve over random %v", res.HPWL, random)
	}
}

func TestMaskPlaceDeterministic(t *testing.T) {
	r1 := MaskPlace(benchDesign(t, 11), MaskPlaceConfig{Zeta: 8, Restarts: 3, Seed: 12})
	r2 := MaskPlace(benchDesign(t, 11), MaskPlaceConfig{Zeta: 8, Restarts: 3, Seed: 12})
	if r1.HPWL != r2.HPWL {
		t.Errorf("MaskPlace not deterministic: %v vs %v", r1.HPWL, r2.HPWL)
	}
}

func TestFinishSeparatesOverlappingMacros(t *testing.T) {
	d := &netlist.Design{Name: "ov", Region: geom.NewRect(0, 0, 40, 40)}
	d.AddNode(netlist.Node{Name: "a", Kind: netlist.Macro, W: 6, H: 6, X: 10, Y: 10})
	d.AddNode(netlist.Node{Name: "b", Kind: netlist.Macro, W: 6, H: 6, X: 12, Y: 12})
	d.AddNode(netlist.Node{Name: "f", Kind: netlist.Macro, Fixed: true, W: 6, H: 6, X: 14, Y: 8})
	d.AddNode(netlist.Node{Name: "c", Kind: netlist.Cell, W: 1, H: 1, X: 0, Y: 0})
	d.AddNet(netlist.Net{Name: "n", Pins: []netlist.Pin{{Node: 0}, {Node: 3}}})
	res := Finish(d)
	if res.MacroOverlap > 1e-9 {
		t.Errorf("Finish left overlap %v", res.MacroOverlap)
	}
	// Fixed macro must not move.
	if d.Nodes[2].X != 14 || d.Nodes[2].Y != 8 {
		t.Error("Finish moved a fixed macro")
	}
}

func TestMacrosByAreaDesc(t *testing.T) {
	d := &netlist.Design{Region: geom.NewRect(0, 0, 10, 10)}
	d.AddNode(netlist.Node{Name: "s", Kind: netlist.Macro, W: 1, H: 1})
	d.AddNode(netlist.Node{Name: "l", Kind: netlist.Macro, W: 3, H: 3})
	d.AddNode(netlist.Node{Name: "f", Kind: netlist.Macro, Fixed: true, W: 9, H: 9})
	ms := macrosByAreaDesc(d)
	if len(ms) != 2 || ms[0] != 1 || ms[1] != 0 {
		t.Errorf("order = %v, want [1 0] (fixed excluded)", ms)
	}
}

func TestCandidateGridInBounds(t *testing.T) {
	region := geom.NewRect(0, 0, 100, 50)
	for _, c := range candidateGrid(region, 20, 10, 8) {
		r := geom.NewRect(c.X-10, c.Y-5, 20, 10)
		if !region.ContainsRect(r) {
			t.Errorf("candidate %v places node outside region", c)
		}
	}
}

func TestBaselineOrderingOnSharedBenchmark(t *testing.T) {
	// Sanity: the analytical methods shouldn't differ by orders of
	// magnitude on the same netlist — they share the finishing pass.
	d := benchDesign(t, 13)
	dp := DreamPlaceLike(d.Clone())
	rp := RePlAceLike(d.Clone(), RePlAceConfig{Rounds: 10})
	ratio := dp.HPWL / rp.HPWL
	if math.IsNaN(ratio) || ratio < 0.2 || ratio > 5 {
		t.Errorf("suspicious HPWL ratio dreamplace/replace = %v", ratio)
	}
}

func TestMinCut(t *testing.T) {
	d := benchDesign(t, 22)
	random := d.HPWL()
	res := MinCut(d, MinCutConfig{Seed: 23})
	checkResult(t, "mincut", d, res)
	if res.HPWL >= random {
		t.Errorf("HPWL %v did not improve over random %v", res.HPWL, random)
	}
}

func TestMinCutDeterministic(t *testing.T) {
	r1 := MinCut(benchDesign(t, 24), MinCutConfig{Seed: 25})
	r2 := MinCut(benchDesign(t, 24), MinCutConfig{Seed: 25})
	if r1.HPWL != r2.HPWL {
		t.Errorf("MinCut not deterministic: %v vs %v", r1.HPWL, r2.HPWL)
	}
}
