package legalize

import (
	"testing"
	"testing/quick"

	"macroplace/internal/cluster"
	"macroplace/internal/gen"
	"macroplace/internal/geom"
	"macroplace/internal/gplace"
	"macroplace/internal/grid"
	"macroplace/internal/netlist"
	"macroplace/internal/rng"
)

// ---------------------------------------------------------------------------
// Sequence pair

func TestExtractSeqPairPreservesRelations(t *testing.T) {
	// Three non-overlapping rects: a left of b, c above both.
	items := []Item{
		{W: 2, H: 2, X: 0, Y: 0}, // a
		{W: 2, H: 2, X: 4, Y: 0}, // b
		{W: 2, H: 2, X: 1, Y: 5}, // c
	}
	sp := extractSeqPair(items)
	hor, ver := sp.relations()
	if !hor[0][1] {
		t.Error("a should be left of b")
	}
	if !ver[0][2] && !ver[1][2] {
		t.Error("c should be above a or b")
	}
}

func TestRelationsTournamentProperty(t *testing.T) {
	// Every ordered pair has exactly one relation: i left-of j, j
	// left-of i, i below j, or j below i.
	r := rng.New(17)
	f := func(seed int64) bool {
		rr := rng.New(seed ^ r.Int63())
		n := rr.IntRange(2, 10)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				W: rr.Range(1, 5), H: rr.Range(1, 5),
				X: rr.Range(0, 50), Y: rr.Range(0, 50),
			}
		}
		sp := extractSeqPair(items)
		hor, ver := sp.relations()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				count := 0
				if hor[i][j] {
					count++
				}
				if hor[j][i] {
					count++
				}
				if ver[i][j] {
					count++
				}
				if ver[j][i] {
					count++
				}
				if count != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func overlapArea(items []Item) float64 {
	var total float64
	for i := 0; i < len(items); i++ {
		ri := geom.NewRect(items[i].X, items[i].Y, items[i].W, items[i].H)
		for j := i + 1; j < len(items); j++ {
			rj := geom.NewRect(items[j].X, items[j].Y, items[j].W, items[j].H)
			total += ri.OverlapArea(rj)
		}
	}
	return total
}

func TestRemoveOverlapsFeasible(t *testing.T) {
	// Four 2×2 blocks piled near the center of a 10×10 block; plenty
	// of room, so the LP must resolve all overlap.
	bounds := geom.NewRect(0, 0, 10, 10)
	items := []Item{
		{W: 2, H: 2, X: 4, Y: 4, TX: 5, TY: 5, Weight: 1},
		{W: 2, H: 2, X: 4.5, Y: 4, TX: 5, TY: 5, Weight: 1},
		{W: 2, H: 2, X: 4, Y: 4.5, TX: 5, TY: 5, Weight: 1},
		{W: 2, H: 2, X: 4.5, Y: 4.5, TX: 5, TY: 5, Weight: 1},
	}
	RemoveOverlaps(items, bounds)
	if ov := overlapArea(items); ov > 1e-6 {
		t.Errorf("residual overlap = %v", ov)
	}
	for i, it := range items {
		r := geom.NewRect(it.X, it.Y, it.W, it.H)
		if !bounds.ContainsRect(r) {
			t.Errorf("item %d escaped bounds: %v", i, r)
		}
	}
}

func TestRemoveOverlapsSingleItemSnapsToTarget(t *testing.T) {
	bounds := geom.NewRect(0, 0, 10, 10)
	items := []Item{{W: 2, H: 2, X: 0, Y: 0, TX: 7, TY: 8}}
	RemoveOverlaps(items, bounds)
	if items[0].X != 6 || items[0].Y != 7 {
		t.Errorf("single item at (%v,%v), want centered on target (6,7)", items[0].X, items[0].Y)
	}
}

func TestRemoveOverlapsRandomFeasibleProperty(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 25; trial++ {
		bounds := geom.NewRect(0, 0, 20, 20)
		n := r.IntRange(2, 6)
		items := make([]Item, n)
		for i := range items {
			w, h := r.Range(1, 4), r.Range(1, 4)
			x, y := r.Range(0, 16), r.Range(0, 16)
			items[i] = Item{W: w, H: h, X: x, Y: y, TX: x + w/2, TY: y + h/2, Weight: 1}
		}
		RemoveOverlaps(items, bounds)
		// Total area ≤ 6×16 = 96 ≪ 400: always feasible.
		if ov := overlapArea(items); ov > 1e-6 {
			t.Fatalf("trial %d: residual overlap %v (items %+v)", trial, ov, items)
		}
	}
}

func TestPackAxisHonoursPrecedence(t *testing.T) {
	// Chain 0 → 1 → 2 with widths 3: coordinates must be spaced ≥ 3.
	rel := [][]bool{
		{false, true, false},
		{false, false, true},
		{false, false, false},
	}
	size := []float64{3, 3, 3}
	target := []float64{0, 0, 0}
	xs := packAxis(3, rel, size, target, 0, 20)
	if xs[1]-xs[0] < 3 || xs[2]-xs[1] < 3 {
		t.Errorf("packing violates spacing: %v", xs)
	}
	if xs[0] < 0 {
		t.Errorf("packing below lower bound: %v", xs)
	}
}

func TestSolveAxisRespectsBoundsAndSpacing(t *testing.T) {
	rel := [][]bool{
		{false, true},
		{false, false},
	}
	xs := solveAxis(2, rel, []float64{4, 4}, []float64{5, 5}, []float64{1, 1}, 0, 10)
	if xs == nil {
		t.Fatal("feasible LP returned nil")
	}
	if xs[1]-xs[0] < 4-1e-6 {
		t.Errorf("spacing violated: %v", xs)
	}
	if xs[0] < -1e-9 || xs[1]+4 > 10+1e-6 {
		t.Errorf("bounds violated: %v", xs)
	}
}

func TestSolveAxisInfeasibleReturnsNil(t *testing.T) {
	// Two width-6 blocks cannot fit side by side in [0, 10].
	rel := [][]bool{
		{false, true},
		{false, false},
	}
	xs := solveAxis(2, rel, []float64{6, 6}, []float64{0, 0}, []float64{1, 1}, 0, 10)
	if xs != nil {
		t.Errorf("infeasible axis should return nil, got %v", xs)
	}
}

// ---------------------------------------------------------------------------
// Full legalization

// legalizeFixture runs preprocessing on a generated design and returns
// everything Macros() needs plus a random allocation.
func legalizeFixture(t *testing.T, seed int64) (Input, *netlist.Design) {
	t.Helper()
	d, err := gen.IBM("ibm01", 0.03, seed)
	if err != nil {
		t.Fatal(err)
	}
	gplace.InitialPlacement(d)
	g := grid.New(d.Region, 8)
	clus := cluster.Build(d, g.CellArea())
	co := cluster.Coarsen(d, clus)
	shapes := make([]grid.Shape, len(clus.MacroGroups))
	for i := range clus.MacroGroups {
		shapes[i] = grid.ShapeOf(g, &clus.MacroGroups[i])
	}
	env := grid.NewEnv(g, shapes, nil)
	r := rng.New(seed)
	for !env.Done() {
		var legal []int
		for a := 0; a < g.NumCells(); a++ {
			if env.InBounds(a) {
				legal = append(legal, a)
			}
		}
		if err := env.Step(legal[r.Intn(len(legal))]); err != nil {
			t.Fatal(err)
		}
	}
	return Input{
		Design:     d,
		Clustering: clus,
		Coarse:     co,
		Grid:       g,
		Shapes:     shapes,
		Anchors:    env.Anchors(),
	}, d
}

func TestMacrosLegalizesGeneratedDesign(t *testing.T) {
	in, d := legalizeFixture(t, 31)
	if _, err := Macros(in); err != nil {
		t.Fatalf("Macros: %v", err)
	}
	if !Clean(d) {
		t.Errorf("movable overlap = %v (eps %v)", MovableOverlap(d), ConvergenceEps(d))
	}
	// All movable macros inside the region.
	if ov := MaxMacroOverflow(d); ov > 1e-9 {
		t.Errorf("macro overflow outside region = %v", ov)
	}
}

// TestMacrosCleanWithEveryGroupOnOneBlock anchors every macro group at
// grid cell 0, the worst allocation a search can commit: the block LP
// packs each group on its own, so the groups land on top of each
// other and only the tail can separate them.
func TestMacrosCleanWithEveryGroupOnOneBlock(t *testing.T) {
	for seed := int64(31); seed <= 40; seed++ {
		in, d := legalizeFixture(t, seed)
		for gi := range in.Anchors {
			in.Anchors[gi] = 0
		}
		if _, err := Macros(in); err != nil {
			t.Fatalf("seed %d: Macros: %v", seed, err)
		}
		if !Clean(d) {
			t.Errorf("seed %d: movable overlap = %v (eps %v)", seed, MovableOverlap(d), ConvergenceEps(d))
		}
		if ov := MaxMacroOverflow(d); ov > 1e-9 {
			t.Errorf("seed %d: macro overflow outside region = %v", seed, ov)
		}
	}
}

func TestMacrosRejectsBadInput(t *testing.T) {
	in, _ := legalizeFixture(t, 33)
	short := in
	short.Anchors = in.Anchors[:len(in.Anchors)-1]
	if _, err := Macros(short); err == nil {
		t.Error("anchor count mismatch should error")
	}
	missing := in
	missing.Anchors = append([]int(nil), in.Anchors...)
	missing.Anchors[0] = -1
	if _, err := Macros(missing); err == nil {
		t.Error("unassigned anchor should error")
	}
}

func TestMacrosDeterministic(t *testing.T) {
	in1, d1 := legalizeFixture(t, 35)
	in2, d2 := legalizeFixture(t, 35)
	if _, err := Macros(in1); err != nil {
		t.Fatal(err)
	}
	if _, err := Macros(in2); err != nil {
		t.Fatal(err)
	}
	p1, p2 := d1.Positions(), d2.Positions()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("node %d differs: %v vs %v", i, p1[i], p2[i])
		}
	}
}

func TestTotalMacroOverlapMetric(t *testing.T) {
	d := &netlist.Design{Region: geom.NewRect(0, 0, 10, 10)}
	d.AddNode(netlist.Node{Name: "a", Kind: netlist.Macro, W: 2, H: 2, X: 0, Y: 0})
	d.AddNode(netlist.Node{Name: "b", Kind: netlist.Macro, W: 2, H: 2, X: 1, Y: 1})
	d.AddNode(netlist.Node{Name: "c", Kind: netlist.Cell, W: 2, H: 2, X: 1, Y: 1})
	if got := TotalMacroOverlap(d); got != 1 {
		t.Errorf("overlap = %v, want 1 (cells ignored)", got)
	}
}
