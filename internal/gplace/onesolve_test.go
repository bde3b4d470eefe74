package gplace

import (
	"math"
	"testing"

	"macroplace/internal/cluster"
	"macroplace/internal/gen"
	"macroplace/internal/grid"
	"macroplace/internal/netlist"
)

// coarseOracleDesign returns the coarse design the reward oracle
// places for d, built as TestPlacementGolden builds it: the prototype
// placement, then clustering and coarsening at the default grid.
func coarseOracleDesign(t *testing.T, d *netlist.Design, err error) *netlist.Design {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	InitialPlacement(d)
	g := grid.New(d.Region, grid.DefaultZeta)
	co := cluster.Coarsen(d, cluster.Build(d, g.CellArea()))
	if co.MacroGroups == 0 {
		t.Fatal("coarse design has no macro groups")
	}
	return co.Design
}

// TestSecondSolveIsANoOp pins why PlaceQuadraticOnly solves once. The
// B2B model is linearized at the design's node positions, which only
// commit writes, so solving the oracle's system again before commit
// assembles the same matrix and right-hand side; CG starts at the
// first solve's solution, runs no iteration on either axis and moves
// no bit. Each design is solved twice over, the second time on the
// same placer after the first solve is committed and the macros are
// mirrored (the oracle's reuse), on one goroutine and split over two.
// A placer that re-linearized at its own solution fails here, and
// would need its second solve back (DESIGN.md §8, "Quadratic
// placement").
func TestSecondSolveIsANoOp(t *testing.T) {
	cases := []struct {
		name string
		make func(t *testing.T) *netlist.Design
	}{
		{"ibm01@0.02 coarse", func(t *testing.T) *netlist.Design {
			d, err := gen.IBM("ibm01", 0.02, 11)
			return coarseOracleDesign(t, d, err)
		}},
		{"cir1@0.02 coarse", func(t *testing.T) *netlist.Design {
			d, err := gen.Cir("cir1", 0.02, 12)
			return coarseOracleDesign(t, d, err)
		}},
		{"coincident", func(*testing.T) *netlist.Design { return coincidentDesign() }},
	}
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, c := range cases {
		for _, split := range []bool{false, true} {
			d := c.make(t)
			p := New(d, Config{Mode: MoveCells})
			p.split = split
			for round := 1; round <= 2; round++ {
				p.load()
				p.solveQuadratic(0)
				x := append([]float64(nil), p.x...)
				y := append([]float64(nil), p.y...)
				p.solveQuadratic(0)
				for i := range p.axes {
					if it := p.axes[i].res.Iterations; it != 0 {
						t.Errorf("%s, split %v, round %d: second solve ran %d CG iterations on axis %d, want 0",
							c.name, split, round, it, i)
					}
				}
				if !same(x, p.x) || !same(y, p.y) {
					t.Errorf("%s, split %v, round %d: second solve moved a position", c.name, split, round)
				}
				p.commit()
				for i := range d.Nodes {
					if n := &d.Nodes[i]; n.Kind == netlist.Macro {
						ctr := n.Center()
						n.SetCenter(d.Region.Lx+d.Region.Ux-ctr.X, d.Region.Ly+d.Region.Uy-ctr.Y)
					}
				}
			}
		}
	}
}
