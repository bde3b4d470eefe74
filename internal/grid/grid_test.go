package grid

import (
	"math"
	"testing"
	"testing/quick"

	"macroplace/internal/cluster"
	"macroplace/internal/geom"
)

func unitGrid(zeta int) *Grid {
	return New(geom.NewRect(0, 0, float64(zeta), float64(zeta)), zeta)
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	g := unitGrid(7)
	for idx := 0; idx < g.NumCells(); idx++ {
		gx, gy := g.Coords(idx)
		if g.Index(gx, gy) != idx {
			t.Fatalf("roundtrip failed at %d", idx)
		}
	}
}

func TestCellRectTilesRegion(t *testing.T) {
	g := New(geom.NewRect(10, 20, 32, 48), 8)
	var total float64
	for gy := 0; gy < 8; gy++ {
		for gx := 0; gx < 8; gx++ {
			r := g.CellRect(gx, gy)
			total += r.Area()
			if !g.Region.ContainsRect(r) {
				t.Fatalf("cell (%d,%d) outside region", gx, gy)
			}
		}
	}
	if math.Abs(total-g.Region.Area()) > 1e-9 {
		t.Errorf("tiles cover %v, region is %v", total, g.Region.Area())
	}
}

func TestShapeOfSmallGroup(t *testing.T) {
	g := unitGrid(8) // cells 1×1
	grp := &cluster.Group{Area: 0.25, MaxW: 0.5, MaxH: 0.5}
	s := ShapeOf(g, grp)
	if s.GW != 1 || s.GH != 1 {
		t.Fatalf("shape = %dx%d, want 1x1", s.GW, s.GH)
	}
	// Self-utilization: 0.5×0.5 footprint in a 1×1 cell = 0.25.
	if math.Abs(s.Util[0]-0.25) > 1e-9 {
		t.Errorf("util = %v, want 0.25", s.Util[0])
	}
}

func TestShapeOfMultiGrid(t *testing.T) {
	g := unitGrid(8)
	// 1.5 × 0.8 footprint → 2×1 grids; utils 0.8 and 0.4.
	grp := &cluster.Group{Area: 1.2, MaxW: 1.5, MaxH: 0.8}
	s := ShapeOf(g, grp)
	if s.GW != 2 || s.GH != 1 {
		t.Fatalf("shape = %dx%d, want 2x1", s.GW, s.GH)
	}
	if math.Abs(s.Util[0]-0.8) > 1e-9 || math.Abs(s.Util[1]-0.4) > 1e-9 {
		t.Errorf("utils = %v, want [0.8 0.4]", s.Util)
	}
}

func TestShapeNeverExceedsGrid(t *testing.T) {
	g := unitGrid(4)
	grp := &cluster.Group{Area: 100, MaxW: 10, MaxH: 10} // bigger than region
	s := ShapeOf(g, grp)
	if s.GW > 4 || s.GH > 4 {
		t.Errorf("shape = %dx%d exceeds ζ=4", s.GW, s.GH)
	}
}

// fig1Env reproduces the paper's Fig. 1 scenario: a 16-grid state is
// overkill; we use a 2×2 fragment with the published numbers. The
// example slides a 2×1 group (s_m = [0.6, 0.3]) over s_p and reports
// V = 0.32 at the right-bottom corner where s_p = [0.5, 0.25].
func TestAvailEquation4PaperExample(t *testing.T) {
	g := unitGrid(2)
	shape := Shape{GW: 2, GH: 1, Util: []float64{0.6, 0.3}, W: 2, H: 1, Area: 0.9}
	env := NewEnv(g, []Shape{shape}, []float64{0, 0, 0.5, 0.25})
	sa := env.AvailInto(nil)
	// Anchor (0,1) covers grids with s_p 0.5 and 0.25:
	// V = sqrt((1-0.6)(1-0.5) × (1-0.3)(1-0.25)) = sqrt(0.105) ≈ 0.324.
	want := math.Sqrt((1 - 0.6) * (1 - 0.5) * (1 - 0.3) * (1 - 0.25))
	if math.Abs(sa[g.Index(0, 1)]-want) > 1e-9 {
		t.Errorf("V = %v, want %v (paper's 0.32)", sa[g.Index(0, 1)], want)
	}
	// Anchor (0,0) covers empty grids: V = sqrt(0.4 × 0.7) ≈ 0.529.
	want00 := math.Sqrt((1 - 0.6) * (1 - 0.3))
	if math.Abs(sa[g.Index(0, 0)]-want00) > 1e-9 {
		t.Errorf("V(0,0) = %v, want %v", sa[g.Index(0, 0)], want00)
	}
	// Anchors (1,0) and (1,1) push the 2-wide group out of bounds.
	if sa[g.Index(1, 0)] != 0 || sa[g.Index(1, 1)] != 0 {
		t.Error("out-of-bounds anchors must have V = 0")
	}
}

func TestAvailZeroOnFullGrid(t *testing.T) {
	g := unitGrid(2)
	shape := Shape{GW: 1, GH: 1, Util: []float64{0.5}, W: 1, H: 1, Area: 0.5}
	env := NewEnv(g, []Shape{shape}, []float64{1, 0, 0, 0})
	sa := env.AvailInto(nil)
	if sa[0] != 0 {
		t.Errorf("full grid availability = %v, want 0", sa[0])
	}
	if sa[1] <= 0 {
		t.Error("empty grid should be available")
	}
}

func TestStepUpdatesUtilizationAndAdvances(t *testing.T) {
	g := unitGrid(4)
	shape := Shape{GW: 2, GH: 2, Util: []float64{0.9, 0.9, 0.9, 0.9}, W: 2, H: 2, Area: 3.6}
	env := NewEnv(g, []Shape{shape, shape}, nil)
	if env.T() != 0 || env.Done() {
		t.Fatal("fresh env state wrong")
	}
	if err := env.Step(g.Index(1, 1)); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if env.T() != 1 {
		t.Error("T did not advance")
	}
	sp := env.SPInto(nil)
	for _, gc := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}} {
		if sp[g.Index(gc[0], gc[1])] != 0.9 {
			t.Errorf("sp(%d,%d) = %v, want 0.9", gc[0], gc[1], sp[g.Index(gc[0], gc[1])])
		}
	}
	if sp[g.Index(0, 0)] != 0 {
		t.Error("untouched grid should stay 0")
	}
	// Overfill caps at 1.
	if err := env.Step(g.Index(1, 1)); err != nil {
		t.Fatalf("Step2: %v", err)
	}
	sp = env.SPInto(nil)
	if sp[g.Index(1, 1)] != 1 {
		t.Errorf("overfilled grid = %v, want capped at 1", sp[g.Index(1, 1)])
	}
	if !env.Done() {
		t.Error("all groups placed, env should be done")
	}
	if env.Step(0) == nil {
		t.Error("stepping a done env should error")
	}
}

func TestStepOutOfBoundsErrors(t *testing.T) {
	g := unitGrid(4)
	shape := Shape{GW: 3, GH: 1, Util: []float64{1, 1, 1}, W: 3, H: 1, Area: 3}
	env := NewEnv(g, []Shape{shape}, nil)
	if err := env.Step(g.Index(2, 0)); err == nil {
		t.Error("anchor at x=2 with width 3 on ζ=4 must fail")
	}
	if err := env.Step(g.Index(1, 0)); err != nil {
		t.Errorf("legal anchor rejected: %v", err)
	}
}

func TestInBoundsMatchesAvailSupport(t *testing.T) {
	g := unitGrid(5)
	shape := Shape{GW: 2, GH: 3, Util: make([]float64, 6), W: 2, H: 3, Area: 3}
	env := NewEnv(g, []Shape{shape}, nil)
	sa := env.AvailInto(nil)
	for a := 0; a < g.NumCells(); a++ {
		if (sa[a] > 0) != env.InBounds(a) {
			t.Fatalf("action %d: avail=%v but InBounds=%v", a, sa[a], env.InBounds(a))
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := unitGrid(4)
	shape := Shape{GW: 1, GH: 1, Util: []float64{0.5}, W: 1, H: 1, Area: 0.5}
	env := NewEnv(g, []Shape{shape, shape}, nil)
	if err := env.Step(0); err != nil {
		t.Fatal(err)
	}
	cp := env.Clone()
	if err := cp.Step(5); err != nil {
		t.Fatal(err)
	}
	if env.T() != 1 {
		t.Error("stepping the clone advanced the original")
	}
	if env.SPInto(nil)[5] != 0 {
		t.Error("clone shares utilization with original")
	}
	if cp.Anchors()[1] != 5 || env.Anchors()[1] != -1 {
		t.Error("anchor bookkeeping leaked between clone and original")
	}
}

func TestResetClearsState(t *testing.T) {
	g := unitGrid(4)
	shape := Shape{GW: 1, GH: 1, Util: []float64{0.7}, W: 1, H: 1, Area: 0.7}
	env := NewEnv(g, []Shape{shape}, nil)
	env.Step(3)
	env.Reset()
	if env.T() != 0 || env.Anchors()[0] != -1 {
		t.Error("Reset did not clear step state")
	}
	for _, u := range env.SPInto(nil) {
		if u != 0 {
			t.Error("Reset did not clear utilization")
		}
	}
}

func TestGroupRectAndBlockCenter(t *testing.T) {
	g := New(geom.NewRect(0, 0, 16, 16), 4) // 4×4 cells of size 4
	shape := Shape{GW: 2, GH: 1, Util: []float64{1, 1}, W: 7, H: 3, Area: 21}
	env := NewEnv(g, []Shape{shape}, nil)
	anchor := g.Index(1, 2)
	r := env.GroupRect(0, anchor)
	if r.Lx != 4 || r.Ly != 8 || r.W() != 7 || r.H() != 3 {
		t.Errorf("GroupRect = %v", r)
	}
	c := env.BlockCenter(0, anchor)
	// Block covers grids (1,2)-(2,2): x ∈ [4,12], y ∈ [8,12].
	if c.X != 8 || c.Y != 10 {
		t.Errorf("BlockCenter = %v, want (8,10)", c)
	}
}

func TestBaseUtilFromFixed(t *testing.T) {
	g := New(geom.NewRect(0, 0, 4, 4), 4)
	util := BaseUtilFromFixed(g, []geom.Rect{geom.NewRect(0, 0, 2, 1)})
	if util[g.Index(0, 0)] != 1 || util[g.Index(1, 0)] != 1 {
		t.Errorf("covered cells = %v, %v, want 1", util[g.Index(0, 0)], util[g.Index(1, 0)])
	}
	if util[g.Index(2, 0)] != 0 {
		t.Error("uncovered cell should be 0")
	}
	// Partial coverage.
	util = BaseUtilFromFixed(g, []geom.Rect{geom.NewRect(0.5, 0.5, 1, 1)})
	if math.Abs(util[g.Index(0, 0)]-0.25) > 1e-9 {
		t.Errorf("partial coverage = %v, want 0.25", util[g.Index(0, 0)])
	}
}

func TestAvailBoundsProperty(t *testing.T) {
	g := unitGrid(6)
	f := func(utilSeed [36]float64, gw, gh uint8) bool {
		w := int(gw)%3 + 1
		h := int(gh)%3 + 1
		base := make([]float64, 36)
		for i, v := range utilSeed {
			base[i] = math.Abs(math.Mod(v, 1))
			if math.IsNaN(base[i]) {
				base[i] = 0
			}
		}
		util := make([]float64, w*h)
		for i := range util {
			util[i] = 0.5
		}
		s := Shape{GW: w, GH: h, Util: util, W: float64(w), H: float64(h), Area: float64(w * h)}
		env := NewEnv(g, []Shape{s}, base)
		for a, v := range env.AvailInto(nil) {
			if v < 0 || v > 1 {
				return false
			}
			if v > 0 && !env.InBounds(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAvailMatchesBruteForceProperty compares the production Avail
// (log-sum geometric mean) against a literal transcription of Eq. (4).
func TestAvailMatchesBruteForceProperty(t *testing.T) {
	g := unitGrid(5)
	f := func(seedRaw int64, gw, gh uint8) bool {
		w := int(gw)%3 + 1
		h := int(gh)%2 + 1
		r := seedRaw
		next := func() float64 {
			// xorshift-based deterministic pseudo-floats in [0, 1).
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			v := float64(uint64(r)%1000) / 1000
			return v
		}
		base := make([]float64, 25)
		for i := range base {
			base[i] = next()
		}
		util := make([]float64, w*h)
		for i := range util {
			util[i] = next()
		}
		s := Shape{GW: w, GH: h, Util: util, W: float64(w), H: float64(h), Area: 1}
		env := NewEnv(g, []Shape{s}, base)
		got := env.AvailInto(nil)

		// Literal Eq. (4): V(g) = (∏ (1−s_m)(1−s_p))^(1/n), 0 when
		// out of bounds, clamped at 0.
		n := float64(w * h)
		for gy := 0; gy < 5; gy++ {
			for gx := 0; gx < 5; gx++ {
				var want float64
				if gx+w <= 5 && gy+h <= 5 {
					prod := 1.0
					for r2 := 0; r2 < h; r2++ {
						for c2 := 0; c2 < w; c2++ {
							sp := env.SPInto(nil)[(gy+r2)*5+(gx+c2)]
							prod *= (1 - util[r2*w+c2]) * (1 - sp)
						}
					}
					if prod > 0 {
						want = math.Pow(prod, 1/n)
					}
				}
				if math.Abs(got[gy*5+gx]-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
