package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{3, 4}
	q := Point{1, 2}
	if got := p.Add(q); got != (Point{4, 6}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{2, 2}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Manhattan(q); got != 4 {
		t.Errorf("Manhattan = %v, want 4", got)
	}
}

func TestNewRectClampsNegativeSize(t *testing.T) {
	r := NewRect(1, 2, -3, -4)
	if r.W() != 0 || r.H() != 0 {
		t.Errorf("negative sizes should clamp to zero, got %vx%v", r.W(), r.H())
	}
	if !r.Valid() {
		t.Error("clamped rect should be valid")
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(1, 2, 3, 4)
	if r.W() != 3 || r.H() != 4 || r.Area() != 12 {
		t.Errorf("W/H/Area = %v/%v/%v", r.W(), r.H(), r.Area())
	}
	if c := r.Center(); c != (Point{2.5, 4}) {
		t.Errorf("Center = %v", c)
	}
	if !r.Contains(Point{1, 2}) || !r.Contains(Point{4, 6}) {
		t.Error("boundary points should be contained")
	}
	if r.Contains(Point{0.99, 2}) {
		t.Error("outside point contained")
	}
}

func TestOverlapEdgeTouching(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	b := NewRect(2, 0, 2, 2) // shares the x=2 edge
	if a.Overlap(b) {
		t.Error("edge-touching rects must not overlap")
	}
	if a.OverlapArea(b) != 0 {
		t.Error("edge-touching overlap area must be 0")
	}
	c := NewRect(1, 1, 2, 2)
	if !a.Overlap(c) {
		t.Error("expected overlap")
	}
	if got := a.OverlapArea(c); got != 1 {
		t.Errorf("OverlapArea = %v, want 1", got)
	}
}

func TestIntersectDisjoint(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	b := NewRect(5, 5, 1, 1)
	if _, ok := a.Intersect(b); ok {
		t.Error("disjoint rects should not intersect")
	}
}

func TestClampInto(t *testing.T) {
	bounds := NewRect(0, 0, 10, 10)
	cases := []struct {
		in   Rect
		want Point // lower-left after clamp
	}{
		{NewRect(-5, -5, 2, 2), Point{0, 0}},
		{NewRect(9, 9, 2, 2), Point{8, 8}},
		{NewRect(4, 4, 2, 2), Point{4, 4}},    // already inside
		{NewRect(3, -20, 30, 2), Point{0, 0}}, // wider than bounds
		{NewRect(-1, 20, 2, 30), Point{0, 0}}, // taller than bounds
	}
	for _, c := range cases {
		got := c.in.ClampInto(bounds)
		if got.Lx != c.want.X || got.Ly != c.want.Y {
			t.Errorf("ClampInto(%v) = %v, want corner %v", c.in, got, c.want)
		}
	}
}

func TestMoveToPreservesSize(t *testing.T) {
	r := NewRect(3, 4, 5, 6).MoveTo(-1, -2)
	if r.Lx != -1 || r.Ly != -2 || r.W() != 5 || r.H() != 6 {
		t.Errorf("MoveTo = %v", r)
	}
}

func TestBBoxHPWL(t *testing.T) {
	var b BBox
	if b.HPWL() != 0 {
		t.Error("empty box HPWL should be 0")
	}
	b.Add(1, 1)
	if b.HPWL() != 0 {
		t.Error("single-point HPWL should be 0")
	}
	b.Add(4, 5)
	if got := b.HPWL(); got != 7 {
		t.Errorf("HPWL = %v, want 7", got)
	}
	b.Add(2, 3) // interior point must not change the box
	if got := b.HPWL(); got != 7 {
		t.Errorf("HPWL after interior point = %v, want 7", got)
	}
	if b.Count() != 3 {
		t.Errorf("Count = %d", b.Count())
	}
	b.Reset()
	if b.Count() != 0 || b.HPWL() != 0 {
		t.Error("Reset should empty the box")
	}
}

// canonical builds a valid rect from four arbitrary floats.
func canonical(a, b, c, d float64) Rect {
	return Rect{math.Min(a, c), math.Min(b, d), math.Max(a, c), math.Max(b, d)}
}

func TestIntersectWithinBothProperty(t *testing.T) {
	f := func(a, b, c, d, e, f2, g, h float64) bool {
		r1 := canonical(a, b, c, d)
		r2 := canonical(e, f2, g, h)
		is, ok := r1.Intersect(r2)
		if !ok {
			return true
		}
		return r1.ContainsRect(is) && r2.ContainsRect(is)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverlapSymmetryProperty(t *testing.T) {
	f := func(a, b, c, d, e, f2, g, h float64) bool {
		// Bound magnitudes: W()*H() overflows to +Inf near MaxFloat64
		// and Inf−Inf is NaN, which is a float artifact, not an
		// asymmetry.
		for _, v := range []float64{a, b, c, d, e, f2, g, h} {
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
		}
		r1 := canonical(a, b, c, d)
		r2 := canonical(e, f2, g, h)
		return r1.Overlap(r2) == r2.Overlap(r1) &&
			r1.OverlapArea(r2) == r2.OverlapArea(r1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBoxTranslationInvarianceProperty(t *testing.T) {
	f := func(pts [8]float64, dx, dy float64) bool {
		if math.IsNaN(dx) || math.IsNaN(dy) || math.IsInf(dx, 0) || math.IsInf(dy, 0) {
			return true
		}
		// Bound magnitudes so float cancellation stays benign.
		for _, v := range pts {
			if math.Abs(v) > 1e6 {
				return true
			}
		}
		if math.Abs(dx) > 1e6 || math.Abs(dy) > 1e6 {
			return true
		}
		var b1, b2 BBox
		for i := 0; i < 8; i += 2 {
			b1.Add(pts[i], pts[i+1])
			b2.Add(pts[i]+dx, pts[i+1]+dy)
		}
		return math.Abs(b1.HPWL()-b2.HPWL()) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampIntoStaysInsideProperty(t *testing.T) {
	bounds := NewRect(0, 0, 100, 50)
	f := func(x, y, w, h float64) bool {
		if math.IsNaN(x+y+w+h) || math.IsInf(x+y+w+h, 0) {
			return true
		}
		w = math.Mod(math.Abs(w), 90)
		h = math.Mod(math.Abs(h), 45)
		x = math.Mod(x, 1000)
		y = math.Mod(y, 1000)
		r := NewRect(x, y, w, h).ClampInto(bounds)
		return bounds.ContainsRect(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
