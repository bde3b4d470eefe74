// Package geom provides the planar geometry primitives shared by every
// placement subsystem: points, rectangles, overlap tests, and the
// bounding-box arithmetic that underlies half-perimeter wirelength.
//
// All coordinates are float64 in the same (arbitrary, usually micron)
// unit as the placement region. Rectangles are half-open in spirit:
// two rectangles that merely touch along an edge do not Overlap.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the placement plane.
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Manhattan returns the L1 distance between p and q.
func (p Point) Manhattan(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f,%.3f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle described by its lower-left corner
// (Lx, Ly) and upper-right corner (Ux, Uy). A valid Rect has Lx <= Ux
// and Ly <= Uy; a zero-area Rect is valid.
type Rect struct {
	Lx, Ly, Ux, Uy float64
}

// NewRect returns the rectangle with lower-left corner (x, y), width w
// and height h. Negative w or h are clamped to zero.
func NewRect(x, y, w, h float64) Rect {
	if w < 0 {
		w = 0
	}
	if h < 0 {
		h = 0
	}
	return Rect{Lx: x, Ly: y, Ux: x + w, Uy: y + h}
}

// W returns the width of r.
func (r Rect) W() float64 { return r.Ux - r.Lx }

// H returns the height of r.
func (r Rect) H() float64 { return r.Uy - r.Ly }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the center point of r.
func (r Rect) Center() Point { return Point{(r.Lx + r.Ux) / 2, (r.Ly + r.Uy) / 2} }

// Valid reports whether r has non-negative extent on both axes.
func (r Rect) Valid() bool { return r.Ux >= r.Lx && r.Uy >= r.Ly }

// Empty reports whether r has zero area.
func (r Rect) Empty() bool { return r.Ux <= r.Lx || r.Uy <= r.Ly }

// Translate returns r moved by (dx, dy).
func (r Rect) Translate(dx, dy float64) Rect {
	return Rect{r.Lx + dx, r.Ly + dy, r.Ux + dx, r.Uy + dy}
}

// MoveTo returns r with its lower-left corner placed at (x, y),
// preserving width and height.
func (r Rect) MoveTo(x, y float64) Rect {
	return Rect{x, y, x + r.W(), y + r.H()}
}

// Contains reports whether point p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lx && p.X <= r.Ux && p.Y >= r.Ly && p.Y <= r.Uy
}

// ContainsRect reports whether s lies entirely inside r (boundary
// inclusive).
func (r Rect) ContainsRect(s Rect) bool {
	return s.Lx >= r.Lx && s.Ux <= r.Ux && s.Ly >= r.Ly && s.Uy <= r.Uy
}

// Overlap reports whether r and s share positive area. Rectangles that
// only touch along an edge or corner do not overlap.
func (r Rect) Overlap(s Rect) bool {
	return r.Lx < s.Ux && s.Lx < r.Ux && r.Ly < s.Uy && s.Ly < r.Uy
}

// Intersect returns the intersection of r and s. If they do not
// overlap, the result is an empty (possibly invalid) rectangle and the
// second return value is false.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{
		Lx: math.Max(r.Lx, s.Lx),
		Ly: math.Max(r.Ly, s.Ly),
		Ux: math.Min(r.Ux, s.Ux),
		Uy: math.Min(r.Uy, s.Uy),
	}
	if out.Lx >= out.Ux || out.Ly >= out.Uy {
		return Rect{}, false
	}
	return out, true
}

// OverlapArea returns the area shared by r and s (zero when disjoint).
func (r Rect) OverlapArea(s Rect) float64 {
	is, ok := r.Intersect(s)
	if !ok {
		return 0
	}
	return is.Area()
}

// Inflate returns r grown by dx on the left and right and by dy on
// the bottom and top (negative values shrink).
func (r Rect) Inflate(dx, dy float64) Rect {
	return Rect{Lx: r.Lx - dx, Ly: r.Ly - dy, Ux: r.Ux + dx, Uy: r.Uy + dy}
}

// ClampInto returns r translated by the smallest displacement that
// places it inside bounds. If r is wider or taller than bounds, the
// lower-left corner is aligned with bounds on that axis.
func (r Rect) ClampInto(bounds Rect) Rect {
	x, y := r.Lx, r.Ly
	if r.W() >= bounds.W() {
		x = bounds.Lx
	} else if x < bounds.Lx {
		x = bounds.Lx
	} else if x+r.W() > bounds.Ux {
		x = bounds.Ux - r.W()
	}
	if r.H() >= bounds.H() {
		y = bounds.Ly
	} else if y < bounds.Ly {
		y = bounds.Ly
	} else if y+r.H() > bounds.Uy {
		y = bounds.Uy - r.H()
	}
	return r.MoveTo(x, y)
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.3f,%.3f %.3fx%.3f]", r.Lx, r.Ly, r.W(), r.H())
}

// BBox accumulates the bounding box of a set of points; it is the
// workhorse of half-perimeter wirelength evaluation. The zero value is
// an empty box ready for use.
type BBox struct {
	minX, minY float64
	maxX, maxY float64
	n          int
}

// Add extends the box to include (x, y).
func (b *BBox) Add(x, y float64) {
	if b.n == 0 {
		b.minX, b.maxX = x, x
		b.minY, b.maxY = y, y
	} else {
		if x < b.minX {
			b.minX = x
		}
		if x > b.maxX {
			b.maxX = x
		}
		if y < b.minY {
			b.minY = y
		}
		if y > b.maxY {
			b.maxY = y
		}
	}
	b.n++
}

// Count returns how many points have been accumulated.
func (b *BBox) Count() int { return b.n }

// HPWL returns the half-perimeter of the accumulated box; it is zero
// when fewer than two points have been added.
func (b *BBox) HPWL() float64 {
	if b.n < 2 {
		return 0
	}
	return (b.maxX - b.minX) + (b.maxY - b.minY)
}

// Rect returns the accumulated bounding rectangle; it is the zero Rect
// when no points have been added.
func (b *BBox) Rect() Rect {
	if b.n == 0 {
		return Rect{}
	}
	return Rect{b.minX, b.minY, b.maxX, b.maxY}
}

// Reset returns the box to its empty state.
func (b *BBox) Reset() { *b = BBox{} }
