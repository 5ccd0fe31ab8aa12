// Package geo provides the 2-D geometry shared by the mobility and radio
// models: points and vectors on the simulation plane (meters), distance
// and interpolation helpers, and the rectangular Arena that bounds node
// placement and movement.
//
// Positions are continuous; nothing here snaps to a grid. The radio
// layer consumes only distances (propagation is range-based, see
// internal/radio), and the mobility layer consumes Arena for clamping
// and waypoint sampling, so this package is the full extent of spatial
// modeling in the reproduction (DESIGN.md §2.2).
package geo

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a location on the simulation plane, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add translates the point by v.
func (p Point) Add(v Vec) Point { return Point{X: p.X + v.X, Y: p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{X: p.X - q.X, Y: p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Lerp linearly interpolates from p to q; f=0 yields p, f=1 yields q.
func (p Point) Lerp(q Point, f float64) Point {
	return Point{X: p.X + (q.X-p.X)*f, Y: p.Y + (q.Y-p.Y)*f}
}

// String renders the point as "(x,y)" with one decimal.
func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Vec is a displacement on the plane, in meters.
type Vec struct {
	X, Y float64
}

// Len returns the vector's Euclidean length.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// Scale multiplies the vector by f.
func (v Vec) Scale(f float64) Vec { return Vec{X: v.X * f, Y: v.Y * f} }

// Unit returns the vector scaled to length 1, or the zero vector unchanged.
func (v Vec) Unit() Vec {
	l := v.Len()
	if l == 0 {
		return Vec{}
	}
	return v.Scale(1 / l)
}

// Heading returns a unit vector pointing at angle rad (radians,
// counter-clockwise from +X).
func Heading(rad float64) Vec { return Vec{X: math.Cos(rad), Y: math.Sin(rad)} }

// Rect is an axis-aligned rectangle (the simulation arena).
type Rect struct {
	Min, Max Point
}

// Arena returns the rectangle [0,w] x [0,h].
func Arena(w, h float64) Rect { return Rect{Min: Pt(0, 0), Max: Pt(w, h)} }

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the rectangle's midpoint.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns p moved to the nearest point inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	p.X = math.Max(r.Min.X, math.Min(r.Max.X, p.X))
	p.Y = math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y))
	return p
}

// RandPoint returns a uniformly random point inside the rectangle.
func (r Rect) RandPoint(rng *rand.Rand) Point {
	return Point{
		X: r.Min.X + rng.Float64()*r.Width(),
		Y: r.Min.Y + rng.Float64()*r.Height(),
	}
}

// Cell is one square of a uniform grid laid over the plane. The grid is
// conceptual — nothing in this package stores cells — but the radio
// layer's spatial index buckets stations by Cell, so the bucketing math
// lives here next to the rest of the geometry.
type Cell struct {
	CX, CY int
}

// CellOf maps a point to its cell on a grid of the given cell side.
// Cells are half-open: a coordinate exactly on a boundary belongs to the
// higher-indexed cell (floor semantics), so every point has exactly one
// cell and points at negative coordinates bucket consistently.
func CellOf(p Point, side float64) Cell {
	return Cell{
		CX: int(math.Floor(p.X / side)),
		CY: int(math.Floor(p.Y / side)),
	}
}
