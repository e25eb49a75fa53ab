// Package geom provides the geometry kernel used throughout the library:
// points, rectangles, line segments, linestrings and polygons, together
// with the exact intersection and distance predicates needed by the
// refinement step of spatial range queries.
//
// All coordinates are float64. The library conventionally normalizes data
// to the unit square [0,1]x[0,1], but nothing in this package depends on
// that. Rectangles are closed: boundaries touching counts as intersection,
// matching the semantics of the paper's filtering step.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Sub returns p - q as a vector (represented as a Point).
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dot returns the dot product of p and q seen as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product of p and q seen as
// vectors. Its sign gives the orientation of the turn from p to q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Rect is an axis-parallel rectangle [MinX,MaxX] x [MinY,MaxY].
// In the paper's notation MinX=xl, MaxX=xu, MinY=yl, MaxY=yu.
// The zero Rect is the degenerate point at the origin.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// RectFromPoints returns the minimum rectangle containing both p and q.
func RectFromPoints(p, q Point) Rect {
	return Rect{
		MinX: math.Min(p.X, q.X),
		MinY: math.Min(p.Y, q.Y),
		MaxX: math.Max(p.X, q.X),
		MaxY: math.Max(p.Y, q.Y),
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Valid reports whether r is a well-formed rectangle (Min <= Max in both
// dimensions and no NaN coordinates).
func (r Rect) Valid() bool {
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY // NaN fails both comparisons
}

// Finite reports whether all four coordinates of r are finite (neither
// NaN nor ±Inf): x-x is 0 for every finite x and NaN for the others. An
// index stores only finite, valid rectangles: a query window may reach
// to infinity, a stored object may not.
func (r Rect) Finite() bool {
	return (r.MinX-r.MinX)+(r.MinY-r.MinY)+(r.MaxX-r.MaxX)+(r.MaxY-r.MaxY) == 0
}

// Width returns the x-extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the y-extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Margin returns the half-perimeter of r (used by the R*-tree split).
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Intersects reports whether r and s share at least one point
// (boundaries included).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Contains reports whether s lies entirely inside r (boundaries included).
func (r Rect) Contains(s Rect) bool {
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX &&
		r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// ContainsPoint reports whether p lies inside r (boundaries included).
func (r Rect) ContainsPoint(p Point) bool {
	return r.MinX <= p.X && p.X <= r.MaxX && r.MinY <= p.Y && p.Y <= r.MaxY
}

// Intersection returns the overlap of r and s. If the rectangles do not
// intersect, the result is not Valid.
func (r Rect) Intersection(s Rect) Rect {
	return Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
}

// Union returns the minimum rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: min(r.MinX, s.MinX),
		MinY: min(r.MinY, s.MinY),
		MaxX: max(r.MaxX, s.MaxX),
		MaxY: max(r.MaxY, s.MaxY),
	}
}

// Expand returns r grown by d on every side.
func (r Rect) Expand(d float64) Rect {
	return Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
}

// Corners returns the four corners of r in counterclockwise order starting
// at (MinX, MinY).
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY},
		{r.MaxX, r.MinY},
		{r.MaxX, r.MaxY},
		{r.MinX, r.MaxY},
	}
}

// DistToPoint returns the minimum Euclidean distance from r to p
// (zero if p is inside r).
func (r Rect) DistToPoint(p Point) float64 {
	return math.Sqrt(r.DistSqToPoint(p))
}

// DistSqToPoint returns the squared minimum distance from r to p.
func (r Rect) DistSqToPoint(p Point) float64 {
	dx := math.Max(0, math.Max(r.MinX-p.X, p.X-r.MaxX))
	dy := math.Max(0, math.Max(r.MinY-p.Y, p.Y-r.MaxY))
	return dx*dx + dy*dy
}

// MaxDistSqToPoint returns the squared maximum distance from any point of r
// to p. Useful for deciding whether r lies entirely inside a disk.
func (r Rect) MaxDistSqToPoint(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.MinX), math.Abs(p.X-r.MaxX))
	dy := math.Max(math.Abs(p.Y-r.MinY), math.Abs(p.Y-r.MaxY))
	return dx*dx + dy*dy
}

// IntersectsDisk reports whether r shares at least one point with the disk
// of the given center and radius.
func (r Rect) IntersectsDisk(center Point, radius float64) bool {
	return r.DistSqToPoint(center) <= radius*radius
}

// InsideDisk reports whether r lies entirely inside the disk of the given
// center and radius.
func (r Rect) InsideDisk(center Point, radius float64) bool {
	return r.MaxDistSqToPoint(center) <= radius*radius
}

// Disk is a circular range: all points within Radius of Center.
type Disk struct {
	Center Point
	Radius float64
}

// MBR returns the minimum bounding rectangle of the disk.
func (d Disk) MBR() Rect {
	return Rect{
		MinX: d.Center.X - d.Radius,
		MinY: d.Center.Y - d.Radius,
		MaxX: d.Center.X + d.Radius,
		MaxY: d.Center.Y + d.Radius,
	}
}

// Contains reports whether p lies inside the disk (boundary included).
func (d Disk) Contains(p Point) bool {
	return d.Center.DistSq(p) <= d.Radius*d.Radius
}

// IntersectsRect reports whether the disk and r share at least one point,
// making Disk usable as an arbitrary query region.
func (d Disk) IntersectsRect(r Rect) bool {
	return r.IntersectsDisk(d.Center, d.Radius)
}

// ContainsRect reports whether r lies entirely inside the disk.
func (d Disk) ContainsRect(r Rect) bool {
	return r.InsideDisk(d.Center, d.Radius)
}
