package geom

import "math"

// LineString is a polyline: a sequence of at least two points connected by
// straight segments. Linestrings model road networks, rivers, traces and
// similar non-point, non-areal spatial objects.
type LineString struct {
	Points []Point
}

// NewLineString returns a linestring over pts. It panics if fewer than two
// points are given; a linestring with a single vertex is not meaningful.
func NewLineString(pts ...Point) *LineString {
	if len(pts) < 2 {
		panic("geom: linestring needs at least two points")
	}
	return &LineString{Points: pts}
}

// NumSegments returns the number of straight segments in the linestring.
func (l *LineString) NumSegments() int { return len(l.Points) - 1 }

// Segment returns the i-th straight segment.
func (l *LineString) Segment(i int) Segment {
	return Segment{l.Points[i], l.Points[i+1]}
}

// MBR returns the minimum bounding rectangle of the linestring.
func (l *LineString) MBR() Rect {
	r := Rect{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
	for _, p := range l.Points {
		r.MinX = min(r.MinX, p.X)
		r.MinY = min(r.MinY, p.Y)
		r.MaxX = max(r.MaxX, p.X)
		r.MaxY = max(r.MaxY, p.Y)
	}
	return r
}

// IntersectsRect reports whether any segment of the linestring shares a
// point with rectangle r. This is the exact refinement test for window
// queries over linestring data.
func (l *LineString) IntersectsRect(r Rect) bool {
	for i := 0; i < l.NumSegments(); i++ {
		if l.Segment(i).IntersectsRect(r) {
			return true
		}
	}
	return false
}

// DistSqToPoint returns the squared minimum distance from p to the
// linestring.
func (l *LineString) DistSqToPoint(p Point) float64 {
	best := math.Inf(1)
	for i := 0; i < l.NumSegments(); i++ {
		if d := l.Segment(i).DistSqToPoint(p); d < best {
			best = d
		}
	}
	return best
}

// IntersectsDisk reports whether the linestring comes within radius of
// center. This is the exact refinement test for disk queries over
// linestring data.
func (l *LineString) IntersectsDisk(center Point, radius float64) bool {
	return l.DistSqToPoint(center) <= radius*radius
}

// Length returns the total Euclidean length of the linestring.
func (l *LineString) Length() float64 {
	var sum float64
	for i := 0; i < l.NumSegments(); i++ {
		sum += l.Points[i].Dist(l.Points[i+1])
	}
	return sum
}
