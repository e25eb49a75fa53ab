package geom

import "math"

// Segment is a straight line segment between two points.
type Segment struct {
	A, B Point
}

// MBR returns the minimum bounding rectangle of the segment.
func (s Segment) MBR() Rect { return RectFromPoints(s.A, s.B) }

// orientation returns >0 if the triple (a,b,c) makes a counterclockwise
// turn, <0 for clockwise, and 0 when collinear.
func orientation(a, b, c Point) float64 {
	return b.Sub(a).Cross(c.Sub(a))
}

// onSegment reports whether point p, known to be collinear with s, lies on s.
func onSegment(s Segment, p Point) bool {
	return min(s.A.X, s.B.X) <= p.X && p.X <= max(s.A.X, s.B.X) &&
		min(s.A.Y, s.B.Y) <= p.Y && p.Y <= max(s.A.Y, s.B.Y)
}

// Intersects reports whether segments s and t share at least one point.
func (s Segment) Intersects(t Segment) bool {
	d1 := orientation(s.A, s.B, t.A)
	d2 := orientation(s.A, s.B, t.B)
	d3 := orientation(t.A, t.B, s.A)
	d4 := orientation(t.A, t.B, s.B)

	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	// Collinear / endpoint-touching cases.
	if d1 == 0 && onSegment(s, t.A) {
		return true
	}
	if d2 == 0 && onSegment(s, t.B) {
		return true
	}
	if d3 == 0 && onSegment(t, s.A) {
		return true
	}
	if d4 == 0 && onSegment(t, s.B) {
		return true
	}
	return false
}

// IntersectsRect reports whether the segment shares at least one point with
// rectangle r. It uses the Cohen–Sutherland style trivial accept/reject
// followed by edge tests, so it is exact for closed rectangles.
func (s Segment) IntersectsRect(r Rect) bool {
	// Trivial accept: an endpoint inside the rectangle.
	if r.ContainsPoint(s.A) || r.ContainsPoint(s.B) {
		return true
	}
	// Trivial reject: the segment's MBR misses r.
	if !s.MBR().Intersects(r) {
		return false
	}
	// Otherwise the segment may cross the rectangle; test its four edges.
	c := r.Corners()
	for i := 0; i < 4; i++ {
		edge := Segment{c[i], c[(i+1)%4]}
		if s.Intersects(edge) {
			return true
		}
	}
	return false
}

// DistSqToPoint returns the squared minimum distance from p to the segment.
func (s Segment) DistSqToPoint(p Point) float64 {
	ab := s.B.Sub(s.A)
	ap := p.Sub(s.A)
	lenSq := ab.Dot(ab)
	if lenSq == 0 { // degenerate segment
		return s.A.DistSq(p)
	}
	t := ap.Dot(ab) / lenSq
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	closest := Point{s.A.X + t*ab.X, s.A.Y + t*ab.Y}
	return closest.DistSq(p)
}

// DistToPoint returns the minimum distance from p to the segment.
func (s Segment) DistToPoint(p Point) float64 {
	return math.Sqrt(s.DistSqToPoint(p))
}

// IntersectsDisk reports whether the segment shares a point with the disk.
func (s Segment) IntersectsDisk(center Point, radius float64) bool {
	return s.DistSqToPoint(center) <= radius*radius
}
