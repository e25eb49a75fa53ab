package geom

import "math"

// Polygon is a simple polygon given by its outer ring. The ring is a
// sequence of at least three vertices; it is implicitly closed (the last
// vertex connects back to the first). Vertex order may be clockwise or
// counterclockwise. Holes are not modeled: the datasets the paper targets
// (TIGER edges, influence regions, meshes) are dominated by simple
// polygons, and the refinement predicates below only need the outer ring.
type Polygon struct {
	Ring []Point
}

// NewPolygon returns a polygon over the given ring. It panics if fewer
// than three vertices are given. A closing vertex equal to the first may
// be supplied and is dropped.
func NewPolygon(ring ...Point) *Polygon {
	if len(ring) >= 2 && ring[0] == ring[len(ring)-1] {
		ring = ring[:len(ring)-1]
	}
	if len(ring) < 3 {
		panic("geom: polygon needs at least three vertices")
	}
	return &Polygon{Ring: ring}
}

// NumEdges returns the number of edges in the outer ring.
func (p *Polygon) NumEdges() int { return len(p.Ring) }

// Edge returns the i-th edge of the ring.
func (p *Polygon) Edge(i int) Segment {
	j := i + 1
	if j == len(p.Ring) {
		j = 0
	}
	return Segment{p.Ring[i], p.Ring[j]}
}

// MBR returns the minimum bounding rectangle of the polygon.
func (p *Polygon) MBR() Rect {
	r := Rect{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
	for _, v := range p.Ring {
		r.MinX = min(r.MinX, v.X)
		r.MinY = min(r.MinY, v.Y)
		r.MaxX = max(r.MaxX, v.X)
		r.MaxY = max(r.MaxY, v.Y)
	}
	return r
}

// Area returns the absolute area of the polygon (shoelace formula).
func (p *Polygon) Area() float64 {
	var sum float64
	n := len(p.Ring)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += p.Ring[i].Cross(p.Ring[j])
	}
	return math.Abs(sum) / 2
}

// ContainsPoint reports whether q lies inside the polygon (boundary
// included), using the even-odd ray casting rule with an explicit
// on-boundary check for robustness.
func (p *Polygon) ContainsPoint(q Point) bool {
	inside := false
	n := len(p.Ring)
	for i := 0; i < n; i++ {
		a, b := p.Ring[i], p.Ring[(i+1)%n]
		// On-edge counts as contained.
		e := Segment{a, b}
		if orientation(a, b, q) == 0 && onSegment(e, q) {
			return true
		}
		if (a.Y > q.Y) != (b.Y > q.Y) {
			xCross := a.X + (q.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if q.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// IntersectsRect reports whether the polygon shares at least one point
// with rectangle r: either an edge crosses the rectangle, the rectangle is
// entirely inside the polygon, or the polygon is entirely inside the
// rectangle. This is the exact refinement test for window queries over
// polygon data.
func (p *Polygon) IntersectsRect(r Rect) bool {
	// Any ring vertex inside the rectangle, or edge crossing it.
	for i := 0; i < p.NumEdges(); i++ {
		if p.Edge(i).IntersectsRect(r) {
			return true
		}
	}
	// No edge touches r: either disjoint, or one contains the other.
	// Polygon inside rect would imply vertices in r (handled above), so the
	// only remaining containment case is rect fully inside polygon.
	return p.ContainsPoint(Point{r.MinX, r.MinY})
}

// ContainsRect reports whether r lies entirely inside the polygon: all
// four corners are inside and no polygon edge enters the rectangle. The
// test is exact for simple polygons and makes Polygon usable as an
// arbitrary query region with covered-tile skipping.
func (p *Polygon) ContainsRect(r Rect) bool {
	for _, c := range r.Corners() {
		if !p.ContainsPoint(c) {
			return false
		}
	}
	for i := 0; i < p.NumEdges(); i++ {
		if p.Edge(i).IntersectsRect(r) {
			return false
		}
	}
	return true
}

// DistSqToPoint returns the squared minimum distance from q to the polygon
// (zero when q is inside).
func (p *Polygon) DistSqToPoint(q Point) float64 {
	if p.ContainsPoint(q) {
		return 0
	}
	best := math.Inf(1)
	for i := 0; i < p.NumEdges(); i++ {
		if d := p.Edge(i).DistSqToPoint(q); d < best {
			best = d
		}
	}
	return best
}

// IntersectsDisk reports whether the polygon comes within radius of
// center. This is the exact refinement test for disk queries over
// polygon data.
func (p *Polygon) IntersectsDisk(center Point, radius float64) bool {
	return p.DistSqToPoint(center) <= radius*radius
}
