package geom

import (
	"math"
	"testing"
)

func TestRectIntersects(t *testing.T) {
	tests := []struct {
		name string
		a, b Rect
		want bool
	}{
		{"overlap", Rect{0, 0, 2, 2}, Rect{1, 1, 3, 3}, true},
		{"contained", Rect{0, 0, 4, 4}, Rect{1, 1, 2, 2}, true},
		{"identical", Rect{0, 0, 1, 1}, Rect{0, 0, 1, 1}, true},
		{"touch edge", Rect{0, 0, 1, 1}, Rect{1, 0, 2, 1}, true},
		{"touch corner", Rect{0, 0, 1, 1}, Rect{1, 1, 2, 2}, true},
		{"disjoint x", Rect{0, 0, 1, 1}, Rect{2, 0, 3, 1}, false},
		{"disjoint y", Rect{0, 0, 1, 1}, Rect{0, 2, 1, 3}, false},
		{"disjoint both", Rect{0, 0, 1, 1}, Rect{5, 5, 6, 6}, false},
		{"degenerate point inside", Rect{0, 0, 2, 2}, Rect{1, 1, 1, 1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Intersects(tc.b); got != tc.want {
				t.Errorf("Intersects(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
			if got := tc.b.Intersects(tc.a); got != tc.want {
				t.Errorf("Intersects not symmetric for %v, %v", tc.a, tc.b)
			}
		})
	}
}

func TestRectContains(t *testing.T) {
	outer := Rect{0, 0, 10, 10}
	if !outer.Contains(Rect{2, 2, 5, 5}) {
		t.Error("expected containment of inner rect")
	}
	if !outer.Contains(outer) {
		t.Error("rect must contain itself")
	}
	if outer.Contains(Rect{-1, 2, 5, 5}) {
		t.Error("rect sticking out on MinX must not be contained")
	}
	if outer.Contains(Rect{2, 2, 11, 5}) {
		t.Error("rect sticking out on MaxX must not be contained")
	}
}

func TestRectIntersectionUnion(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	b := Rect{2, 1, 6, 3}
	got := a.Intersection(b)
	want := Rect{2, 1, 4, 3}
	if got != want {
		t.Errorf("Intersection = %v, want %v", got, want)
	}
	if u := a.Union(b); u != (Rect{0, 0, 6, 4}) {
		t.Errorf("Union = %v, want %v", u, Rect{0, 0, 6, 4})
	}
	disjoint := a.Intersection(Rect{10, 10, 11, 11})
	if disjoint.Valid() {
		t.Errorf("intersection of disjoint rects should be invalid, got %v", disjoint)
	}
}

func TestRectDistToPoint(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	tests := []struct {
		p    Point
		want float64
	}{
		{Point{1, 1}, 0},   // inside
		{Point{2, 2}, 0},   // on corner
		{Point{3, 1}, 1},   // right of
		{Point{1, -2}, 2},  // below
		{Point{5, 6}, 5},   // 3-4-5 triangle from corner (2,2)
		{Point{-3, -4}, 5}, // 3-4-5 from corner (0,0)
		{Point{-1, 1}, 1},  // left of
	}
	for _, tc := range tests {
		if got := r.DistToPoint(tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("DistToPoint(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRectMaxDistSqToPoint(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	// Farthest corner from (0,0) is (2,2): dist sq = 8.
	if got := r.MaxDistSqToPoint(Point{0, 0}); got != 8 {
		t.Errorf("MaxDistSqToPoint = %v, want 8", got)
	}
	// From the center the farthest corners are all at dist sq 2.
	if got := r.MaxDistSqToPoint(Point{1, 1}); got != 2 {
		t.Errorf("MaxDistSqToPoint from center = %v, want 2", got)
	}
}

func TestRectDiskPredicates(t *testing.T) {
	r := Rect{1, 1, 2, 2}
	if !r.IntersectsDisk(Point{0, 0}, 1.5) {
		t.Error("disk reaching the near corner should intersect")
	}
	if r.IntersectsDisk(Point{0, 0}, 1.0) {
		t.Error("disk of radius 1 from origin should miss rect at (1,1)")
	}
	if !r.InsideDisk(Point{1.5, 1.5}, 1) {
		t.Error("rect should fit inside disk of radius 1 at its center")
	}
	if r.InsideDisk(Point{1.5, 1.5}, 0.5) {
		t.Error("small disk must not contain the whole rect")
	}
}

func TestDisk(t *testing.T) {
	d := Disk{Center: Point{1, 1}, Radius: 2}
	if got := d.MBR(); got != (Rect{-1, -1, 3, 3}) {
		t.Errorf("Disk.MBR = %v", got)
	}
	if !d.Contains(Point{1, 3}) {
		t.Error("boundary point should be contained")
	}
	if d.Contains(Point{4, 1}) {
		t.Error("outside point should not be contained")
	}
}

func TestPointOps(t *testing.T) {
	p, q := Point{3, 4}, Point{0, 0}
	if p.Dist(q) != 5 {
		t.Errorf("Dist = %v, want 5", p.Dist(q))
	}
	if p.DistSq(q) != 25 {
		t.Errorf("DistSq = %v, want 25", p.DistSq(q))
	}
	if c := (Point{1, 0}).Cross(Point{0, 1}); c != 1 {
		t.Errorf("Cross = %v, want 1", c)
	}
	if d := (Point{1, 2}).Dot(Point{3, 4}); d != 11 {
		t.Errorf("Dot = %v, want 11", d)
	}
}

func TestRectString(t *testing.T) {
	if s := (Rect{1, 2, 3, 4}).String(); s != "[1,3]x[2,4]" {
		t.Errorf("String = %q", s)
	}
}

func TestDiskRegionMethods(t *testing.T) {
	d := Disk{Center: Point{1, 1}, Radius: 1}
	if !d.IntersectsRect(Rect{1.5, 1.5, 3, 3}) {
		t.Error("overlapping rect should intersect")
	}
	if d.IntersectsRect(Rect{3, 3, 4, 4}) {
		t.Error("far rect must not intersect")
	}
	if !d.ContainsRect(Rect{0.8, 0.8, 1.2, 1.2}) {
		t.Error("small central rect should be contained")
	}
	if d.ContainsRect(Rect{0, 0, 2, 2}) {
		t.Error("circumscribing rect must not be contained")
	}
}

func TestRectValid(t *testing.T) {
	if !(Rect{0, 0, 1, 1}).Valid() {
		t.Error("normal rect must be valid")
	}
	if (Rect{1, 0, 0, 1}).Valid() {
		t.Error("inverted rect must be invalid")
	}
	if (Rect{math.NaN(), 0, 1, 1}).Valid() {
		t.Error("NaN rect must be invalid")
	}
}

func TestRectGeometryHelpers(t *testing.T) {
	r := Rect{0, 0, 3, 4}
	if r.Width() != 3 || r.Height() != 4 || r.Area() != 12 || r.Margin() != 7 {
		t.Errorf("extent helpers wrong: w=%v h=%v a=%v m=%v", r.Width(), r.Height(), r.Area(), r.Margin())
	}
	if r.Center() != (Point{1.5, 2}) {
		t.Errorf("Center = %v", r.Center())
	}
	c := r.Corners()
	if c[0] != (Point{0, 0}) || c[2] != (Point{3, 4}) {
		t.Errorf("Corners = %v", c)
	}
	if e := r.Expand(1); e != (Rect{-1, -1, 4, 5}) {
		t.Errorf("Expand = %v", e)
	}
}

// TestMinMaxBuiltinsMatchMath pins the helpers that use the min and max
// builtins to the results math.Min and math.Max gave them, bit for bit,
// NaN and ±0 included. The builtins compile to a few instructions where
// math.Min/math.Max are a call each. They differ in one case only: a NaN
// beside the infinity math.Min (-Inf) or math.Max (+Inf) checks first,
// where math returns the infinity and the builtin NaN. Both are
// non-finite, and no reader passes a non-finite coordinate on.
func TestMinMaxBuiltinsMatchMath(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	sameRect := func(a, b Rect) bool {
		return same(a.MinX, b.MinX) && same(a.MinY, b.MinY) && same(a.MaxX, b.MaxX) && same(a.MaxY, b.MaxY)
	}
	all := []float64{nan, negZero, 0, -1, 1, 0.5, -inf, inf}
	for _, a := range all {
		for _, b := range all {
			gotMin, gotMax := min(a, b), max(a, b)
			wantMin, wantMax := math.Min(a, b), math.Max(a, b)
			if math.IsNaN(a) || math.IsNaN(b) {
				wantMin, wantMax = nan, nan // the one difference, see above
			}
			if !same(gotMin, wantMin) || !same(gotMax, wantMax) {
				t.Fatalf("min/max(%v, %v) = %v/%v, want %v/%v", a, b, gotMin, gotMax, wantMin, wantMax)
			}
		}
	}

	values := []float64{nan, negZero, 0, -1, 1, 0.5, 2}
	for _, a := range values {
		for _, b := range values {
			p, q := Point{a, b}, Point{b, a}
			want := Rect{math.Min(p.X, q.X), math.Min(p.Y, q.Y), math.Max(p.X, q.X), math.Max(p.Y, q.Y)}
			if got := RectFromPoints(p, q); !sameRect(got, want) {
				t.Errorf("RectFromPoints(%v, %v) = %v, want %v", p, q, got, want)
			}
			r, s := Rect{a, a, b, b}, Rect{b, -1, a, 1}
			want = Rect{math.Max(r.MinX, s.MinX), math.Max(r.MinY, s.MinY), math.Min(r.MaxX, s.MaxX), math.Min(r.MaxY, s.MaxY)}
			if got := r.Intersection(s); !sameRect(got, want) {
				t.Errorf("%v.Intersection(%v) = %v, want %v", r, s, got, want)
			}
			dx := math.Max(0, math.Max(r.MinX-q.X, q.X-r.MaxX))
			dy := math.Max(0, math.Max(r.MinY-q.Y, q.Y-r.MaxY))
			if got := r.DistSqToPoint(q); !same(got, dx*dx+dy*dy) {
				t.Errorf("%v.DistSqToPoint(%v) = %v, want %v", r, q, got, dx*dx+dy*dy)
			}
			dx = math.Max(math.Abs(q.X-r.MinX), math.Abs(q.X-r.MaxX))
			dy = math.Max(math.Abs(q.Y-r.MinY), math.Abs(q.Y-r.MaxY))
			if got := r.MaxDistSqToPoint(q); !same(got, dx*dx+dy*dy) {
				t.Errorf("%v.MaxDistSqToPoint(%v) = %v, want %v", r, q, got, dx*dx+dy*dy)
			}
			pts := []Point{p, q, {a, a}}
			want = Rect{inf, inf, -inf, -inf}
			for _, v := range pts {
				want = Rect{math.Min(want.MinX, v.X), math.Min(want.MinY, v.Y), math.Max(want.MaxX, v.X), math.Max(want.MaxY, v.Y)}
			}
			if got := (&LineString{Points: pts}).MBR(); !sameRect(got, want) {
				t.Errorf("LineString%v.MBR() = %v, want %v", pts, got, want)
			}
			if got := (&Polygon{Ring: pts}).MBR(); !sameRect(got, want) {
				t.Errorf("Polygon%v.MBR() = %v, want %v", pts, got, want)
			}
			seg, x := Segment{p, q}, Point{b, b}
			wantOn := math.Min(seg.A.X, seg.B.X) <= x.X && x.X <= math.Max(seg.A.X, seg.B.X) &&
				math.Min(seg.A.Y, seg.B.Y) <= x.Y && x.Y <= math.Max(seg.A.Y, seg.B.Y)
			if got := onSegment(seg, x); got != wantOn {
				t.Errorf("onSegment(%v, %v) = %v, want %v", seg, x, got, wantOn)
			}
		}
	}
}
